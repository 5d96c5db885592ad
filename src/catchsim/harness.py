"""Deterministic scenario engine.

Builds the five interception scenarios plus the plane-restricted 2D
experiment from declarative JSON configs, runs the sense -> predict ->
plan -> act loop at a fixed physics timestep with control at camera
rate, and produces per-frame metric records, a trace CSV and a summary.

Scenario map: A chases a fixed ball (no yaw), B a moving ball (no yaw,
expected to lose it), C a moving ball with yaw-keep, D intercepts a
thrown ball at the nearest reachable predicted point, E at the earliest
reachable predicted point. planar2d restricts the UAV to a vertical
plane and scores predicted vs actual plane crossings.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np

from .physics import (
    BallMotion,
    BallState,
    Environment,
    GroundTruth,
    ProjectileParams,
    ground_truth,
    step_ground_truth,  # noqa: F401  # the per-step integrator, kept bound here for perfbench/spans.py
    truth_length,
)
from .planner import (
    PlanMethod,
    ReachableRegion,
    Setpoint,
    UavLimits,
    plan_cat_mouse,
    plan_fastest,
    plan_shortest,
    reachable_region,
    yaw_command,
)
from .predictor import (
    ObservationQueue,
    PredictedPath,
    PropagationStop,
    plane_crossing,
    predict_from_queue,
    predict_path,
    push_observation,
)
from .sensor import CameraModel, Observation, frame_schedule, observe
from .vehicle import (
    fly,
    hover_init,
    project_to_plane,
    step_uav,  # noqa: F401  # the per-tick step, kept bound here for perfbench/spans.py
)

# Terminate once the ball has been unseen this long after at least one
# detection ("lost beyond recovery").
BALL_LOST_TIMEOUT = 1.0  # s
# Most steps one predicted path may take (max_horizon / t_step); every frame propagates one.
MAX_PREDICTED_STEPS = 100_000
# Most samples a run's ground truth may hold (max_sim_time / physics_dt, plus the
# max_horizon tail of a thrown ball); each is an RK4 step at set-up and a tick.
MAX_TRUTH_SAMPLES = 100_000

TRACE_HEADER = (
    "time,ball_x,ball_y,ball_z,obs_x,obs_y,obs_z,pred_x,pred_y,pred_z,"
    "pred_err,uav_x,uav_y,uav_z,sp_x,sp_y,sp_z,intercepted"
)


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


class ScenarioId(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    PLANAR2D = "planar2d"


# Canonical method / yaw wiring per scenario (yaw is unconstrained where absent).
_SCENARIO_METHOD = {
    ScenarioId.A: PlanMethod.CAT_MOUSE,
    ScenarioId.B: PlanMethod.CAT_MOUSE,
    ScenarioId.C: PlanMethod.CAT_MOUSE,
    ScenarioId.D: PlanMethod.SHORTEST_PATH,
    ScenarioId.E: PlanMethod.FASTEST_PATH,
    ScenarioId.PLANAR2D: PlanMethod.SHORTEST_PATH,
}
_SCENARIO_YAW = {
    ScenarioId.A: False,
    ScenarioId.B: False,
    ScenarioId.C: True,
}


@dataclass
class ScenarioConfig:
    """Fully resolved description of one scenario run. Built only by
    `config_from_dict`; the schema, not this class, declares the defaults."""

    scenario_id: ScenarioId
    max_sim_time: float  # s
    ball_position: np.ndarray  # m
    ball_velocity: np.ndarray  # m/s
    ball_motion: BallMotion
    projectile: ProjectileParams
    environment: Environment
    camera: CameraModel
    limits: UavLimits
    kp: float  # s^-2
    kd: float  # s^-1
    start_elevation: float  # m
    height_comp_gain: float  # m/rad
    method: PlanMethod
    yaw_enabled: bool
    tilt_coupling: bool
    edge_threshold: float
    hysteresis_dist: float  # m
    queue_capacity: int
    t_step: float  # s
    max_horizon: float  # s
    ground_height: float  # m
    physics_dt: float  # s
    seed: int
    plane_point: np.ndarray | None  # planar2d only
    plane_normal: np.ndarray | None

    def to_dict(self) -> dict:
        """JSON-ready dict with every default materialized; round-trips via config_from_dict."""
        d: dict = {}
        for path, attr in _FIELDS:
            value = reduce(getattr, attr, self)
            if value is None:  # the plane, outside planar2d
                continue
            if isinstance(value, Enum):
                value = value.value
            elif isinstance(value, np.ndarray):
                value = [float(v) for v in value]
            node = d
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
        return d


# ---------------------------------------------------------------------------
# config loading & validation
# ---------------------------------------------------------------------------

_SCENARIOS = resources.files("catchsim.scenarios")
_SCHEMA = json.loads((_SCENARIOS / "schema.json").read_text())


def _leaves(node: dict, path: tuple[str, ...] = ()):
    for key, sub in node["fields"].items():
        if sub["type"] == "object":
            yield from _leaves(sub, path + (key,))
        else:
            yield path + (key,), tuple(sub["attr"].split("."))


# The one config table, in schema order: each leaf's path in the JSON config and
# the ScenarioConfig attribute path it sets, e.g. ("uav", "limits", "max_speed")
# and ("limits", "max_speed").
_FIELDS = tuple(_leaves(_SCHEMA))
# ScenarioConfig's nested parameter objects, each with its class.
_NESTED = {
    "projectile": ProjectileParams,
    "environment": Environment,
    "camera": CameraModel,
    "limits": UavLimits,
}


def _check_node(value, node: dict, path: str, kwargs: dict):
    """Validate a JSON object against a schema object node, storing each leaf in `kwargs`
    under its `attr` (an omitted one gets its schema default). Unknown keys are checked
    first, then the fields in schema order; the first fault found is reported."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    fields = node["fields"]
    for key in value:
        if key not in fields:
            raise ConfigError(f"unknown field '{path}.{key}'" if path else f"unknown field '{key}'")
    for key, sub in fields.items():
        sub_path = f"{path}.{key}" if path else key
        if sub["type"] == "object":
            _check_node(value.get(key, {}), sub, sub_path, kwargs)
            continue
        if key in value:
            leaf = _check_leaf(value[key], sub, sub_path)
        elif sub.get("required", False):
            raise ConfigError(f"missing required field '{sub_path}'")
        else:
            leaf = sub.get("default")
        *owner, name = sub["attr"].split(".")
        (kwargs[owner[0]] if owner else kwargs)[name] = leaf


def _json_float(value: int | float, fault: str) -> float:
    """A JSON number as a float; an integer literal past the float range is ConfigError(fault)."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{fault}, got an integer of {len(str(abs(value)))} digits") from None


def _check_leaf(value, node: dict, path: str):
    """Validate one JSON leaf against its schema node; returns it typed (a vec3 as a float array)."""
    kind = node["type"]
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        value = _json_float(value, f"{path}: must be finite")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite, got {value!r}")
        if "min_exclusive" in node and value <= node["min_exclusive"]:
            raise ConfigError(f"{path}: must be > {node['min_exclusive']}, got {value}")
        if "min" in node and value < node["min"]:
            raise ConfigError(f"{path}: must be >= {node['min']}, got {value}")
        return value
    if kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if "min" in node and value < node["min"]:
            raise ConfigError(f"{path}: must be >= {node['min']}, got {value}")
        return value
    if kind == "boolean":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        if "enum" in node and value not in node["enum"]:
            raise ConfigError(f"{path}: must be one of {node['enum']}, got {value!r}")
        return value
    if kind == "vec3":
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
        ):
            raise ConfigError(f"{path}: expected a list of 3 numbers, got {value!r}")
        if any(not math.isfinite(_json_float(v, f"{path}: components must be finite")) for v in value):
            raise ConfigError(f"{path}: components must be finite, got {value!r}")
        return np.array(value, dtype=float)
    raise AssertionError(f"schema bug: unknown node type {kind!r} at {path}")


def config_from_dict(raw: dict, allow_method_override: bool = False) -> ScenarioConfig:
    """Validate a raw JSON dict against the bundled schema and build a config.

    One schema walk checks and types each leaf once; an omitted one gets
    the schema's default, the only declaration of it. Unknown fields are
    rejected. The scenario's canonical planning method and yaw wiring are
    enforced unless allow_method_override is set (used by the CLI --method
    flag); planar2d's method is enforced even then.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    kwargs: dict = {name: {} for name in _NESTED}
    _check_node(raw, _SCHEMA, "", kwargs)
    sid = kwargs["scenario_id"] = ScenarioId(kwargs["scenario_id"])
    kwargs["ball_motion"] = BallMotion(kwargs["ball_motion"])

    method = kwargs["method"]
    method = PlanMethod(method) if method is not None else _SCENARIO_METHOD[sid]
    yaw_enabled = kwargs["yaw_enabled"]
    yaw_enabled = yaw_enabled if yaw_enabled is not None else _SCENARIO_YAW.get(sid, True)
    # planar2d's plane-crossing planner reads no method, so it has none to override
    if not allow_method_override or sid is ScenarioId.PLANAR2D:
        if method is not _SCENARIO_METHOD[sid]:
            raise ConfigError(
                f"planner.method: scenario {sid.value} requires "
                f"'{_SCENARIO_METHOD[sid].value}', got '{method.value}'"
            )
    if not allow_method_override:
        if sid in _SCENARIO_YAW and yaw_enabled is not _SCENARIO_YAW[sid]:
            raise ConfigError(
                f"planner.yaw_enabled: scenario {sid.value} requires {_SCENARIO_YAW[sid]}"
            )
    kwargs["method"], kwargs["yaw_enabled"] = method, yaw_enabled

    point, normal = kwargs["plane_point"], kwargs["plane_normal"]
    if sid is ScenarioId.PLANAR2D:
        if point is None or normal is None:
            raise ConfigError("plane: planar2d requires plane.point and plane.normal")
    elif point is not None or normal is not None:
        raise ConfigError(f"plane: only valid for scenario planar2d, not {sid.value}")

    try:
        for name, cls in _NESTED.items():
            kwargs[name] = cls(**kwargs[name])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cfg = ScenarioConfig(**kwargs)
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg: ScenarioConfig):
    if cfg.tilt_coupling and cfg.environment.gravity_g == 0.0:
        # the coupled camera tilt is atan(|a_h| / g)
        raise ConfigError("environment.gravity: must be > 0 while planner.tilt_coupling is on")
    if cfg.scenario_id is ScenarioId.PLANAR2D:
        n = cfg.plane_normal
        if abs(np.linalg.norm(n) - 1.0) > 1e-6:
            raise ConfigError("plane.normal: must be a unit vector")
        start = np.array([0.0, 0.0, cfg.start_elevation])
        if abs(float((start - cfg.plane_point) @ n)) > 1e-6:
            raise ConfigError("plane: the UAV start position (0, 0, start_elevation) must lie on the plane")
    tail = cfg.max_horizon if cfg.ball_motion is BallMotion.BALLISTIC else 0.0
    # the float ratio first: past the float range there is no tick count to round to
    if (cfg.max_sim_time + tail) / cfg.physics_dt > MAX_TRUTH_SAMPLES or truth_length(
        cfg.ball_motion, cfg.physics_dt, _n_ticks(cfg), cfg.max_horizon
    ) > MAX_TRUTH_SAMPLES:
        raise ConfigError(
            f"physics_dt: the ground truth would hold more than {MAX_TRUTH_SAMPLES} samples "
            "((max_sim_time + max_horizon for a thrown ball) / physics_dt)"
        )
    # distances are norms, so their squares must stay in the float range
    with np.errstate(over="ignore"):
        start_distance = float(np.linalg.norm(cfg.ball_position - hover_init(cfg.start_elevation).position))
    if not math.isfinite(start_distance):
        raise ConfigError("ball: its distance from the UAV start position is past the float range")
    reach = cfg.limits.max_speed * (cfg.max_sim_time + cfg.physics_dt)
    if not math.isfinite(reach * reach):
        raise ConfigError(
            "uav.limits.max_speed: the farthest the UAV can fly, max_speed * (max_sim_time + physics_dt), "
            "has a square past the float range"
        )
    # the frame gate rounds time * frame_rate to a frame number
    if not math.isfinite((cfg.max_sim_time + cfg.physics_dt) * cfg.camera.frame_rate):
        raise ConfigError("camera.frame_rate: the frames in max_sim_time are past the float range")
    if cfg.method is not PlanMethod.CAT_MOUSE and cfg.max_horizon / cfg.t_step > MAX_PREDICTED_STEPS:
        raise ConfigError(f"prediction.t_step: max_horizon / t_step must be <= {MAX_PREDICTED_STEPS}")
    if cfg.scenario_id in (ScenarioId.D, ScenarioId.E) and cfg.ball_motion is BallMotion.BALLISTIC:
        _check_throw_geometry(cfg)


def _n_ticks(cfg: ScenarioConfig) -> int:
    """Physics ticks a run lasts at most."""
    return int(round(cfg.max_sim_time / cfg.physics_dt))


@contextmanager
def _as_config_error(what: str):
    """A float failure (ArithmeticError, ValueError) in the block becomes ConfigError("what (error)")."""
    try:
        yield
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"{what} ({exc})") from exc


def _check_throw_geometry(cfg: ScenarioConfig):
    """Load-time sanity check of the D/E throw shape.

    With perfect knowledge of the initial ball state and the UAV at hover,
    D requires the nearest reachable predicted point to sit in the late
    half of the reachable region, and E requires the earliest reachable
    point to differ from the nearest one (so the two methods actually
    choose differently).
    """
    with _as_config_error(f"scenario {cfg.scenario_id.value}: the throw's predicted path cannot be computed"):
        path = predict_path(
            BallState(cfg.ball_position.copy(), cfg.ball_velocity.copy(), 0.0),
            cfg.projectile,
            cfg.environment,
            t_step=cfg.t_step,
            stop=PropagationStop(cfg.max_horizon, cfg.ground_height),
        )
    uav0 = hover_init(cfg.start_elevation)
    region = reachable_region(path, 0.0, uav0, cfg.limits)
    if len(region) == 0:
        raise ConfigError(f"scenario {cfg.scenario_id.value}: no predicted point is reachable from hover")
    nearest = plan_shortest(path, region, uav0).path_index
    earliest = int(region.indices[0])
    if cfg.scenario_id is ScenarioId.D and nearest < len(path) / 2:
        raise ConfigError(
            "scenario D: the nearest reachable predicted point must lie in the "
            f"late half of the path (index {nearest} of {len(path)})"
        )
    if cfg.scenario_id is ScenarioId.E and earliest == nearest:
        raise ConfigError(
            "scenario E: the earliest reachable predicted point must differ from the nearest one"
        )


def load_raw_config(path: Path) -> dict:
    """Read a config file's JSON, not yet validated; a file that cannot be read or decoded is a ConfigError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8, bad JSON, an over-long integer
        raise ConfigError(f"config file {path}: not found, unreadable or not valid JSON ({exc})") from exc


def load_config(path: str | Path, allow_method_override: bool = False) -> ScenarioConfig:
    """Load and validate a scenario config JSON file."""
    return config_from_dict(load_raw_config(Path(path)), allow_method_override=allow_method_override)


def bundled_config(scenario: str | ScenarioId) -> ScenarioConfig:
    """Load one of the packaged default scenario configs."""
    return config_from_dict(load_raw_config(_SCENARIOS / f"{ScenarioId(scenario).value}.json"))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecord:
    """One trace row: world truth, detection, prediction and command at time t."""

    time: float
    ball_position: np.ndarray
    uav_position: np.ndarray
    setpoint: Setpoint
    intercepted: bool
    observation: Observation | None = None
    predicted_point: np.ndarray | None = None
    prediction_error: float | None = None
    chosen_index: int | None = None  # path sample chosen by the active method
    shortest_index: int | None = None  # what plan_shortest would have chosen


@dataclass
class ScenarioResult:
    intercepted: bool
    interception_time: float | None
    min_distance: float
    records: list[MetricsRecord]
    termination_reason: str  # intercepted | ground_impact | ball_lost | max_time


def _segments(vertices: np.ndarray) -> tuple[np.ndarray, ...]:
    """The segments of the polyline through `vertices` (two or more), in column
    form: starts `ax, ay, az`, directions `dx, dy, dz`, squared lengths and the
    mask of positive squared lengths, each a contiguous 1-D array.

    Sums over the three coordinates associate left to right, (x + y) + z:
    the order in which numpy's `add.reduce(..., axis=1)` sums a row of three,
    as the (N, 3) reference scorer in tests/test_harness.py does. The two
    agree bit for bit only while numpy keeps that order."""
    columns = np.ascontiguousarray(vertices.T)
    ax, ay, az = starts = columns[:, :-1]
    dx, dy, dz = columns[:, 1:] - starts
    dd = (dx * dx + dy * dy) + dz * dz
    return ax, ay, az, dx, dy, dz, dd, dd > 0.0


def _point_to_polyline(point: np.ndarray, segments: tuple[np.ndarray, ...]) -> float:
    """Minimum distance from a 3-D point to a polyline, given as its `_segments`."""
    ax, ay, az, dx, dy, dz, dd, positive = segments
    px, py, pz = point.tolist()
    t = ((px - ax) * dx + (py - ay) * dy) + (pz - az) * dz
    t = np.clip(np.divide(t, dd, out=np.zeros_like(t), where=positive), 0.0, 1.0)
    ex = px - (ax + t * dx)
    ey = py - (ay + t * dy)
    ez = pz - (az + t * dz)
    return math.sqrt(((ex * ex + ey * ey) + ez * ez).min())


def prediction_error(predicted_point: np.ndarray, true_trajectory: np.ndarray) -> float:
    """Distance from a predicted point to the polyline through an (N, 3) true trajectory."""
    vertices = np.asarray(true_trajectory, dtype=float)
    if len(vertices) == 0:
        raise ValueError("true_trajectory must be non-empty")
    point = np.asarray(predicted_point, dtype=float)
    if len(vertices) == 1:
        return float(np.linalg.norm(point - vertices[0]))
    return _point_to_polyline(point, _segments(vertices))


def final_prediction_error(result: ScenarioResult) -> float | None:
    """Last recorded prediction error of a run, if any prediction was made."""
    for rec in reversed(result.records):
        if rec.prediction_error is not None:
            return rec.prediction_error
    return None


# ---------------------------------------------------------------------------
# scenario engine
# ---------------------------------------------------------------------------

def _old_target_left_region(sp: Setpoint, path: PredictedPath, region: ReachableRegion) -> bool:
    """Has the previous path-based target dropped out of the (new) green region?"""
    # an overflowed distance is +inf, far from the old target; not a warning
    with np.errstate(over="ignore"):
        j = int(np.argmin(np.linalg.norm(path.positions - sp.target_position, axis=1)))
    k = int(np.searchsorted(region.indices, j))
    return k >= len(region.indices) or int(region.indices[k]) != j


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one scenario to termination; fully deterministic given cfg.

    In planar2d the UAV is constrained to the configured vertical plane;
    every frame the predicted path's plane crossing becomes the (projected)
    setpoint, and the recorded prediction error is the distance between
    predicted and actual crossing points (filled in after the run, once the
    true trajectory is known). A ball whose true path cannot be integrated
    is a ConfigError, raised before the first tick.
    """
    env, params, cam, limits = cfg.environment, cfg.projectile, cfg.camera, cfg.limits
    dt = cfg.physics_dt
    stop = PropagationStop(cfg.max_horizon, cfg.ground_height)
    predictive = cfg.method in (PlanMethod.SHORTEST_PATH, PlanMethod.FASTEST_PATH)
    planar = cfg.scenario_id is ScenarioId.PLANAR2D

    plane = (cfg.plane_point, cfg.plane_normal) if planar else None
    n_ticks = _n_ticks(cfg)
    ballistic = cfg.ball_motion is BallMotion.BALLISTIC
    with _as_config_error("ball: the true path cannot be integrated"):
        truth = ground_truth(
            cfg.ball_motion, cfg.ball_position, cfg.ball_velocity, params, env, dt,
            cfg.ground_height, n_ticks, cfg.max_horizon,
        )
    positions = truth.positions

    uav = hover_init(cfg.start_elevation)
    queue = ObservationQueue(capacity=cfg.queue_capacity)
    sp = Setpoint(uav.position.copy(), 0.0, cfg.method, None)

    records: list[MetricsRecord] = []
    i = 0  # index of the ball's current truth sample
    min_distance = float(np.linalg.norm(uav.position - positions[0]))
    last_obs_time: float | None = None
    reason = "max_time"

    # Control runs on the camera's frame ticks; between two of them the
    # vehicle flies one segment toward a fixed setpoint.
    frame_ticks, stamps = frame_schedule(cam.frame_rate, dt, n_ticks)
    last = len(positions) - 1  # a ballistic truth may end early, at its first sample below ground
    uav_position = uav.position  # at truth sample i

    for k, stamp, k_next in zip(frame_ticks, stamps, [*frame_ticks[1:], n_ticks]):
        t = k * dt
        obs = observe(positions[k], params, uav, cam, stamp, rng_seed=(cfg.seed, k))
        predicted_point = None
        chosen_idx = None
        shortest_idx = None
        if obs is not None:
            last_obs_time = t
            push_observation(queue, obs)
            if planar:
                sp, predicted_point = _plan_planar(cfg, queue, obs, uav, stop)
            elif predictive:
                sp, predicted_point, chosen_idx, shortest_idx = _plan_predictive(
                    cfg, queue, obs, uav, sp, stop, t
                )
            else:
                sp = plan_cat_mouse(obs, uav, cfg.yaw_enabled, cfg.edge_threshold)
        records.append(
            MetricsRecord(
                time=t,
                ball_position=positions[k],
                uav_position=uav.position.copy(),
                setpoint=sp,
                intercepted=False,
                observation=obs,
                predicted_point=predicted_point,
                chosen_index=chosen_idx,
                shortest_index=shortest_idx,
            )
        )

        # ticks k+1 .. k_next: the UAV at each against the ball sample of the same index
        k_next = min(k_next, last)
        uav, path = fly(
            uav, sp, limits, dt, k_next - k,
            tilt_coupling=cfg.tilt_coupling,
            kp=cfg.kp, kd=cfg.kd,
            gravity_g=env.gravity_g,
            height_comp_gain=cfg.height_comp_gain,
            plane=plane,
        )
        balls = positions[k + 1 : k_next + 1]
        diff = path - balls
        # sqrt(x . x) as np.linalg.norm computes it per vector, bit for bit
        d = np.sqrt(np.vecdot(diff, diff))
        hit = d <= limits.intercept_radius
        flagged = hit
        if ballistic:
            grounded = balls[:, 2] < cfg.ground_height
            flagged = flagged | grounded
        # i * dt never decreases as i grows (an int64 and a Python int round
        # alike), so a segment with any tick past the ball-lost timeout has
        # its last tick past it: one scalar test decides whether to build
        # the per-tick vector
        if last_obs_time is not None and k_next * dt - last_obs_time > BALL_LOST_TIMEOUT:
            flagged = flagged | (np.arange(k + 1, k_next + 1) * dt - last_obs_time > BALL_LOST_TIMEOUT)
        # the run ends at the first flagged tick; otherwise the segment is flown in full
        j = int(np.argmax(flagged)) if flagged.any() else len(d) - 1
        seg_min = float(d[: j + 1].min())
        if seg_min < min_distance:
            min_distance = seg_min
        i = k + 1 + j
        uav_position = path[j]
        if flagged[j]:
            reason = "intercepted" if hit[j] else "ground_impact" if ballistic and grounded[j] else "ball_lost"
            break

    t_end = i * dt
    intercepted = reason == "intercepted"
    records.append(
        MetricsRecord(
            time=t_end,
            ball_position=positions[i],
            uav_position=uav_position.copy(),
            setpoint=sp,
            intercepted=intercepted,
        )
    )

    # Extend the true trajectory past termination (the arc the ball would
    # fly anyway) so predictions aimed beyond the interception instant are
    # scored against the real path, not a truncated one.
    end = _tail_end(truth, i, cfg.max_horizon, cfg.ground_height) if ballistic else i
    truth_arr = positions[: end + 1]
    if planar:
        _fill_planar_errors(cfg, records, truth_arr, dt)
    elif predictive:
        segments = _segments(truth_arr)  # a prediction needs two frames, so two or more vertices
        for rec in records:
            if rec.predicted_point is not None:
                rec.prediction_error = _point_to_polyline(rec.predicted_point, segments)

    return ScenarioResult(
        intercepted=intercepted,
        interception_time=t_end if intercepted else None,
        min_distance=min_distance,
        records=records,
        termination_reason=reason,
    )


def _tail_end(truth: GroundTruth, start: int, horizon: float, ground_height: float) -> int:
    """Last truth index of the scored arc: from `start`, the ball flies on while
    it is not below ground and less than `horizon` has passed since `start`.
    The path always holds the sample that ends the arc: it stops below ground
    or runs on for `horizon` plus a step past the last tick."""
    t_extend = truth.times[start] + horizon
    flying = (truth.positions[start:, 2] >= ground_height) & (truth.times[start:] < t_extend)
    return start + int(np.argmin(flying))


def _predict(cfg, queue, stop):
    """The path predicted from the queued detections, or None with fewer than
    two or when a noisy velocity fit sends the path out of the drag model's
    range (ArithmeticError, ValueError): a sensor event, not a config error."""
    if len(queue) < 2:
        return None
    try:
        return predict_from_queue(queue, cfg.projectile, cfg.environment, cfg.t_step, stop)
    except (ArithmeticError, ValueError):
        return None


def _plan_predictive(cfg, queue, obs, uav, sp, stop, now):
    """Shortest/fastest planning with cat & mouse fallback and setpoint hysteresis."""
    proposal = None
    predicted_point = None
    chosen_idx = None
    shortest_idx = None
    region = None
    path = _predict(cfg, queue, stop)
    if path is not None:
        region = reachable_region(path, now, uav, cfg.limits)
        if len(region) > 0:
            sp_short = plan_shortest(path, region, uav)
            if cfg.method is PlanMethod.FASTEST_PATH:
                proposal = plan_fastest(path, region, uav)
            else:
                proposal = sp_short
            shortest_idx = sp_short.path_index
            chosen_idx = proposal.path_index
            predicted_point = proposal.target_position.copy()

    if proposal is None:
        # empty region (or no predicted path): chase the detection so the
        # ball stays in frame for later re-prediction
        sp = plan_cat_mouse(obs, uav, True, cfg.edge_threshold)
    else:
        if sp.path_index is None:
            sp = proposal
        else:
            moved = float(np.linalg.norm(proposal.target_position - sp.target_position)) > cfg.hysteresis_dist
            if moved or _old_target_left_region(sp, path, region):
                sp = proposal
    # methods 2 & 3 always yaw to keep the object in view
    sp = dataclasses.replace(sp, target_yaw=yaw_command(obs, uav, cfg.edge_threshold))
    return sp, predicted_point, chosen_idx, shortest_idx


def _plan_planar(cfg, queue, obs, uav, stop):
    """Plane-crossing setpoint for the 2D experiment (falls back to projected chase)."""
    predicted_point = None
    target = obs.position
    path = _predict(cfg, queue, stop)
    if path is not None:
        crossing = plane_crossing(path, cfg.plane_point, cfg.plane_normal)
        if crossing is not None:
            predicted_point = target = crossing[0]
    sp = Setpoint(
        target_position=project_to_plane(target, cfg.plane_point, cfg.plane_normal),
        target_yaw=yaw_command(obs, uav, cfg.edge_threshold),
        source_method=PlanMethod.SHORTEST_PATH,
        path_index=None,
    )
    return sp, predicted_point


def _fill_planar_errors(cfg, records, truth_arr, dt):
    """Score predicted crossings against the true crossing of the ground-truth path."""
    truth_path = PredictedPath(
        positions=truth_arr,
        times=dt * np.arange(len(truth_arr)),
        t_step=dt,
    )
    true_crossing = plane_crossing(truth_path, cfg.plane_point, cfg.plane_normal)
    if true_crossing is None:
        return
    true_pos = true_crossing[0]
    for rec in records:
        if rec.predicted_point is not None:
            rec.prediction_error = float(np.linalg.norm(rec.predicted_point - true_pos))


# ---------------------------------------------------------------------------
# trace / summary output
# ---------------------------------------------------------------------------

def _fmt(v: float | None) -> str:
    # repr is the shortest representation that round-trips the double, so
    # no precision is lost (comfortably above the 9-significant-digit floor)
    return "" if v is None else repr(float(v))


def _fmt3(v: np.ndarray | None) -> list[str]:
    if v is None:
        return ["", "", ""]
    return list(map(repr, v.tolist()))  # tolist gives Python floats, as _fmt's float() does


def trace_csv(result: ScenarioResult) -> str:
    """Render the per-record trace as CSV text (one row per record)."""
    lines = [TRACE_HEADER]
    for rec in result.records:
        obs_pos = rec.observation.position if rec.observation is not None else None
        row = (
            [_fmt(rec.time)]
            + _fmt3(rec.ball_position)
            + _fmt3(obs_pos)
            + _fmt3(rec.predicted_point)
            + [_fmt(rec.prediction_error)]
            + _fmt3(rec.uav_position)
            + _fmt3(rec.setpoint.target_position)
            + ["1" if rec.intercepted else "0"]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summary_dict(result: ScenarioResult) -> dict:
    """ScenarioResult minus the records, JSON-ready."""
    return {
        "intercepted": result.intercepted,
        "interception_time": result.interception_time,
        "min_distance": result.min_distance,
        "termination_reason": result.termination_reason,
    }


def write_outputs(result: ScenarioResult, out_dir: str | Path, stem: str) -> tuple[Path, Path]:
    """Write <stem>_trace.csv and <stem>_summary.json into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{stem}_trace.csv"
    summary_path = out_dir / f"{stem}_summary.json"
    trace_path.write_text(trace_csv(result))
    summary_path.write_text(json.dumps(summary_dict(result), indent=2, sort_keys=True, allow_nan=False) + "\n")
    return trace_path, summary_path


# ---------------------------------------------------------------------------
# expected outcomes (used by the suite and the acceptance battery)
# ---------------------------------------------------------------------------

def scenario_expectation(cfg: ScenarioConfig, result: ScenarioResult) -> tuple[bool, str]:
    """Did this run meet its scenario's expected outcome shape?"""
    sid = cfg.scenario_id
    if sid in (ScenarioId.A, ScenarioId.C):
        return result.intercepted, f"intercepted={result.intercepted}"
    if sid is ScenarioId.B:
        ok = (not result.intercepted) and result.termination_reason == "ball_lost"
        return ok, f"intercepted={result.intercepted}, reason={result.termination_reason}"
    if sid is ScenarioId.D:
        err = final_prediction_error(result)
        ok = result.intercepted and err is not None and err <= 0.7
        return ok, f"intercepted={result.intercepted}, final_prediction_error={err}"
    if sid is ScenarioId.E:
        pairs = [
            (r.chosen_index, r.shortest_index)
            for r in result.records
            if r.chosen_index is not None and r.shortest_index is not None
        ]
        order_ok = all(c <= s for c, s in pairs)
        ok = result.intercepted and len(pairs) > 0 and order_ok
        return ok, (
            f"intercepted={result.intercepted}, replanning_frames={len(pairs)}, "
            f"fastest<=shortest={order_ok}"
        )
    err = final_prediction_error(result)
    ok = err is not None and err < 0.5
    return ok, f"final_crossing_error={err}"
