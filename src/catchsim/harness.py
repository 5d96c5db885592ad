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

import json
import math
import operator
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
    dot3,
    ground_truth,
    norm3,
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
    row_distances,
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
from .sensor import CameraModel, Observation, frame_draws, frame_schedule, observe
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


# The planning methods each scenario takes, its own first; only the CLI's --method picks
# another. A-C chase a frozen or linear ball, which `predict_path` (gravity always on)
# cannot follow: a predictive method would find no reachable point on any frame and fall
# back to cat & mouse. planar2d's plane-crossing planner is its shortest path.
_ALLOWED_METHODS = {
    ScenarioId.A: (PlanMethod.CAT_MOUSE,),
    ScenarioId.B: (PlanMethod.CAT_MOUSE,),
    ScenarioId.C: (PlanMethod.CAT_MOUSE,),
    ScenarioId.D: (PlanMethod.SHORTEST_PATH, PlanMethod.FASTEST_PATH, PlanMethod.CAT_MOUSE),
    ScenarioId.E: (PlanMethod.FASTEST_PATH, PlanMethod.SHORTEST_PATH, PlanMethod.CAT_MOUSE),
    ScenarioId.PLANAR2D: (PlanMethod.SHORTEST_PATH,),
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
    method: PlanMethod  # the scenario's, or the CLI's --method; not a schema field
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
        """JSON-ready dict of every schema field, defaults materialized; round-trips
        via config_from_dict. The method is not a schema field: the scenario id fixes
        it, so a --method override is not part of the dict."""
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


# The bounds a number or integer leaf may declare: each key and the relation a value must bear to it.
_BOUNDS = (
    ("min_exclusive", ">", operator.gt),
    ("min", ">=", operator.ge),
    ("max_exclusive", "<", operator.lt),
    ("max", "<=", operator.le),
)


def _check_bounds(value: int | float, node: dict, path: str) -> int | float:
    """`value` if it lies within every bound its schema node declares."""
    for key, relation, holds in _BOUNDS:
        if key in node and not holds(value, node[key]):
            raise ConfigError(f"{path}: must be {relation} {node[key]}, got {value}")
    return value


def _check_leaf(value, node: dict, path: str):
    """Validate one JSON leaf against its schema node; returns it typed (a vec3 as a float array)."""
    kind = node["type"]
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        value = _json_float(value, f"{path}: must be finite")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite, got {value!r}")
        return _check_bounds(value, node, path)
    if kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return _check_bounds(value, node, path)
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


def config_from_dict(raw: dict, method: PlanMethod | None = None) -> ScenarioConfig:
    """Validate a raw JSON dict against the bundled schema and build a config.

    One schema walk checks and types each leaf once; an omitted one gets
    the schema's default, the only declaration of it. Unknown fields are
    rejected. The scenario id fixes the planning method and whether cat &
    mouse yaws; `method` (the CLI's --method) picks another method the
    scenario takes (`_ALLOWED_METHODS`): D and E take all three, A-C only
    cat_mouse and planar2d only shortest_path.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    kwargs: dict = {name: {} for name in _NESTED}
    _check_node(raw, _SCHEMA, "", kwargs)
    sid = kwargs["scenario_id"] = ScenarioId(kwargs["scenario_id"])
    kwargs["ball_motion"] = BallMotion(kwargs["ball_motion"])

    allowed = _ALLOWED_METHODS[sid]
    method = kwargs["method"] = allowed[0] if method is None else PlanMethod(method)
    if method not in allowed:
        raise ConfigError(
            f"planner.method: scenario {sid.value} takes only {[m.value for m in allowed]}, got '{method.value}'"
        )

    point, normal = kwargs["plane_point"], kwargs["plane_normal"]
    if sid is ScenarioId.PLANAR2D:
        if point is None or normal is None:
            raise ConfigError("plane: planar2d requires plane.point and plane.normal")
    elif point is not None or normal is not None:
        raise ConfigError(f"plane: only valid for scenario planar2d, not {sid.value}")

    for name, cls in _NESTED.items():
        kwargs[name] = cls(**kwargs[name])

    cfg = ScenarioConfig(**kwargs)
    _validate_semantics(cfg)
    return cfg


# A detection's points lie up to the ball's radius, plus the noise, from its centre. The
# noise's max keeps their squared offsets, summed over a detection, in the float range,
# and so bounds the radius too
_MAX_DIAMETER = 2.0 * _SCHEMA["fields"]["camera"]["fields"]["noise_sigma"]["max"]


def _validate_semantics(cfg: ScenarioConfig):
    # the schema bounds a given reference area; one derived from the diameter may over- or underflow
    area = cfg.projectile.reference_area_A
    if not 0.0 < area < math.inf:
        raise ConfigError(
            f"projectile.diameter: with reference_area omitted, pi D^2 / 4 must be finite and > 0, got {area}"
        )
    if cfg.projectile.diameter_D > _MAX_DIAMETER:
        raise ConfigError(
            f"projectile.diameter: must be <= twice camera.noise_sigma's max ({_MAX_DIAMETER}), "
            f"got {cfg.projectile.diameter_D}"
        )
    if cfg.tilt_coupling and cfg.environment.gravity_g == 0.0:
        # the coupled camera tilt is atan(|a_h| / g)
        raise ConfigError("environment.gravity: must be > 0 while planner.tilt_coupling is on")
    start = hover_init(cfg.start_elevation).position
    if cfg.scenario_id is ScenarioId.PLANAR2D:
        n = cfg.plane_normal
        if abs(norm3(n) - 1.0) > 1e-6:
            raise ConfigError("plane.normal: must be a unit vector")
        if abs(dot3(start - cfg.plane_point, n)) > 1e-6:
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
        start_distance = norm3(cfg.ball_position - start)
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
    # the throw check propagates one path at load, whatever the method
    throw = cfg.scenario_id in (ScenarioId.D, ScenarioId.E) and cfg.ball_motion is BallMotion.BALLISTIC
    if (throw or cfg.method is not PlanMethod.CAT_MOUSE) and cfg.max_horizon / cfg.t_step > MAX_PREDICTED_STEPS:
        raise ConfigError(f"prediction.t_step: max_horizon / t_step must be <= {MAX_PREDICTED_STEPS}")
    if throw:
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
    nearest = plan_shortest(region)
    earliest = plan_fastest(region)
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


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario config JSON file."""
    return config_from_dict(load_raw_config(Path(path)))


def bundled_config(scenario: str | ScenarioId) -> ScenarioConfig:
    """Load one of the packaged default scenario configs."""
    return config_from_dict(load_raw_config(_SCENARIOS / f"{ScenarioId(scenario).value}.json"))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecord:
    """One trace row: world truth, detection, the frame's planning decision and
    the prediction's score at time t.

    `setpoint` through `shortest_index` are the frame decision, in the order a
    planner returns it; `prediction_error` is filled in after the run.
    """

    time: float
    ball_position: np.ndarray
    uav_position: np.ndarray
    intercepted: bool
    observation: Observation | None
    setpoint: Setpoint
    predicted_point: np.ndarray | None = None
    chosen_index: int | None = None  # path sample chosen by the active method
    shortest_index: int | None = None  # what plan_shortest would have chosen
    prediction_error: float | None = None


@dataclass
class ScenarioResult:
    intercepted: bool
    interception_time: float | None
    min_distance: float
    records: list[MetricsRecord]
    termination_reason: str  # intercepted | ground_impact | ball_lost | max_time


# Segments per bounding sphere of the scorer; points scored per chunk are capped so a
# chunk spans at most SCORE_CHUNK_PAIRS (point, segment) pairs, however long the truth
SCORE_BLOCK = 16
SCORE_CHUNK_PAIRS = 2**17
# Up to this coordinate magnitude the exact pass cannot overflow: past it, a segment
# may score NaN with its block's bounds finite, so nothing is skipped
_SCORE_COORD_LIMIT = 1e150


def _dist3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x + y * y) + z * z)


def _segments(vertices: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The segments of the polyline through `vertices` (two or more), in blocks of
    SCORE_BLOCK: a (7, n_blocks, SCORE_BLOCK) array of starts `ax, ay, az`, directions
    `dx, dy, dz` and squared lengths, the last block padded with its last segment
    (which changes no minimum). Then each block's bounding sphere: its centre, a
    middle vertex, and radius, the distance to the farthest of its vertices, end
    vertex included; and the polyline's scale, its largest coordinate magnitude, or
    +inf past _SCORE_COORD_LIMIT or with a NaN (see `_point_to_polyline`).

    Sums over the three coordinates associate left to right, (x + y) + z:
    the order in which numpy's `add.reduce(..., axis=1)` sums a row of three,
    as the (N, 3) reference scorer in tests/test_harness.py does. The two
    agree bit for bit only while numpy keeps that order."""
    columns = np.ascontiguousarray(vertices.T)
    n = columns.shape[1] - 1
    first = np.arange(0, n, SCORE_BLOCK)
    ends = np.minimum(first + SCORE_BLOCK, n)
    segments = np.empty((7, len(ends) * SCORE_BLOCK))
    segments[:3, :n] = starts = columns[:, :-1]
    dx, dy, dz = segments[3:6, :n] = columns[:, 1:] - starts
    segments[6, :n] = (dx * dx + dy * dy) + dz * dz
    segments[:, n:] = segments[:, n - 1 : n]
    segments = segments.reshape(7, len(ends), SCORE_BLOCK)
    centres = columns[:, (first + ends) // 2]
    with np.errstate(invalid="ignore", over="ignore"):
        radius = _dist3(*(segments[:3] - centres[:, :, None])).max(axis=1)
        radius = np.maximum(radius, _dist3(*(columns[:, ends] - centres)))
        scale = np.abs(columns).max()
    return segments, (*centres, radius, scale if scale <= _SCORE_COORD_LIMIT else math.inf)


def _point_to_polyline(points: np.ndarray, segments: tuple) -> np.ndarray:
    """Minimum distance from each row of (P, 3) `points` to a polyline given as its
    `_segments`, bit for bit what the per-segment formula gives over all segments.

    With D a point's distance to a block's centre and R the block's radius, D - R
    bounds its distance to the block from below and UB = min(D + R) over the blocks
    its distance to the polyline from above. A block is skipped iff
        D - R > UB + (1e-9 * (((D + R) + UB) + S) + 1e-150),  S the polyline's scale.
    The margin exceeds the rounding of the bounds and of the formula, which grows
    with the coordinates (S), not only the distances; 1e-150 covers subnormal
    squares. So a skipped segment scores above a kept one, and the kept minimum is
    the minimum. A NaN or infinite bound or S skips nothing: the formula gives NaN,
    which the minimum keeps, only there. The kept pairs run the formula elementwise
    and `np.minimum.reduceat` takes each point's minimum, a chunk of points at a time."""
    blocks, (cx, cy, cz, radius, scale) = segments
    out = np.empty(len(points))
    step = max(1, SCORE_CHUNK_PAIRS // blocks[0].size)
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step].T
        px, py, pz = chunk[:, :, None]
        with np.errstate(invalid="ignore", over="ignore"):
            d = _dist3(px - cx, py - cy, pz - cz)
            far = d + radius
            ub = far.min(axis=1, keepdims=True)
            skip = d - radius > ub + (1e-9 * ((far + ub) + scale) + 1e-150)
        pair_point, pair_block = np.nonzero(~skip)
        ax, ay, az, dx, dy, dz, dd = blocks[:, pair_block].reshape(7, -1)
        px, py, pz = np.repeat(chunk[:, pair_point], SCORE_BLOCK, axis=1)
        t = ((px - ax) * dx + (py - ay) * dy) + (pz - az) * dz
        t = np.clip(np.divide(t, dd, out=np.zeros_like(t), where=dd > 0.0), 0.0, 1.0)
        ex = px - (ax + t * dx)
        ey = py - (ay + t * dy)
        ez = pz - (az + t * dz)
        sq = (ex * ex + ey * ey) + ez * ez
        # the block with the least D + R is never skipped, so every point has a pair
        first_pair = np.searchsorted(pair_point, np.arange(len(d)))
        out[lo : lo + step] = np.sqrt(np.minimum.reduceat(sq, first_pair * SCORE_BLOCK))
    return out


def prediction_error(predicted_point: np.ndarray, true_trajectory: np.ndarray) -> float:
    """Distance from a predicted point to the polyline through an (N, 3) true trajectory,
    scored as `run_scenario` scores its predictions (see `_point_to_polyline`)."""
    vertices = np.asarray(true_trajectory, dtype=float)
    if len(vertices) == 0:
        raise ValueError("true_trajectory must be non-empty")
    point = np.asarray(predicted_point, dtype=float)
    if len(vertices) == 1:
        return norm3(point - vertices[0])
    return _point_to_polyline(point.reshape(1, 3), _segments(vertices)).item()


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
    # the argmin breaks ties between rows on the rounded distance, not on its square;
    # an overflowed distance is +inf (quiet under run_scenario's errstate), far from the old target
    d = row_distances(path.positions, sp.target_position)
    j = int(d.argmin())
    k = int(np.searchsorted(region.indices, j))
    return k >= len(region.indices) or int(region.indices[k]) != j


@np.errstate(over="ignore")
def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one scenario to termination; fully deterministic given cfg.

    Each camera frame with a detection asks the scenario's planning path
    (plane crossing, shortest/fastest, or cat & mouse) for one frame
    decision, (setpoint, predicted point, chosen index, shortest index);
    a frame without one holds the setpoint and predicts nothing. The
    frame's MetricsRecord holds the decision as it is.

    In planar2d the UAV is constrained to the configured vertical plane;
    every frame the predicted path's plane crossing becomes the (projected)
    setpoint, and the recorded prediction error is the distance between
    predicted and actual crossing points (filled in after the run, once the
    true trajectory is known). A ball whose true path cannot be integrated
    is a ConfigError, raised before the first tick.

    The run is under `np.errstate(over="ignore")`: a distance past the float
    range is a quiet +inf, which is not a hit and is far from a held target.
    """
    env, params, cam, limits = cfg.environment, cfg.projectile, cfg.camera, cfg.limits
    dt = cfg.physics_dt
    stop = PropagationStop(cfg.max_horizon, cfg.ground_height)
    predictive = cfg.method in (PlanMethod.SHORTEST_PATH, PlanMethod.FASTEST_PATH)
    planar = cfg.scenario_id is ScenarioId.PLANAR2D
    # cat & mouse holds its heading in A and B, and yaws to keep the ball in view elsewhere
    yaw_enabled = cfg.scenario_id not in (ScenarioId.A, ScenarioId.B)

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
    if planar:
        # the start need only lie within 1e-6 m of the plane (_validate_semantics)
        uav.position = project_to_plane(uav.position, *plane)
    queue = ObservationQueue(capacity=cfg.queue_capacity)
    sp = Setpoint(uav.position.copy(), 0.0)

    records: list[MetricsRecord] = []
    min_distance = norm3(uav.position - positions[0])
    last_obs_time: float | None = None
    reason = "max_time"

    # Control runs on the camera's frame ticks; between two of them the
    # vehicle flies one segment toward a fixed setpoint.
    frame_ticks, stamps = frame_schedule(cam.frame_rate, dt, n_ticks)
    last = len(positions) - 1  # a ballistic truth may end early, at its first sample below ground
    # ground_truth stops at its first sample below ground, so after the start
    # only its last sample can lie below it: the one tick that can end a run on the ground
    ground_tick = last if ballistic and positions[last, 2] < cfg.ground_height else None

    # every frame takes its slice of the run's point-cloud draws, whether or not it
    # detects the ball, so a frame's draws do not depend on what earlier frames did
    draws = frame_draws(cfg.seed, cam, len(frame_ticks))
    for k, stamp, k_next, (dirs, noise) in zip(frame_ticks, stamps, [*frame_ticks[1:], n_ticks], draws):
        t = k * dt
        obs = observe(positions[k], params, uav, cam, stamp, dirs, noise)
        decision = sp, None, None, None  # no detection: hold the setpoint, predict nothing
        if obs is not None:
            last_obs_time = t
            push_observation(queue, obs)
            if planar:
                decision = _plan_planar(cfg, queue, obs, uav, stop)
            elif predictive:
                decision = _plan_predictive(cfg, queue, obs, uav, sp, stop, t)
            else:
                decision = plan_cat_mouse(obs, uav, yaw_enabled, cfg.edge_threshold), None, None, None
        sp = decision[0]
        records.append(MetricsRecord(t, positions[k], uav.position.copy(), False, obs, *decision))

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
        diff = path - positions[k + 1 : k_next + 1]
        # each row's squared length, summed as dot3 sums; a separation past
        # ~1e154 m overflows its square to +inf, which is not a hit
        diff *= diff
        sq = np.add.reduce(diff, axis=1)
        # IEEE sqrt rounds correctly, hence is monotone: the sqrt of the least square is
        # the least distance, each bit for bit what norm3 gives
        seg_min = math.sqrt(float(np.minimum.reduce(sq)))
        # i * dt never decreases as i grows (an int64 and a Python int round
        # alike), so a segment with any tick past the ball-lost timeout has
        # its last tick past it
        lost = last_obs_time is not None and k_next * dt - last_obs_time > BALL_LOST_TIMEOUT
        landed = k_next == ground_tick
        if seg_min <= limits.intercept_radius or landed or lost:
            # the segment ends the run, at its first tick that hits, lands or loses the ball
            d = np.sqrt(sq)
            hit = d <= limits.intercept_radius
            flagged = hit.copy()
            flagged[-1] |= landed
            if lost:
                flagged |= np.arange(k + 1, k_next + 1) * dt - last_obs_time > BALL_LOST_TIMEOUT
            j = int(flagged.argmax())
            # the reduction is the ufunc that ndarray.min calls
            seg_min = float(np.minimum.reduce(d[: j + 1]))
            if seg_min < min_distance:
                min_distance = seg_min
            reason = "intercepted" if hit[j] else "ground_impact" if landed and j == len(d) - 1 else "ball_lost"
            i, uav_position = k + 1 + j, path[j]
            break
        if seg_min < min_distance:
            min_distance = seg_min
    else:
        # no segment ended the run, so the truth outlasts it (a truth that ends
        # early ends below ground): the UAV is where its last segment left it
        i, uav_position = n_ticks, uav.position

    t_end = i * dt
    intercepted = reason == "intercepted"
    records.append(
        MetricsRecord(
            time=t_end,
            ball_position=positions[i],
            uav_position=uav_position.copy(),
            intercepted=intercepted,
            observation=None,
            setpoint=sp,
        )
    )

    # Extend the true trajectory past termination (the arc the ball would
    # fly anyway) so predictions aimed beyond the interception instant are
    # scored against the real path, not a truncated one.
    end = _tail_end(truth, i, cfg.max_horizon, cfg.ground_height) if ballistic else i
    truth_arr = positions[: end + 1]
    if planar:
        _fill_planar_errors(cfg, records, PredictedPath(truth_arr, truth.times[: end + 1]))
    elif predictive:
        scored = [rec for rec in records if rec.predicted_point is not None]
        if scored:  # a prediction needs two frames, so two or more vertices
            points = np.array([rec.predicted_point for rec in scored])
            for rec, err in zip(scored, _point_to_polyline(points, _segments(truth_arr)).tolist()):
                rec.prediction_error = err

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
    """Shortest/fastest planning with cat & mouse fallback and setpoint hysteresis, as the
    frame decision (setpoint, predicted point, chosen index, shortest index); a fallback
    frame predicts nothing, so its last three fields are None."""
    path = _predict(cfg, queue, stop)
    region = None if path is None else reachable_region(path, now, uav, cfg.limits)
    if region is None or len(region) == 0:
        # empty region (or no predicted path): chase the detection so the
        # ball stays in frame for later re-prediction; its yaw is yaw_command's
        return plan_cat_mouse(obs, uav, True, cfg.edge_threshold), None, None, None

    shortest_idx = plan_shortest(region)
    chosen_idx = plan_fastest(region) if cfg.method is PlanMethod.FASTEST_PATH else shortest_idx
    predicted_point = path.positions[chosen_idx].copy()
    target, index = predicted_point, chosen_idx
    if sp.path_index is not None:
        moved = norm3(predicted_point - sp.target_position) > cfg.hysteresis_dist
        if not moved and not _old_target_left_region(sp, path, region):
            target, index = sp.target_position, sp.path_index
    # methods 2 & 3 always yaw to keep the object in view
    sp = Setpoint(target, yaw_command(obs, uav, cfg.edge_threshold), index)
    return sp, predicted_point, chosen_idx, shortest_idx


def _plan_planar(cfg, queue, obs, uav, stop):
    """Plane-crossing setpoint for the 2D experiment (falls back to projected chase), as
    the frame decision (setpoint, predicted crossing or None, None, None)."""
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
    )
    return sp, predicted_point, None, None


def _fill_planar_errors(cfg, records, truth_path):
    """Score predicted crossings against the true crossing of the ground-truth path."""
    true_crossing = plane_crossing(truth_path, cfg.plane_point, cfg.plane_normal)
    if true_crossing is None:
        return
    true_pos = true_crossing[0]
    for rec in records:
        if rec.predicted_point is not None:
            rec.prediction_error = norm3(rec.predicted_point - true_pos)


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
