"""Fixtures shared by the tests: the schema, its leaves and the camera's two
upper bounds it declares; the bundled configs, and one Hypothesis strategy
of edits to them built from the schema, with a bound on what a run of one
costs; the per-tick frame rule shared by the frame-schedule and segment
tests; the drag model's inputs, drawn for the properties that pin the
truth's and the predictor's inline drag to its reference; and bundled D and
E over noise seeds 1-50, run once per session."""

import json
import math
import sys
from importlib import resources

import pytest
from hypothesis import strategies as st

from catchsim.harness import _BOUNDS, config_from_dict, run_scenario
from catchsim.physics import _SPEED_FLOOR, DragMode, Environment, ProjectileParams
from catchsim.sensor import frame_schedule

_SCENARIO_FILES = resources.files("catchsim.scenarios")
SCHEMA = json.loads(_SCENARIO_FILES.joinpath("schema.json").read_text())
SCENARIOS = SCHEMA["fields"]["scenario_id"]["enum"]


def _leaves(node: dict, path: tuple[str, ...] = ()):
    for key, sub in node["fields"].items():
        if sub["type"] == "object":
            yield from _leaves(sub, path + (key,))
        else:
            yield path + (key,), sub


# every schema leaf: its path in a config, e.g. ("uav", "limits", "max_speed"), and its node
LEAVES = dict(_leaves(SCHEMA))
MAX_NOISE_SIGMA = LEAVES["camera", "noise_sigma"]["max"]  # the most noise a config may load
MAX_POINTS_PER_DETECTION = LEAVES["camera", "points_per_detection"]["max"]


def bundled_raw(sid: str) -> dict:
    """A fresh copy of a bundled config's JSON."""
    return json.loads(_SCENARIO_FILES.joinpath(f"{sid}.json").read_text())


_FLOAT_MAX = sys.float_info.max


def _number(node: dict):
    """A number or integer leaf's values, at three scales: within ten times
    its default (within 10 where that is 0 or absent); at and beside each
    declared bound; and log-spread in magnitude from its upper bound, or the
    float range, down through every decade to 0. A leaf with no lower bound
    of 0 or more draws both signs."""
    top = node.get("max", node.get("max_exclusive", _FLOAT_MAX))
    scale = 10.0 * (abs(node.get("default", 0)) or 1)
    magnitudes = st.one_of(
        st.floats(0.0, min(scale, top)),
        st.floats(0.0, math.log10(top) + 324.0).map(lambda d: top * 10.0**-d),
    )
    if node["type"] == "integer":
        magnitudes = magnitudes.map(int)
    lower = node.get("min", node.get("min_exclusive"))
    if lower is None or lower < 0:
        magnitudes = st.builds(lambda sign, m: sign * m, st.sampled_from((-1, 1)), magnitudes)
    bounds = [node[key] for key, _, _ in _BOUNDS if key in node]
    if node["type"] == "integer":
        edges = {b + step for b in bounds for step in (-1, 0, 1)}
    else:
        edges = {x for b in bounds for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))}
    return st.one_of(magnitudes, st.sampled_from(sorted(edges))) if edges else magnitudes


def _leaf_values(node: dict):
    """Values for one schema leaf, from its type, enum and bounds: each vec3
    component is an unbounded number; the edge values beside a bound, and
    log-spread draws, often lie past it, so loading rejects them."""
    if "enum" in node:
        return st.sampled_from(node["enum"])
    if node["type"] == "boolean":
        return st.booleans()
    if node["type"] == "vec3":
        return st.lists(_number({"type": "number"}), min_size=3, max_size=3)
    return _number(node)


EDITABLE = sorted(path for path in LEAVES if path != ("scenario_id",))
_EDITS = {path: _leaf_values(LEAVES[path]) for path in EDITABLE}


def _set(raw: dict, path: tuple[str, ...], value):
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value


def edited(sid: str, **fields) -> dict:
    """A bundled config's JSON with some leaves set, each named by its path
    joined with "__", e.g. uav__limits__max_speed=4.0."""
    raw = bundled_raw(sid)
    for dotted, value in fields.items():
        _set(raw, tuple(dotted.split("__")), value)
    return raw


@st.composite
def edited_raw(draw):
    """A bundled config's JSON with 1-4 of its leaves other than scenario_id
    set to values drawn from the schema."""
    raw = bundled_raw(draw(st.sampled_from(SCENARIOS)))
    for path in draw(st.lists(st.sampled_from(EDITABLE), min_size=1, max_size=4, unique=True)):
        _set(raw, path, draw(_EDITS[path]))
    return raw


MAX_RUN_COST = 2_000_000  # the costliest run a property makes: about 0.6 s on a 2-core Xeon


def run_cost(cfg) -> int:
    """A bound on a run's cost, in sampled ball points: each camera frame
    samples at most `points_per_detection` of them, and its other work costs
    about as much as 100 more (on a 2-core Xeon, a point about 0.3 us and the
    rest of a frame 20-100 us)."""
    n_ticks = int(round(cfg.max_sim_time / cfg.physics_dt))
    frames, _ = frame_schedule(cfg.camera.frame_rate, cfg.physics_dt, n_ticks)
    return len(frames) * (cfg.camera.points_per_detection + 100)


def carries_frame(k: int, dt: float, frame_rate: float) -> bool:
    """Tick k, alone, against the frame rule: it lies within half a step of
    its nearest frame, or it and tick k + 1 straddle that frame and both lie
    a rounding error past half a step (a tie). The first tick of a frame
    number that carries it is the frame's tick."""
    t, u = k * dt, (k + 1) * dt
    frame = round(t * frame_rate)
    stamp = frame / frame_rate
    if abs(t - stamp) <= 0.5 * dt:
        return True
    return round(u * frame_rate) == frame and t < stamp < u and abs(u - stamp) > 0.5 * dt


# A ball (mass, diameter, area or None for pi D^2 / 4, drag mode) and an air
# (g from 0, rho, nu) for the drag model's bit-for-bit properties
balls = st.builds(
    ProjectileParams,
    st.floats(1e-6, 10.0),
    st.floats(1e-4, 1.0),
    st.one_of(st.none(), st.floats(1e-8, 1.0)),
    st.sampled_from(DragMode),
)
airs = st.builds(Environment, st.floats(0.0, 20.0), st.floats(1e-3, 100.0), st.floats(1e-7, 1e-2))
# one velocity component: ordinary speeds, at and below the rest floor, both
# signed zeros, and magnitudes whose speed or Re leaves the float range
velocity_component = st.one_of(
    st.floats(-60.0, 60.0),
    st.floats(-_SPEED_FLOOR, _SPEED_FLOOR),
    st.just(0.0),
    st.just(-0.0),
    st.floats(-1e300, 1e300),
)


@pytest.fixture(scope="session")
def thrown_seed_sweep():
    """Bundled D and E over noise seeds 1-50 (criterion 6's sweep), run once
    per session: {(scenario id, seed): ScenarioResult}."""
    results = {}
    for sid in ("D", "E"):
        raw = bundled_raw(sid)
        for seed in range(1, 51):
            raw["seed"] = seed
            results[sid, seed] = run_scenario(config_from_dict(raw))
    return results


@pytest.fixture
def unreadable_config():
    """Make a config path that cannot be read or decoded: a JSON integer past
    Python's 4300-digit int-string limit, bytes that are not UTF-8, or a directory."""

    def make(directory, kind):
        path = directory / f"{kind}.json"
        if kind == "long_integer":
            path.write_text('{"scenario_id": "A", "seed": ' + "9" * 5000 + "}")
        elif kind == "not_utf8":
            path.write_bytes(b'{"scenario_id": "A\xff"}')
        else:
            path.mkdir()
        return path

    return make
