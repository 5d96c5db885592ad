"""No schema-valid config produces a traceback.

Property over edits of the six bundled configs, up to the float range:
loading either raises ConfigError, or gives a config whose run raises
only the `ball:` ConfigError (a true path that cannot be integrated,
found before the first tick) or returns a result that ends for one of
the four termination reasons with every trace cell finite and a summary
that serialises as strict JSON (no NaN or Infinity). The edited fields
are the ball, projectile and environment, the two time settings, the
vehicle's limits, gains, height compensation and start, the camera
(frame rate, noise, both fields of view, range, mount pitch and points
per detection up to
`sensor.MAX_POINTS_PER_DETECTION`), and tilt coupling;
`physics_dt` >= 5e-4 s and `max_sim_time` <= 8 s keep every example at
most ~16k ticks long. A frame period that is an odd multiple of half a
step (400 Hz at the bundled 1 ms step, where two ticks tie for one frame)
is drawn on purpose: random floats almost never hit an exact tie.
"""

import json
import math
from importlib import resources

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from catchsim.harness import ConfigError, config_from_dict, run_scenario, summary_dict, trace_csv
from catchsim.sensor import MAX_NOISE_SIGMA, MAX_POINTS_PER_DETECTION

SCENARIOS = ["A", "B", "C", "D", "E", "planar2d"]
REASONS = {"intercepted", "ground_impact", "ball_lost", "max_time"}

# the bundled scale, or anywhere up to the float range
anywhere = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e308, 1e308))
positive = st.one_of(st.floats(1e-6, 10.0), st.floats(0.0, 1e308, exclude_min=True))
non_negative = st.one_of(st.just(0.0), positive)
FIELDS = {
    ("ball", "motion"): st.sampled_from(["frozen", "linear", "ballistic"]),
    ("ball", "position"): st.lists(anywhere, min_size=3, max_size=3),
    ("ball", "velocity"): st.lists(anywhere, min_size=3, max_size=3),
    ("projectile", "drag_mode"): st.sampled_from(["velocity_opposed", "none"]),
    ("projectile", "mass"): positive,
    ("projectile", "diameter"): positive,
    ("environment", "air_density"): positive,
    ("environment", "kinematic_viscosity"): positive,
    ("physics_dt",): st.one_of(st.floats(5e-4, 5e-3), st.floats(5e-4, 1e308)),
    ("max_sim_time",): st.floats(0.0, 8.0, exclude_min=True),
    ("uav", "limits", "max_speed"): positive,
    ("uav", "limits", "max_accel"): positive,
    ("uav", "limits", "max_yaw_rate"): positive,
    ("uav", "limits", "intercept_radius"): positive,
    ("uav", "gains", "kp"): positive,
    ("uav", "gains", "kd"): non_negative,
    ("uav", "height_comp_gain"): non_negative,
    ("uav", "start_elevation"): positive,
    ("camera", "frame_rate"): st.one_of(st.sampled_from([400.0, 2000.0 / 3.0]), positive),
    ("camera", "noise_sigma"): non_negative,
    ("camera", "horizontal_fov"): st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    ("camera", "vertical_fov"): st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    ("camera", "max_range"): positive,
    ("camera", "mount_pitch"): anywhere,
    # a draw near the bound costs ~10 ms per frame, so most stay at the bundled scale
    ("camera", "points_per_detection"): st.one_of(
        st.integers(1, 200), st.integers(1, MAX_POINTS_PER_DETECTION)
    ),
    ("planner", "tilt_coupling"): st.booleans(),
}


def bundled_raw(sid):
    return json.loads(resources.files("catchsim.scenarios").joinpath(f"{sid}.json").read_text())


def at_400_hz(sid):
    raw = bundled_raw(sid)
    raw.setdefault("camera", {})["frame_rate"] = 400.0
    return raw


def noisiest(sid):
    raw = bundled_raw(sid)
    raw.setdefault("camera", {})["noise_sigma"] = MAX_NOISE_SIGMA
    return raw


@st.composite
def edited_raw(draw):
    raw = bundled_raw(draw(st.sampled_from(SCENARIOS)))
    for path in draw(st.lists(st.sampled_from(sorted(FIELDS)), min_size=1, max_size=4, unique=True)):
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = draw(FIELDS[path])
    return raw


@pytest.mark.filterwarnings("ignore:overflow encountered")  # distances between points near the float range
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=edited_raw())
@example(raw=at_400_hz("C"))
@example(raw=at_400_hz("D"))
@example(raw={**bundled_raw("A"), "max_sim_time": 10**400})  # a JSON integer too long for a float
@example(raw=noisiest("D"))
@example(raw=noisiest("planar2d"))
def test_valid_config_loads_and_runs_or_is_a_config_error(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    try:
        result = run_scenario(cfg)
    except ConfigError as exc:
        assert str(exc).startswith("ball: "), exc
        return
    assert result.termination_reason in REASONS
    json.dumps(summary_dict(result), allow_nan=False)
    for row in trace_csv(result).splitlines()[1:]:
        assert all(math.isfinite(float(cell)) for cell in row.split(",") if cell), row
