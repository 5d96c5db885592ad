"""No schema-valid config produces a traceback, and every run keeps the loop's invariants.

Property over edits of the six bundled configs, drawn from the schema
(`conftest.edited_raw`: 1-4 of the leaves other than scenario_id):
loading either raises ConfigError, or gives a config whose run raises
only the `ball:` ConfigError (a true path that cannot be integrated,
found before the first tick) or returns a result that ends for one of
the four termination reasons with every trace cell finite, a summary
that serialises as strict JSON (no NaN or Infinity), and the invariants
in `check_invariants`. A config whose run would cost more than
`MAX_RUN_COST` sampled points (`conftest.run_cost`) is not run. A frame
period that is an odd multiple of half a step (400 Hz and 2000/3 Hz at
the bundled 1 ms step, where two ticks tie for one frame) is an example
on purpose: random floats almost never hit an exact tie.
"""

import json
import math

from hypothesis import HealthCheck, assume, example, given, settings

from catchsim.harness import ConfigError, config_from_dict, run_scenario, summary_dict, trace_csv
from catchsim.physics import dot3, norm3
from catchsim.planner import PlanMethod
from conftest import MAX_NOISE_SIGMA, MAX_RUN_COST, bundled_raw, edited, edited_raw, run_cost

REASONS = {"intercepted", "ground_impact", "ball_lost", "max_time"}


def check_invariants(cfg, result):
    """The loop's invariants over a run's records: times never decrease; the UAV
    moves at most max_speed per unit time, to a relative 1e-9 and the rounding
    of its position; min_distance is at most every recorded
    UAV-ball distance, and at most the intercept radius if the ball was caught;
    fastest_path never chooses a later path index than shortest_path; and a
    planar2d UAV lies on its plane."""
    records = result.records
    for a, b in zip(records, records[1:]):
        assert a.time <= b.time
        step = norm3(b.uav_position - a.uav_position)
        # each tick also rounds the position to floats, by less than 2 ulps of its norm:
        # far more than 1e-9 of a step much shorter than the position's ulp
        ticks = round((b.time - a.time) / cfg.physics_dt)
        rounding = 2 * ticks * math.ulp(max(norm3(a.uav_position), norm3(b.uav_position)) + step)
        assert step <= cfg.limits.max_speed * (b.time - a.time) * (1 + 1e-9) + rounding, (a.time, b.time, step)
    for rec in records:
        assert result.min_distance <= norm3(rec.uav_position - rec.ball_position), rec.time
    if result.intercepted:
        assert result.min_distance <= cfg.limits.intercept_radius
    if cfg.method is PlanMethod.FASTEST_PATH:
        for rec in records:
            if rec.chosen_index is not None and rec.shortest_index is not None:
                assert rec.chosen_index <= rec.shortest_index, rec.time
    if cfg.plane_normal is not None:
        p0, n_hat = cfg.plane_point, cfg.plane_normal
        for rec in records:
            p = rec.uav_position
            assert abs(dot3(p - p0, n_hat)) <= 1e-9 * (norm3(p) + norm3(p0)), rec.time


def linear_ball(sid, position, velocity):
    return {**bundled_raw(sid), "ball": {"position": position, "velocity": velocity, "motion": "linear"}}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=edited_raw())
@example(raw=edited("C", camera__frame_rate=400.0))
@example(raw=edited("D", camera__frame_rate=400.0))
@example(raw=edited("E", camera__frame_rate=2000.0 / 3.0))
@example(raw={**bundled_raw("A"), "max_sim_time": 10**400})  # a JSON integer too long for a float
@example(raw=edited("D", camera__noise_sigma=MAX_NOISE_SIGMA))
@example(raw=edited("planar2d", camera__noise_sigma=MAX_NOISE_SIGMA))
# the widest detections a config may load: the largest radius and noise
@example(raw=edited("A", projectile__diameter=2 * MAX_NOISE_SIGMA, projectile__reference_area=1.0,
                    camera__noise_sigma=MAX_NOISE_SIGMA))
# the UAV's start lies 5e-7 m off the plane, which loads
@example(raw=edited("planar2d", plane__point=[5e-7, 0.0, 2.0]))
# signed distances to the plane whose products overflow
@example(raw=edited("planar2d", camera__noise_sigma=1e60))
# four 32-bit words of SeedSequence entropy, where a bundled seed gives one
@example(raw=edited("D", seed=2**96 + 5))
@example(raw=linear_ball("B", [4.0, 1.8, 2.0], [0.0, 0.0, 1.3e154]))  # the UAV-ball distance overflows
@example(raw=linear_ball("A", [4.0, 0.0, 2.0], [0.0, 0.0, 3e307]))  # the true path overflows
def test_valid_config_loads_and_runs_or_is_a_config_error(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    assume(run_cost(cfg) <= MAX_RUN_COST)
    try:
        result = run_scenario(cfg)
    except ConfigError as exc:
        assert str(exc).startswith("ball: "), exc
        return
    assert result.termination_reason in REASONS
    json.dumps(summary_dict(result), allow_nan=False)
    for row in trace_csv(result).splitlines()[1:]:
        assert all(math.isfinite(float(cell)) for cell in row.split(",") if cell), row
    check_invariants(cfg, result)
