"""The engine's per-frame segments against a per-tick reference loop.

`run_scenario` flies the vehicle one frame segment at a time and checks
termination once per segment, from its least distance, its last tick and
the ball-lost deadline; only a segment that ends the run is checked tick
by tick. `per_tick` replays a run the way the engine once stepped it:
every tick it applies the frame gate (the first tick of a new frame that
`carries_frame`), one `step_uav` call (plus the planar projection, which
the start gets too) toward the setpoint recorded at the latest frame, and
the three termination checks. Its distances and projections take each dot
product as the float sum (x*x' + y*y') + z*z', written out in `dot`. Planning
is not redone; the recorded setpoints are replayed. The run must agree with the replay bit for bit: frame ticks,
the UAV position at every frame, the reason, the last tick,
`min_distance` and the final UAV position. Besides the fixed configs
below, a property replays the schema strategy's edits
(`conftest.edited_raw`), each run cut to `MAX_REPLAY_TICKS` ticks.

The bundled planar2d plane has the normal (1, 0, 0), which makes every
projection dot product exact, so the tilted planes below are the runs
that can see how the engine rounds its projection.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings

from catchsim.harness import (
    BALL_LOST_TIMEOUT, BallMotion, ConfigError, ScenarioId, config_from_dict, run_scenario, summary_dict,
    trace_csv,
)
from catchsim.physics import ground_truth
from catchsim.sensor import frame_schedule
from catchsim.vehicle import UavState, hover_init, step_uav
from conftest import MAX_RUN_COST, bundled_raw, carries_frame, edited, edited_raw, run_cost


def truth_of(cfg) -> np.ndarray:
    n_ticks = int(round(cfg.max_sim_time / cfg.physics_dt))
    return ground_truth(
        cfg.ball_motion, cfg.ball_position, cfg.ball_velocity, cfg.projectile, cfg.environment,
        cfg.physics_dt, cfg.ground_height, n_ticks, cfg.max_horizon,
    ).positions


def dot(a: np.ndarray, b: np.ndarray) -> float:
    ax, ay, az = a.tolist()
    bx, by, bz = b.tolist()
    return (ax * bx + ay * by) + az * bz


def distance(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(dot(a - b, a - b))


def per_tick(cfg, result) -> dict:
    dt, fr = cfg.physics_dt, cfg.camera.frame_rate
    n_ticks = int(round(cfg.max_sim_time / dt))
    truth = truth_of(cfg)
    ballistic = cfg.ball_motion is BallMotion.BALLISTIC
    frames = iter(result.records[:-1])
    planar = cfg.scenario_id is ScenarioId.PLANAR2D
    p0, n_hat = cfg.plane_point, cfg.plane_normal
    uav = hover_init(cfg.start_elevation)
    if planar:  # the start, too, is projected
        uav.position = uav.position - dot(uav.position - p0, n_hat) * n_hat
    distances = [distance(uav.position, truth[0])]
    frame_ticks = []
    last_obs_time = None
    reason, i, frame = "max_time", 0, None
    for k in range(n_ticks):
        t = k * dt
        if round(t * fr) != frame and carries_frame(k, dt, fr):
            frame = round(t * fr)
            rec = next(frames)
            assert rec.time == t
            assert rec.uav_position.tobytes() == uav.position.tobytes()
            frame_ticks.append(k)
            sp = rec.setpoint
            if rec.observation is not None:
                assert rec.observation.timestamp == frame / fr
                last_obs_time = t
        uav = step_uav(
            uav, sp, cfg.limits, dt, cfg.tilt_coupling, cfg.kp, cfg.kd,
            cfg.environment.gravity_g, cfg.height_comp_gain,
        )
        if planar:
            pos = uav.position - dot(uav.position - p0, n_hat) * n_hat
            vel = uav.velocity - dot(uav.velocity, n_hat) * n_hat
            uav = UavState(pos, vel, uav.yaw, uav.pitch)
        i = k + 1
        d = distance(uav.position, truth[i])
        distances.append(d)
        if d <= cfg.limits.intercept_radius:
            reason = "intercepted"
            break
        if ballistic and truth[i, 2] < cfg.ground_height:
            reason = "ground_impact"
            break
        if last_obs_time is not None and i * dt - last_obs_time > BALL_LOST_TIMEOUT:
            reason = "ball_lost"
            break
    assert next(frames, None) is None, "a record at a tick that is not a frame"
    return {
        "reason": reason,
        "last_tick": i,
        "min_distance": min(distances),
        "uav_position": uav.position,
        "frame_ticks": frame_ticks,
        "distances": distances,
    }


def run_and_replay(raw: dict):
    cfg = config_from_dict(raw)
    result = run_scenario(cfg)
    ref = per_tick(cfg, result)
    final = result.records[-1]
    assert result.termination_reason == ref["reason"]
    assert final.time == ref["last_tick"] * cfg.physics_dt
    assert result.min_distance == ref["min_distance"]
    assert final.uav_position.tobytes() == ref["uav_position"].tobytes()
    assert result.intercepted == (ref["reason"] == "intercepted")
    return cfg, result, ref


# planar2d on tilted planes through the bundled plane point (0, 0, 2); every run intercepts
TILTED = [
    (normal, seed)
    for normal in ((0.8, 0.6, 0.0), (0.6, -0.8, 0.0), (0.48, 0.64, 0.6), (0.6, 0.0, 0.8))
    for seed in (1, 2, 3)
]
TILTED_SHA256 = "3639feb74201b04ec8f7dc745487c93f07deb2fd0609c88560d446e03a014ccc"


def tilted(normal, seed: int) -> dict:
    return edited("planar2d", plane__normal=list(normal), seed=seed)


def segment_position(cfg, tick: int) -> str:
    """Where `tick` falls in its frame segment (the ticks after a frame tick,
    up to and including the next frame tick or the run's last tick)."""
    n_ticks = int(round(cfg.max_sim_time / cfg.physics_dt))
    ticks, _ = frame_schedule(cfg.camera.frame_rate, cfg.physics_dt, n_ticks)
    start = max(k for k in ticks if k < tick)
    end = min([k for k in ticks if k >= tick] + [n_ticks])
    return "first" if tick == start + 1 else "last" if tick == end else "middle"


@pytest.mark.parametrize("sid", ["A", "B", "C", "D", "E", "planar2d"])
def test_bundled_runs_match_the_per_tick_loop(sid):
    run_and_replay(bundled_raw(sid))


@pytest.mark.parametrize("normal, seed", TILTED, ids=[f"{'_'.join(map(str, n))}-seed{s}" for n, s in TILTED])
def test_tilted_planes_match_the_per_tick_loop(normal, seed):
    _, result, _ = run_and_replay(tilted(normal, seed))
    assert result.intercepted


def test_tilted_plane_outputs_are_byte_identical():
    # one sha256 over the traces and summaries, as tests/test_golden.py pins the bundled runs
    h = hashlib.sha256()
    for normal, seed in TILTED:
        result = run_scenario(config_from_dict(tilted(normal, seed)))
        h.update((trace_csv(result) + json.dumps(summary_dict(result), indent=2, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == TILTED_SHA256


def test_intercept_on_the_last_tick_before_a_frame():
    # the radius that the UAV first reaches exactly at a frame tick, so the
    # check that ends the run is the last one of a segment
    _, _, ref = run_and_replay(edited("A", uav__limits__intercept_radius=1e-9))
    d = ref["distances"]
    frame = next(f for f in ref["frame_ticks"][1:] if min(d[:f]) > d[f])
    _, result, ref = run_and_replay(edited("A", uav__limits__intercept_radius=d[frame]))
    assert result.termination_reason == "intercepted"
    assert ref["last_tick"] == frame
    assert result.min_distance == d[frame]


def test_intercept_wins_over_ground_impact_on_the_same_tick():
    # the ball drops from the UAV's own position through a ground at that height
    raw = edited("A", ball__position=[0.0, 0.0, 2.0], ball__motion="ballistic", prediction__ground_height=2.0)
    _, result, ref = run_and_replay(raw)
    assert result.termination_reason == "intercepted"
    assert ref["last_tick"] == 1


def test_ground_impact_inside_the_first_segment():
    raw = edited("A", ball__position=[4.0, 0.0, 0.05], ball__velocity=[0.0, 0.0, -3.0], ball__motion="ballistic")
    _, result, ref = run_and_replay(raw)
    assert result.termination_reason == "ground_impact"
    assert ref["frame_ticks"] == [0]
    assert 1 < ref["last_tick"] < 33


def test_ground_impact_on_the_last_tick_of_a_segment():
    # a ball dropped from rest, with the ground between its heights at a frame
    # tick and the tick before: it lands on the last tick of a segment
    cfg = config_from_dict(edited("A", ball__motion="ballistic", prediction__ground_height=-100.0))
    z = truth_of(cfg)[:, 2]
    frame = 333  # the tenth frame after tick 0 at 30 Hz and 1 ms
    raw = edited("A", ball__motion="ballistic", prediction__ground_height=(z[frame - 1] + z[frame]) / 2)
    cfg, result, ref = run_and_replay(raw)
    assert result.termination_reason == "ground_impact"
    assert ref["last_tick"] == frame
    assert segment_position(cfg, frame) == "last"


def test_ball_that_starts_below_ground():
    # the start sample is never checked: the run ends on tick 1, still below ground
    raw = edited("A", ball__motion="ballistic", ball__position=[4.0, 0.0, -0.5])
    _, result, ref = run_and_replay(raw)
    assert result.termination_reason == "ground_impact"
    assert ref["last_tick"] == 1


def test_thrown_ball_that_never_lands():
    # without gravity the ball flies level: its truth outlasts the run with no
    # sample below ground, and the run ends at max_sim_time
    raw = edited(
        "A", ball__motion="ballistic", ball__velocity=[0.0, 1.0, 0.0], max_sim_time=1.0,
        environment__gravity=0.0, planner__tilt_coupling=False,
    )
    cfg, result, ref = run_and_replay(raw)
    truth = truth_of(cfg)
    assert len(truth) > ref["last_tick"] + 1 and truth[-1, 2] >= cfg.ground_height
    assert result.termination_reason == "max_time"
    assert ref["last_tick"] == 1000


def test_ball_lost_deadline_mid_segment():
    # at 12.5 Hz the 1 s timeout is not a whole number of frame periods
    cfg, result, ref = run_and_replay(edited("B", camera__frame_rate=12.5))
    assert result.termination_reason == "ball_lost"
    assert segment_position(cfg, ref["last_tick"]) == "middle"


@pytest.mark.parametrize(
    "fields, where",
    [
        ({"camera__frame_rate": 10.0}, "first"),
        ({"camera__frame_rate": 20.0}, "last"),
        ({"camera__frame_rate": 12.5, "max_sim_time": 2.441}, "last"),  # the run's last tick
    ],
    ids=["first", "last", "last_of_run"],
)
def test_ball_lost_on_the_edge_ticks_of_a_segment(fields, where):
    # the engine builds the per-tick ball-lost test only for a segment whose
    # last tick is past the timeout; the deadline must still land on the
    # same tick as in the per-tick loop at either end of a segment (the
    # middle is test_ball_lost_deadline_mid_segment)
    cfg, result, ref = run_and_replay(edited("B", **fields))
    assert result.termination_reason == "ball_lost"
    assert segment_position(cfg, ref["last_tick"]) == where


def test_max_sim_time_shorter_than_one_frame_period():
    _, result, ref = run_and_replay(edited("A", max_sim_time=0.02))
    assert result.termination_reason == "max_time"
    assert ref["frame_ticks"] == [0] and ref["last_tick"] == 20
    assert len(result.records) == 2


@pytest.mark.parametrize("sid", ["B", "D", "planar2d"])
def test_physics_dt_that_does_not_divide_the_frame_period(sid):
    _, _, ref = run_and_replay(edited(sid, physics_dt=0.0007))
    periods = np.diff(ref["frame_ticks"])
    assert len(set(periods.tolist())) > 1  # frames fall on unevenly spaced ticks


@pytest.mark.parametrize("sid", ["C", "D"])
def test_frame_period_an_odd_multiple_of_half_a_step(sid):
    # at 400 Hz and a 1 ms step, ticks 2 and 3 are both half a step from the
    # 2.5 ms frame; at 12.5 ms rounding leaves both a hair past half a step,
    # and the first, tick 12, still carries the frame: none is skipped
    _, result, ref = run_and_replay(edited(sid, camera__frame_rate=400.0))
    assert ref["frame_ticks"][:8] == [0, 2, 5, 7, 10, 12, 15, 17]
    assert [round(rec.time * 400.0) for rec in result.records[:-1]] == list(range(len(ref["frame_ticks"])))
    stamps = [rec.observation.timestamp for rec in result.records if rec.observation is not None]
    assert len(stamps) > 2 and all(b > a for a, b in zip(stamps, stamps[1:]))


MAX_REPLAY_TICKS = 2000  # the per-tick loop takes about 10 us a tick


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=edited_raw())
@example(raw=edited("D", camera__frame_rate=400.0))  # two ticks tie for each odd frame
# the UAV holds still at the start, exactly 5 m from a ball it cannot see: a hit on tick 1
@example(raw=edited("A", ball__position=[0.0, 0.0, 7.0], uav__limits__intercept_radius=5.0))
@example(raw=edited("A", ball__motion="ballistic", ball__position=[4.0, 0.0, -0.5]))  # starts below ground
# lands inside the first segment, on neither of its edge ticks
@example(raw=edited("A", ball__motion="ballistic", ball__position=[4.0, 0.0, 0.05], ball__velocity=[0.0, 0.0, -3.0]))
def test_edited_configs_match_the_per_tick_loop(raw):
    # the schema strategy's edits, each run cut to MAX_REPLAY_TICKS ticks
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    raw["max_sim_time"] = min(cfg.max_sim_time, MAX_REPLAY_TICKS * cfg.physics_dt)
    assume(run_cost(config_from_dict(raw)) <= MAX_RUN_COST)
    try:
        run_and_replay(raw)
    except ConfigError as exc:
        assert str(exc).startswith("ball: "), exc
