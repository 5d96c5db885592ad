"""The engine's per-frame segments against a per-tick reference loop.

`run_scenario` flies the vehicle one frame segment at a time and checks
termination over the whole segment at once. `per_tick` replays a run the
way the engine once stepped it: every tick it applies the frame gate (the
first tick of a new frame that `carries_frame`), one
`step_uav` call (plus the planar projection) toward the setpoint recorded
at the latest frame, and the three termination checks. Planning is not
redone; the recorded setpoints are replayed. The run must agree with the
replay bit for bit: frame ticks, the UAV position at every frame, the
reason, the last tick, `min_distance` and the final UAV position.
"""

import json
from importlib import resources

import numpy as np
import pytest

from catchsim.harness import BALL_LOST_TIMEOUT, BallMotion, ScenarioId, config_from_dict, run_scenario
from catchsim.physics import ground_truth
from catchsim.sensor import frame_schedule
from catchsim.vehicle import UavState, hover_init, step_uav
from conftest import carries_frame


def bundled_raw(sid: str) -> dict:
    return json.loads(resources.files("catchsim.scenarios").joinpath(f"{sid}.json").read_text())


def per_tick(cfg, result) -> dict:
    dt, fr = cfg.physics_dt, cfg.camera.frame_rate
    n_ticks = int(round(cfg.max_sim_time / dt))
    truth = ground_truth(
        cfg.ball_motion, cfg.ball_position, cfg.ball_velocity, cfg.projectile, cfg.environment, dt,
        cfg.ground_height, n_ticks, cfg.max_horizon,
    ).positions
    ballistic = cfg.ball_motion is BallMotion.BALLISTIC
    frames = iter(result.records[:-1])
    uav = hover_init(cfg.start_elevation)
    distances = [float(np.linalg.norm(uav.position - truth[0]))]
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
        if cfg.scenario_id is ScenarioId.PLANAR2D:
            p0, n_hat = cfg.plane_point, cfg.plane_normal
            pos = uav.position - float((uav.position - p0) @ n_hat) * n_hat
            vel = uav.velocity - float(uav.velocity @ n_hat) * n_hat
            uav = UavState(pos, vel, uav.yaw, uav.pitch, uav.time)
        i = k + 1
        d = float(np.linalg.norm(uav.position - truth[i]))
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


def edited(sid: str, **fields) -> dict:
    raw = bundled_raw(sid)
    for dotted, value in fields.items():
        node = raw
        *parents, leaf = dotted.split("__")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return raw


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
