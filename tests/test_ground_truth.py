"""The precomputed ground truth: bit-equal to per-step integration, cached, read-only."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchsim import physics
from catchsim.harness import bundled_config, run_scenario, summary_dict, trace_csv
from catchsim.physics import (
    TRUTH_CACHE_SIZE,
    BallMotion,
    BallState,
    DragMode,
    Environment,
    ProjectileParams,
    ground_truth,
    step_ground_truth,
)


@pytest.fixture(autouse=True)
def cold_cache():
    physics._truth_cache.clear()
    yield
    physics._truth_cache.clear()


def same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def truth_args(cfg):
    n_ticks = int(round(cfg.max_sim_time / cfg.physics_dt))
    return (
        cfg.ball_motion, cfg.ball_position, cfg.ball_velocity, cfg.projectile, cfg.environment,
        cfg.physics_dt, cfg.ground_height, n_ticks, cfg.max_horizon,
    )


def assert_matches_stepping(truth, p0, v0, params, env, dt, ground_height, last):
    """Every sample equals repeated step_ground_truth, and the path stops where it should."""
    states = [BallState(np.array(p0, dtype=float), np.array(v0, dtype=float), 0.0)]
    for _ in range(len(truth.times) - 1):
        states.append(step_ground_truth(states[-1], params, env, dt))
    assert same_bits(truth.positions, [s.position for s in states])
    assert same_bits(truth.velocities, [s.velocity for s in states])
    assert same_bits(truth.times, [s.time for s in states])
    z = truth.positions[1:, 2]
    assert not (z[:-1] < ground_height).any()
    assert z[-1] < ground_height or len(truth.times) == last + 1


@pytest.mark.parametrize("sid", ["D", "E", "planar2d"])
def test_bundled_throws_match_stepping(sid):
    cfg = bundled_config(sid)
    args = truth_args(cfg)
    truth = ground_truth(*args)
    assert len(truth.times) > 100
    last = args[7] + math.ceil(cfg.max_horizon / cfg.physics_dt) + 1
    assert_matches_stepping(
        truth, cfg.ball_position, cfg.ball_velocity, cfg.projectile, cfg.environment,
        cfg.physics_dt, cfg.ground_height, last,
    )


@settings(max_examples=25, deadline=None)
@given(
    p0=st.tuples(*[st.floats(-5.0, 5.0)] * 2, st.floats(0.0, 4.0)),
    v0=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
    dt=st.floats(2e-4, 5e-3),
    n_ticks=st.integers(0, 150),
    tail=st.floats(0.0, 0.2),
    drag_mode=st.sampled_from([DragMode.VELOCITY_OPPOSED, DragMode.NONE]),
)
def test_random_throws_match_stepping(p0, v0, dt, n_ticks, tail, drag_mode):
    params, env = ProjectileParams(drag_mode=drag_mode), Environment()
    truth = ground_truth(BallMotion.BALLISTIC, p0, v0, params, env, dt, 0.0, n_ticks, tail)
    last = n_ticks + math.ceil(tail / dt) + 1
    assert_matches_stepping(truth, p0, v0, params, env, dt, 0.0, last)


@pytest.mark.parametrize("motion", [BallMotion.LINEAR, BallMotion.FROZEN])
def test_linear_and_frozen_match_per_tick_formulas(motion):
    p0, v0, dt = np.array([4.0, 1.8, 2.0]), np.array([0.3, -1.6, 0.0]), 0.001
    truth = ground_truth(motion, p0, v0, ProjectileParams(), Environment(), dt, 0.0, 500, 3.0)
    position, time = p0, 0.0
    positions, times = [position], [time]
    for _ in range(500):
        if motion is BallMotion.LINEAR:
            position = position + v0 * dt
        time = time + dt
        positions.append(position)
        times.append(time)
    assert same_bits(truth.positions, positions)
    assert same_bits(truth.times, times)
    assert same_bits(truth.velocities, [v0] * 501)


@pytest.mark.parametrize("motion", list(BallMotion))
def test_a_path_that_never_lands_has_truth_length_samples(motion):
    # no gravity, level flight: nothing ends a ballistic path before its full length
    env, params = Environment(gravity_g=0.0), ProjectileParams(drag_mode=DragMode.NONE)
    truth = ground_truth(motion, (0.0, 0.0, 2.0), (1.0, 0.0, 0.0), params, env, 0.001, 0.0, 50, 0.0123)
    assert len(truth.positions) == physics.truth_length(motion, 0.001, 50, 0.0123)
    assert len(truth.positions) == (65 if motion is BallMotion.BALLISTIC else 51)


def test_failed_step_raises_what_stepping_raises():
    # drag this strong puts k * dt past RK4's stability limit: the speed grows
    # each step until Re overflows in the fourth step
    params, env = ProjectileParams(), Environment()
    p0, v0 = (4.0, 0.0, 2.0), (4e4, 0.0, 0.0)
    s = BallState(np.array(p0), np.array(v0))
    for _ in range(3):
        s = step_ground_truth(s, params, env, 0.001)
    with pytest.raises(ValueError) as stepped:
        step_ground_truth(s, params, env, 0.001)
    with pytest.raises(ValueError) as integrated:
        ground_truth(BallMotion.BALLISTIC, p0, v0, params, env, 0.001, 0.0, 6000, 3.0)
    assert type(integrated.value) is type(stepped.value)
    assert str(integrated.value) == str(stepped.value)
    assert len(physics._truth_cache) == 0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_linear_overflow_raises_the_ballstate_error():
    # 1.5e308 is finite, 3e308 is not
    p0, v0 = np.array([0.0, 0.0, 1.0]), np.array([1.5e308, 0.0, 0.0])
    with pytest.raises(ValueError) as stepped:
        BallState(p0 + 2.0 * v0, v0)
    with pytest.raises(ValueError) as integrated:
        ground_truth(BallMotion.LINEAR, p0, v0, ProjectileParams(), Environment(), 1.0, 0.0, 10, 3.0)
    assert type(integrated.value) is type(stepped.value)
    assert str(integrated.value) == str(stepped.value)
    assert len(physics._truth_cache) == 0


@pytest.mark.parametrize("sid", ["D", "B"])
def test_cache_hit_gives_the_cold_trace(sid):
    cfg = bundled_config(sid)
    cold = run_scenario(cfg)
    assert len(physics._truth_cache) == 1
    warm = run_scenario(cfg)
    assert len(physics._truth_cache) == 1
    assert trace_csv(warm) == trace_csv(cold)
    assert summary_dict(warm) == summary_dict(cold)


def test_every_key_field_gets_its_own_entry():
    cfg = bundled_config("D")
    args = list(truth_args(cfg))
    base = ground_truth(*args)
    assert ground_truth(*args) is base

    def assert_own_entry(i, value):
        changed = list(args)
        changed[i] = value
        assert ground_truth(*args) is base  # still cached, as the most recent entry
        assert ground_truth(*changed) is not base

    velocity = cfg.ball_velocity.copy()
    velocity[1] += 1e-12
    assert_own_entry(3, ProjectileParams(drag_mode=DragMode.NONE))
    assert_own_entry(4, Environment(gravity_g=9.8))
    assert_own_entry(5, 0.0005)
    assert_own_entry(2, velocity)
    assert_own_entry(1, cfg.ball_position + np.array([0.0, 0.0, 1e-9]))
    # -0.0 prints differently from 0.0 in a trace, so it is a different key
    a = ground_truth(BallMotion.FROZEN, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), *args[3:])
    b = ground_truth(BallMotion.FROZEN, (-0.0, 0.0, 1.0), (0.0, 0.0, 0.0), *args[3:])
    assert a is not b and math.copysign(1.0, b.positions[0, 0]) == -1.0


def test_arrays_are_read_only():
    for sid in ("A", "B", "D"):
        truth = ground_truth(*truth_args(bundled_config(sid)))
        for a in (truth.positions, truth.velocities, truth.times):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


def test_cache_is_a_bounded_lru():
    args = list(truth_args(bundled_config("D")))
    first = ground_truth(*args)
    others = []
    for i in range(TRUTH_CACHE_SIZE + 3):
        others.append(ground_truth(*args[:6], -0.5 - i, *args[7:]))  # another ground height
        assert ground_truth(*args) is first  # each hit makes it the most recent entry
    assert len(physics._truth_cache) == TRUTH_CACHE_SIZE
    assert ground_truth(*args[:6], -0.5, *args[7:]) is not others[0]  # the oldest was evicted
