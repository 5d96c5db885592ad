"""Vehicle model verification: PD tracking envelopes, yaw slew, tilt coupling,
and the n-step kernel against chained single steps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchsim.planner import PlanMethod, Setpoint, UavLimits
from catchsim.vehicle import UavState, fly, hover_init, step_uav, wrap_angle


def setpoint(target, yaw=0.0):
    return Setpoint(
        target_position=np.asarray(target, dtype=float),
        target_yaw=yaw,
        source_method=PlanMethod.CAT_MOUSE,
    )


class TestHoverInit:
    def test_two_metre_hover(self):
        uav = hover_init(2.0)
        assert np.array_equal(uav.position, [0.0, 0.0, 2.0])

    def test_one_metre_hover(self):
        assert np.array_equal(hover_init(1.0).position, [0.0, 0.0, 1.0])

    def test_state_invariants(self):
        uav = hover_init(2.0)
        assert np.array_equal(uav.velocity, np.zeros(3))
        assert uav.yaw == 0.0 and uav.pitch == 0.0 and uav.time == 0.0
        assert -math.pi < uav.yaw <= math.pi

    def test_rejects_nonpositive_elevation(self):
        with pytest.raises(ValueError):
            hover_init(0.0)


class TestStepUav:
    def test_equilibrium_at_setpoint(self):
        limits = UavLimits()
        uav = hover_init(2.0)
        sp = setpoint([0.0, 0.0, 2.0])
        for _ in range(100):
            uav = step_uav(uav, sp, limits, 0.01)
        assert np.linalg.norm(uav.position - [0.0, 0.0, 2.0]) < 1e-6

    def test_speed_saturation_ramp(self):
        # far setpoint: |v| must hit max_speed within max_speed/max_accel + 2 dt
        limits = UavLimits(max_speed=3.0, max_accel=6.0)
        dt = 0.001
        uav = hover_init(2.0)
        sp = setpoint([100.0, 0.0, 2.0])
        n = round((limits.max_speed / limits.max_accel + 2 * dt) / dt)
        for _ in range(n):
            uav = step_uav(uav, sp, limits, dt)
        assert np.linalg.norm(uav.velocity) >= limits.max_speed - 1e-9

    def test_speed_never_exceeds_limit(self):
        limits = UavLimits(max_speed=3.0)
        rng = np.random.default_rng(8)
        uav = hover_init(2.0)
        for _ in range(500):
            sp = setpoint(rng.uniform(-5, 5, size=3))
            uav = step_uav(uav, sp, limits, 0.01)
            assert np.linalg.norm(uav.velocity) <= limits.max_speed + 1e-12

    def test_yaw_slew_rate_and_monotonicity(self):
        limits = UavLimits(max_yaw_rate=2.0)
        dt = 0.001
        uav = hover_init(2.0)
        sp = setpoint([0.0, 0.0, 2.0], yaw=math.pi / 4)
        yaws = [uav.yaw]
        t_arrive = None
        for k in range(1000):
            uav = step_uav(uav, sp, limits, dt)
            yaws.append(uav.yaw)
            if t_arrive is None and abs(uav.yaw - math.pi / 4) < 1e-12:
                t_arrive = (k + 1) * dt
        assert t_arrive is not None and t_arrive >= math.pi / 8 - 1e-9
        assert all(b >= a for a, b in zip(yaws, yaws[1:]))

    def test_yaw_change_bounded_per_step(self):
        limits = UavLimits(max_yaw_rate=2.0)
        dt = 0.01
        rng = np.random.default_rng(3)
        uav = hover_init(2.0)
        for _ in range(300):
            sp = setpoint([0.0, 0.0, 2.0], yaw=rng.uniform(-math.pi, math.pi))
            new = step_uav(uav, sp, limits, dt)
            assert abs(wrap_angle(new.yaw - uav.yaw)) <= limits.max_yaw_rate * dt + 1e-15
            uav = new

    def test_pitch_zero_without_horizontal_accel(self):
        limits = UavLimits()
        uav = hover_init(2.0)
        stepped = step_uav(uav, setpoint([0.0, 0.0, 5.0]), limits, 0.01, tilt_coupling=True)
        assert stepped.pitch == 0.0

    def test_pitch_matches_accel_tilt(self):
        limits = UavLimits(max_accel=6.0)
        uav = hover_init(2.0)
        stepped = step_uav(uav, setpoint([10.0, 0.0, 2.0]), limits, 0.01, tilt_coupling=True)
        # full saturation: horizontal accel = max_accel
        assert stepped.pitch == pytest.approx(math.atan(limits.max_accel / 9.81), rel=1e-9)

    def test_tilt_coupling_off(self):
        limits = UavLimits()
        stepped = step_uav(hover_init(2.0), setpoint([10.0, 0.0, 2.0]), limits, 0.01, tilt_coupling=False)
        assert stepped.pitch == 0.0

    def test_height_compensation_raises_target(self):
        limits = UavLimits()
        tilted = UavState(np.array([0.0, 0.0, 2.0]), np.zeros(3), pitch=0.4)
        sp = setpoint([0.0, 0.0, 2.0])
        plain = step_uav(tilted, sp, limits, 0.01, height_comp_gain=0.0)
        comp = step_uav(tilted, sp, limits, 0.01, height_comp_gain=0.5)
        assert comp.position[2] > plain.position[2]

    def test_deterministic(self):
        limits = UavLimits()
        sp = setpoint([1.0, 2.0, 3.0], yaw=0.3)
        a = step_uav(hover_init(2.0), sp, limits, 0.01)
        b = step_uav(hover_init(2.0), sp, limits, 0.01)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)
        assert a.yaw == b.yaw and a.pitch == b.pitch


def bits(state: UavState) -> bytes:
    return np.array([*state.position, *state.velocity, state.yaw, state.pitch, state.time]).tobytes()


coord = st.floats(-10.0, 10.0)
vec3 = st.lists(coord, min_size=3, max_size=3).map(np.array)
unit3 = vec3.filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


class TestFly:
    @settings(max_examples=200, deadline=None)
    @given(
        position=vec3,
        velocity=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3).map(np.array),
        yaw=st.floats(-math.pi, math.pi),
        pitch=st.floats(0.0, 1.5),
        time=st.floats(0.0, 10.0),
        target=vec3,
        target_yaw=st.floats(-math.pi, math.pi),
        limits=st.builds(
            UavLimits,
            max_speed=st.floats(0.1, 10.0),
            max_accel=st.floats(0.1, 30.0),
            max_yaw_rate=st.floats(0.1, 20.0),
        ),
        dt=st.floats(1e-4, 0.05),
        n=st.integers(1, 60),
        tilt_coupling=st.booleans(),
        gains=st.tuples(st.floats(0.1, 50.0), st.floats(0.0, 20.0)),
        height_comp_gain=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        plane=st.one_of(st.none(), st.tuples(vec3, unit3)),
    )
    def test_equals_chained_steps_bit_for_bit(
        self, position, velocity, yaw, pitch, time, target, target_yaw, limits, dt, n,
        tilt_coupling, gains, height_comp_gain, plane,
    ):
        state = UavState(position, velocity, yaw, pitch, time)
        sp = setpoint(target, target_yaw)
        kp, kd = gains
        final, path = fly(state, sp, limits, dt, n, tilt_coupling, kp, kd, 9.81, height_comp_gain, plane)
        expected = []
        for _ in range(n):
            state = step_uav(state, sp, limits, dt, tilt_coupling, kp, kd, 9.81, height_comp_gain)
            if plane is not None:
                # the projection the engine applied after each step_uav
                p0, n_hat = plane
                pos = state.position - float((state.position - p0) @ n_hat) * n_hat
                vel = state.velocity - float(state.velocity @ n_hat) * n_hat
                state = UavState(pos, vel, state.yaw, state.pitch, state.time)
            expected.append(state.position)
        assert bits(final) == bits(state)
        assert path.shape == (n, 3)
        assert path.tobytes() == np.array(expected).tobytes()

    def test_time_advances_by_dt_per_step(self):
        uav = UavState(np.array([0.0, 0.0, 2.0]), np.zeros(3), time=0.5)
        final, _ = fly(uav, setpoint([1.0, 0.0, 2.0]), UavLimits(), 0.01, 3)
        assert final.time == ((0.5 + 0.01) + 0.01) + 0.01

    def test_zero_steps(self):
        uav = hover_init(2.0)
        final, path = fly(uav, setpoint([1.0, 0.0, 2.0]), UavLimits(), 0.01, 0)
        assert bits(final) == bits(uav) and path.shape == (0, 3)

    def test_overflowing_command_is_clamped_along_it(self):
        # kp * error overflows: the command still points at the target, at max_accel
        limits = UavLimits(max_accel=6.0)
        stepped = step_uav(hover_init(2.0), setpoint([10.0, 0.0, 2.0]), limits, 0.01, kp=1e308)
        assert np.array_equal(stepped.velocity, [limits.max_accel * 0.01, 0.0, 0.0])

    def test_overflowing_height_compensation_climbs(self):
        limits = UavLimits(max_accel=6.0)
        tilted = UavState(np.array([0.0, 0.0, 2.0]), np.zeros(3), pitch=0.4)
        stepped = step_uav(tilted, setpoint([0.0, 0.0, 2.0]), limits, 0.01, height_comp_gain=1e308)
        assert np.array_equal(stepped.velocity, [0.0, 0.0, limits.max_accel * 0.01])

    def test_overflowing_velocity_is_clamped_along_it(self):
        limits = UavLimits(max_speed=3.0, max_accel=1e308)
        stepped = step_uav(hover_init(2.0), setpoint([0.0, 10.0, 2.0]), limits, 10.0, kp=1e308)
        assert np.array_equal(stepped.velocity, [0.0, limits.max_speed, 0.0])
        assert np.isfinite(stepped.position).all()


class TestWrapAngle:
    def test_half_open_interval(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_identity_inside_range(self):
        for a in (-3.0, -1.0, 0.0, 1.0, 3.0):
            assert wrap_angle(a) == pytest.approx(a if abs(a) <= math.pi else a - np.sign(a) * 2 * math.pi)
