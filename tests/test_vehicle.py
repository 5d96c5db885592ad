"""Vehicle model verification: PD tracking envelopes, yaw slew, tilt coupling,
and the n-step kernel against a per-tick reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchsim.planner import Setpoint, UavLimits
from catchsim.vehicle import UavState, _clamp_exact, fly, hover_init, step_uav, wrap_angle


def setpoint(target, yaw=0.0):
    return Setpoint(target_position=np.asarray(target, dtype=float), target_yaw=yaw)


class TestHoverInit:
    def test_two_metre_hover(self):
        uav = hover_init(2.0)
        assert np.array_equal(uav.position, [0.0, 0.0, 2.0])

    def test_one_metre_hover(self):
        assert np.array_equal(hover_init(1.0).position, [0.0, 0.0, 1.0])

    def test_state_invariants(self):
        uav = hover_init(2.0)
        assert np.array_equal(uav.velocity, np.zeros(3))
        assert uav.yaw == 0.0 and uav.pitch == 0.0
        assert -math.pi < uav.yaw <= math.pi


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
    return np.array([*state.position, *state.velocity, state.yaw, state.pitch]).tobytes()


coord = st.floats(-10.0, 10.0)
vec3 = st.lists(coord, min_size=3, max_size=3).map(np.array)
unit3 = vec3.filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


far3 = st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3).map(np.array)


def fly_example(**fields):
    """An @example of TestFly's property: from 2 m up toward (3, 1, 2.5) for
    20 steps of 10 ms, with `fields` in place of any of its arguments."""
    args = dict(
        position=np.array([0.0, 0.0, 2.0]), velocity=np.array([0.5, -0.2, 0.0]),
        yaw=0.1, pitch=0.2, target=np.array([3.0, 1.0, 2.5]), target_yaw=None,
        limits=UavLimits(), dt=0.01, n=20, tilt_coupling=True, gains=(4.0, 3.0),
        height_comp_gain=0.0, plane=None, plane_shift=None,
    )
    return example(**{**args, **fields})


def settled_yaw_example(height_comp_gain, tilt_coupling):
    """An @example whose yaw already equals its target but is not a fixed
    point of the slew: wrap_angle(0.1) is 0.10000000000000009."""
    return fly_example(target_yaw=0.1, height_comp_gain=height_comp_gain, tilt_coupling=tilt_coupling)


# a plane whose normal is not an axis, so the projection's dot products round
TILTED_PLANE = (np.array([0.0, 0.0, 2.0]), np.array([0.48, 0.64, 0.6]))


def reference_wrap(angle):
    """`wrap_angle`'s formula, written out."""
    w = (angle + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


def reference_fly(state, sp, limits, dt, n, tilt_coupling, kp, kd, gravity_g, height_comp_gain, plane):
    """`fly`'s arithmetic written out one tick at a time, with no shortcut: each
    tick recomputes the height target, slews the yaw and sets the pitch, and
    a plane projection is `project_to_plane`'s numpy form around the float
    sum (x*x' + y*y') + z*z' of each offset. Returns the final state and the
    (n, 3) positions after each tick."""
    p = [float(c) for c in state.position]
    v = [float(c) for c in state.velocity]
    tx, ty, tz_sp = (float(c) for c in sp.target_position)
    yaw, pitch = state.yaw, state.pitch
    max_dyaw = limits.max_yaw_rate * dt
    path = []
    for _ in range(n):
        tz = tz_sp + height_comp_gain * pitch if height_comp_gain != 0.0 else tz_sp
        a = [kp * (t - c) - kd * u for t, c, u in zip((tx, ty, tz), p, v)]
        a_norm = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
        if not math.isfinite(a_norm):
            def command(F):
                exact_targets = (F(tx), F(ty), F(tz_sp) + F(height_comp_gain) * F(pitch))
                return [F(kp) * (t - F(c)) - F(kd) * F(u) for t, c, u in zip(exact_targets, p, v)]

            a = list(_clamp_exact(command, limits.max_accel))
        elif a_norm > limits.max_accel:
            a = [c * (limits.max_accel / a_norm) for c in a]
        nv = [u + c * dt for u, c in zip(v, a)]
        v_norm = math.sqrt(nv[0] * nv[0] + nv[1] * nv[1] + nv[2] * nv[2])
        if not math.isfinite(v_norm):
            v = list(_clamp_exact(lambda F: [F(u) + F(c) * F(dt) for u, c in zip(v, a)], limits.max_speed))
        elif v_norm > limits.max_speed:
            v = [c * (limits.max_speed / v_norm) for c in nv]
        else:
            v = nv
        p = [c + u * dt for c, u in zip(p, v)]
        yaw = reference_wrap(yaw + max(-max_dyaw, min(max_dyaw, reference_wrap(sp.target_yaw - yaw))))
        pitch = math.atan(math.hypot(a[0], a[1]) / gravity_g) if tilt_coupling else 0.0
        if plane is not None:
            p0, n_hat = plane
            nx, ny, nz = n_hat.tolist()
            pos, vel = np.array(p), np.array(v)
            ox, oy, oz = (pos - p0).tolist()
            p = (pos - ((ox * nx + oy * ny) + oz * nz) * n_hat).tolist()
            v = (vel - ((v[0] * nx + v[1] * ny) + v[2] * nz) * n_hat).tolist()
        path.append(p)
    return UavState(np.array(p), np.array(v), yaw, pitch), np.array(path).reshape(n, 3)


class TestFly:
    @settings(max_examples=200, deadline=None)
    @given(
        position=vec3,
        velocity=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3).map(np.array),
        yaw=st.floats(-math.pi, math.pi),
        pitch=st.floats(0.0, 1.5),
        target=vec3,
        target_yaw=st.one_of(st.floats(-math.pi, math.pi), st.none()),  # None: the start yaw
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
        # moves the plane point along the plane, up to 1e300 m from the start
        plane_shift=st.one_of(st.none(), far3),
    )
    @settled_yaw_example(0.0, True)
    @settled_yaw_example(0.0, False)
    @settled_yaw_example(0.5, True)
    @settled_yaw_example(0.5, False)
    @fly_example(n=200, plane=TILTED_PLANE)
    @fly_example(n=100, plane=TILTED_PLANE, plane_shift=np.array([1e300, -1e300, 3e299]))
    # from rest toward (3, 4, 0) m off with kp = 1, kd = 0: the first command
    # is (3, 4, 0), of norm exactly max_accel, and after a 0.5 s step the
    # velocity (1.5, 2, 0) has norm exactly 2.5
    @fly_example(velocity=np.zeros(3), target=np.array([3.0, 4.0, 2.0]), gains=(1.0, 0.0),
                 limits=UavLimits(max_accel=5.0, max_speed=10.0), n=1)
    @fly_example(velocity=np.zeros(3), target=np.array([3.0, 4.0, 2.0]), gains=(1.0, 0.0),
                 limits=UavLimits(max_accel=5.0, max_speed=2.5), dt=0.5, n=1)
    @fly_example(gains=(1e308, 3.0))  # the command overflows: clamped in exact arithmetic
    @fly_example(height_comp_gain=1.5, n=60)
    @fly_example(target_yaw=math.nan)  # the clamp turns a NaN slew into +max_dyaw every tick
    def test_equals_reference_bit_for_bit(
        self, position, velocity, yaw, pitch, target, target_yaw, limits, dt, n,
        tilt_coupling, gains, height_comp_gain, plane, plane_shift,
    ):
        # the reference slews and sets the pitch every tick, so it also checks
        # fly's settled yaw and once-per-segment pitch
        if target_yaw is None:
            target_yaw = yaw
        if plane is not None and plane_shift is not None:
            # the start stays on the plane, to rounding; far out, that rounding
            # moves the UAV so far off target that its command overflows and
            # is clamped in exact arithmetic
            n_hat = plane[1]
            plane = position + (plane_shift - float(plane_shift @ n_hat) * n_hat), n_hat
        state = UavState(position, velocity, yaw, pitch)
        sp = setpoint(target, target_yaw)
        args = (state, sp, limits, dt, n, tilt_coupling, *gains, 9.81, height_comp_gain, plane)
        final, path = fly(*args)
        expected, expected_path = reference_fly(*args)
        assert bits(final) == bits(expected)
        assert path.shape == (n, 3) and path.dtype == np.float64 and path.flags.c_contiguous
        assert path.tobytes() == expected_path.tobytes()

    def test_a_yaw_on_its_target_still_slews_once(self):
        # wrap_angle(0.1) is 0.10000000000000009, so a yaw equal to its target
        # is not yet settled: the first step moves it, the rest leave it
        assert wrap_angle(0.1) != 0.1
        uav = UavState(np.array([0.0, 0.0, 2.0]), np.zeros(3), yaw=0.1)
        final, _ = fly(uav, setpoint([0.0, 0.0, 2.0], yaw=0.1), UavLimits(), 0.01, 5)
        assert final.yaw == wrap_angle(0.1)

    def test_zero_steps(self):
        uav = hover_init(2.0)
        final, path = fly(uav, setpoint([1.0, 0.0, 2.0]), UavLimits(), 0.01, 0)
        assert bits(final) == bits(uav)
        assert path.shape == (0, 3) and path.dtype == np.float64 and path.flags.c_contiguous

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

    @given(angle=st.floats(-1e6, 1e6))
    @example(angle=math.pi)
    @example(angle=-math.pi)
    @example(angle=3 * math.pi)
    @example(angle=-3 * math.pi)
    @example(angle=0.0)
    @example(angle=-0.0)
    def test_equals_the_formula_bit_for_bit(self, angle):
        wrapped = wrap_angle(angle)
        assert wrapped.hex() == reference_wrap(angle).hex()  # hex tells 0.0 from -0.0
        assert -math.pi < wrapped <= math.pi
