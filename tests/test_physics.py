"""Physics-layer verification against closed forms and independent arithmetic.

Frozen expected values were computed with the independent oracles noted
next to each assertion (term-by-term formula evaluation, analytic
ballistics, convergence-order measurements).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchsim.physics import (
    _SPEED_FLOOR,
    BallState,
    DragMode,
    Environment,
    ProjectileParams,
    drag_accel,
    drag_coefficient,
    step_ground_truth,
)

# Independent term-by-term evaluation of the drag correlation (cross-checked
# against a 40-digit mpmath evaluation): t1 + t2 + t3 + t4 at Re = 2700.
CD_2700_ORACLE = 0.4204794478543115
# Same evaluation at Re = 0.01 (Stokes term dominates, others still counted).
CD_001_ORACLE = 2400.1526494899626


def ball(v, p=(0.0, 0.0, 2.0), t=0.0):
    return BallState(position=np.array(p, dtype=float), velocity=np.array(v, dtype=float), time=t)


class TestDragCoefficient:
    def test_reference_reynolds(self):
        cd = drag_coefficient(2700.0)
        assert cd == pytest.approx(CD_2700_ORACLE, abs=1e-12)
        assert cd == pytest.approx(0.4206, abs=1e-3)

    def test_stokes_regime(self):
        assert drag_coefficient(0.01) == pytest.approx(CD_001_ORACLE, rel=1e-12)

    def test_deterministic(self):
        assert drag_coefficient(2700.0) == drag_coefficient(2700.0)

    def test_positive_finite_over_range(self):
        for Re in np.geomspace(1e-3, 1e7, 200):
            cd = drag_coefficient(float(Re))
            assert math.isfinite(cd) and cd > 0.0, f"Cd({Re}) = {cd}"

    @pytest.mark.parametrize("Re", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, Re):
        with pytest.raises(ValueError):
            drag_coefficient(Re)


class TestAcceleration:
    def test_rest_gives_gravity_only(self):
        env = Environment()
        for mode in (DragMode.NONE, DragMode.VELOCITY_OPPOSED):
            a = drag_accel(ProjectileParams(drag_mode=mode), env)(0.0, 0.0, 0.0)
            assert a == (0.0, 0.0, -env.gravity_g), mode

    def test_vertical_ascent_drag_is_antiparallel(self):
        env = Environment()
        params = ProjectileParams()
        w = 3.0
        a = drag_accel(params, env)(0.0, 0.0, w)
        Re = w * params.diameter_D / env.kinematic_viscosity_nu
        Dr = 0.5 * env.air_density_rho * drag_coefficient(Re) * w**2 * params.reference_area_A
        assert a[0] == 0.0 and a[1] == 0.0
        assert a[2] == pytest.approx(-env.gravity_g - Dr / params.mass_m, rel=1e-12)

    def test_velocity_opposed_matches_vector_oracle(self):
        # independent route: assemble -(Dr/m) * v_hat + gravity with numpy
        env = Environment()
        params = ProjectileParams()
        v = np.array([1.0, 1.0, 1.0])
        speed = float(np.linalg.norm(v))
        Re = speed * params.diameter_D / env.kinematic_viscosity_nu
        Dr = 0.5 * env.air_density_rho * drag_coefficient(Re) * speed**2 * params.reference_area_A
        expected = np.array([0.0, 0.0, -env.gravity_g]) - (Dr / params.mass_m) * (v / speed)
        a = drag_accel(params, env)(*v.tolist())
        assert np.allclose(a, expected, rtol=1e-12, atol=0.0)

    def test_drag_never_pushes_along_velocity(self):
        env = Environment()
        accel = drag_accel(ProjectileParams(), env)
        gravity = np.array([0.0, 0.0, -env.gravity_g])
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.uniform(-8, 8, size=3)
            drag = np.array(accel(*v.tolist())) - gravity
            assert float(drag @ v) <= 1e-12, f"drag {drag} has positive component along {v}"


def reference_accel(vx, vy, vz, params, env):
    """The acceleration arithmetic from before the kernel was bound, reading
    the parameter objects at every call (the old `_accel_components` with
    `_drag_accel_over_speed` inlined)."""
    g = env.gravity_g
    if params.drag_mode is DragMode.NONE:
        return 0.0, 0.0, -g
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed < _SPEED_FLOOR:
        return 0.0, 0.0, -g
    Re = speed * params.diameter_D / env.kinematic_viscosity_nu
    Cd = drag_coefficient(Re)
    Dr = 0.5 * env.air_density_rho * Cd * speed * speed * params.reference_area_A
    k = Dr / params.mass_m / speed
    return -k * vx, -k * vy, -g - k * vz


def outcome(f, *args):
    """The bits f returns (float.hex tells -0.0 from 0.0), or what it raises."""
    try:
        return [c.hex() for c in f(*args)]
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


component = st.one_of(
    st.floats(-60.0, 60.0),
    st.floats(-_SPEED_FLOOR, _SPEED_FLOOR),  # below the rest floor
    st.just(0.0),
    st.just(-0.0),
    st.floats(-1e300, 1e300),  # Re past the float range
)


class TestDragAccel:
    @settings(max_examples=400, deadline=None)
    @given(
        mass=st.floats(1e-6, 10.0),
        diameter=st.floats(1e-4, 1.0),
        area=st.one_of(st.none(), st.floats(1e-8, 1.0)),
        mode=st.sampled_from(DragMode),
        rho=st.floats(1e-3, 100.0),
        nu=st.floats(1e-7, 1e-2),
        g=st.floats(0.0, 20.0),
        v=st.tuples(component, component, component),
    )
    @example(2.7e-3, 0.04, None, DragMode.VELOCITY_OPPOSED, 1.204, 1.5e-5, 9.81, (0.0, 0.0, 0.0))
    @example(2.7e-3, 0.04, None, DragMode.VELOCITY_OPPOSED, 1.204, 1.5e-5, 9.81, (-0.0, 5e-13, 0.0))
    @example(2.7e-3, 0.04, None, DragMode.VELOCITY_OPPOSED, 1.204, 1.5e-5, 9.81, (3.0, -1.0, 4.5))
    @example(2.7e-3, 0.04, None, DragMode.NONE, 1.204, 1.5e-5, 9.81, (3.0, -1.0, 4.5))
    def test_equals_the_old_arithmetic_bit_for_bit(self, mass, diameter, area, mode, rho, nu, g, v):
        params = ProjectileParams(mass, diameter, area, mode)
        env = Environment(g, rho, nu)
        assert outcome(drag_accel(params, env), *v) == outcome(reference_accel, *v, params, env)

    def test_overflowing_reynolds_number_raises_the_same_error(self):
        params, env = ProjectileParams(), Environment()
        v = (1e300, 1e300, 0.0)  # the speed overflows to inf
        expected = (ValueError, "drag_coefficient: Re must be finite and > 0, got inf")
        assert outcome(drag_accel(params, env), *v) == outcome(reference_accel, *v, params, env) == expected


class TestStepGroundTruth:
    def test_drag_free_matches_parabola(self):
        env = Environment()
        params = ProjectileParams(drag_mode=DragMode.NONE)
        state = ball((1.0, 0.0, 1.0), p=(0.0, 0.0, 2.0))
        p0, v0 = state.position.copy(), state.velocity.copy()
        g = np.array([0.0, 0.0, -env.gravity_g])
        for _ in range(100):
            state = step_ground_truth(state, params, env, 0.01)
        t = state.time
        analytic = p0 + v0 * t + 0.5 * g * t * t
        assert np.linalg.norm(state.position - analytic) < 1e-9

    def test_fourth_order_convergence(self):
        # halving dt must shrink the endpoint error by at least 8x
        env = Environment()
        params = ProjectileParams()

        def endpoint(dt, t_end=0.4):
            s = ball((3.0, 2.0, 5.0))
            for _ in range(round(t_end / dt)):
                s = step_ground_truth(s, params, env, dt)
            return s.position

        ref = endpoint(0.4 / 1280)
        e1 = np.linalg.norm(endpoint(0.01) - ref)
        e2 = np.linalg.norm(endpoint(0.005) - ref)
        assert e1 / e2 >= 8.0, f"convergence ratio {e1 / e2:.2f}"

    def test_rest_drag_on_keeps_xy_exact(self):
        env = Environment()
        with_drag = step_ground_truth(ball((0, 0, 0)), ProjectileParams(), env, 0.01)
        assert with_drag.position[0] == 0.0 and with_drag.position[1] == 0.0
        assert with_drag.velocity[0] == 0.0 and with_drag.velocity[1] == 0.0

    def test_deterministic(self):
        env = Environment()
        params = ProjectileParams()
        a = step_ground_truth(ball((1, 2, 3)), params, env, 0.001)
        b = step_ground_truth(ball((1, 2, 3)), params, env, 0.001)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)

    def test_drag_only_speed_nonincreasing(self):
        env = Environment(gravity_g=0.0)
        params = ProjectileParams()
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = ball(rng.uniform(-8, 8, size=3))
            speed = np.linalg.norm(state.velocity)
            for _ in range(50):
                state = step_ground_truth(state, params, env, 0.002)
                assert np.linalg.norm(state.velocity) <= speed + 1e-15
                speed = np.linalg.norm(state.velocity)


class TestValidation:
    def test_environment_rejects_nonpositive_density(self):
        with pytest.raises(ValueError):
            Environment(air_density_rho=0.0)

    def test_environment_allows_zero_gravity(self):
        # g = 0 isolates drag in experiments
        assert Environment(gravity_g=0.0).gravity_g == 0.0

    def test_projectile_default_area(self):
        p = ProjectileParams(diameter_D=0.04)
        assert p.reference_area_A == pytest.approx(math.pi * 0.04**2 / 4, rel=1e-15)

    def test_ball_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BallState(position=np.array([0.0, 0.0, float("nan")]), velocity=np.zeros(3))

    def test_step_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_ground_truth(ball((0, 0, 0)), ProjectileParams(), Environment(), 0.0)
