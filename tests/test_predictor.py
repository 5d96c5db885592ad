"""Predictor verification: regression exactness, propagation vs RK4, crossings."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchsim.physics import BallState, DragMode, Environment, ProjectileParams, drag_accel, step_ground_truth
from catchsim.predictor import (
    DegenerateRegressionError,
    InsufficientDataError,
    ObservationOrderError,
    ObservationQueue,
    PredictedPath,
    PropagationStop,
    estimate_velocity,
    plane_crossing,
    predict_from_queue,
    predict_path,
    push_observation,
)
from catchsim.sensor import Observation
from conftest import airs, balls, velocity_component


def obs(t, p):
    return Observation(
        position=np.asarray(p, dtype=float),
        timestamp=t,
        bearing_azimuth=0.0,
        bearing_elevation=0.0,
        edge_fraction=0.0,
    )


def queue_from(pairs, capacity=5):
    q = ObservationQueue(capacity=capacity)
    for t, p in pairs:
        push_observation(q, obs(t, p))
    return q


class TestEstimateVelocity:
    def test_exact_on_affine_data(self):
        # least squares recovers the exact slope of a line, any window size
        p0 = np.array([1.0, 2.0, 3.0])
        v = np.array([4.0, -5.0, 6.0])
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            ts = np.sort(rng.uniform(0.0, 1.0, size=n))
            while len(np.unique(ts)) < n:
                ts = np.sort(rng.uniform(0.0, 1.0, size=n))
            q = queue_from([(t, p0 + v * t) for t in ts], capacity=n)
            est = estimate_velocity(q)
            assert np.linalg.norm(est - v) < 1e-9, f"n={n}: {est}"

    def test_three_point_closed_form(self):
        # single axis {(0,0),(1,1),(2,4)}: slope = (3*9 - 5*3) / (3*5 - 9) = 2
        q = queue_from([(0.0, (0, 0, 0)), (1.0, (1, 0, 0)), (2.0, (4, 0, 0))])
        est = estimate_velocity(q)
        assert est[0] == 2.0
        assert est[1] == 0.0 and est[2] == 0.0

    def test_time_translation_invariance(self):
        pairs = [(t, (2.0 * t + 1.0, -t, 0.5 * t)) for t in (0.0, 0.1, 0.25, 0.4, 0.55)]
        base = estimate_velocity(queue_from(pairs))
        shifted = estimate_velocity(queue_from([(t + 1.0e6, p) for t, p in pairs]))
        assert np.allclose(base, shifted, atol=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            estimate_velocity(queue_from([(0.0, (0, 0, 0))]))

    def test_degenerate_timestamps(self):
        q = ObservationQueue(capacity=5)
        q.entries = [(1.0, np.zeros(3)), (1.0, np.ones(3))]  # bypass push ordering
        with pytest.raises(DegenerateRegressionError):
            estimate_velocity(q)


def reference_velocity(queue):
    """estimate_velocity as it read with every sum taken by ndarray.sum."""
    n = len(queue.entries)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 observations, have {n}")
    ts = np.array([t for t, _ in queue.entries])
    ps = np.array([p for _, p in queue.entries])
    ts = ts - ts[0]
    st_ = ts.sum()
    stt = (ts * ts).sum()
    denom = n * stt - st_ * st_
    if denom == 0.0:
        raise DegenerateRegressionError("all timestamps equal; slope undefined")
    stp = (ts[:, None] * ps).sum(axis=0)
    sp = ps.sum(axis=0)
    return (n * stp - sp * st_) / denom


def velocity_outcome(f, queue):
    """The bits f(queue) returns, or what it raises."""
    try:
        return f(queue).tobytes()
    except ValueError as e:
        return type(e), str(e)


class TestEstimateVelocityReference:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(2, 300),
        t0=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_the_sum_form_bit_for_bit(self, capacity, t0, seed, data):
        # pushes past the capacity slide the window. Past 8 entries numpy sums a 1-D
        # array pairwise, 8 wide, and past 128 it also splits it in halves; the
        # axis-0 sums it adds row by row. The bulk of a long window is random; its
        # first rows are Hypothesis floats (signed zeros, subnormals, +-1e100).
        n = data.draw(st.integers(1, capacity + 24), label="pushes")
        coordinate = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e100, 1e100))
        first = max(0, n - capacity)  # the first row of the final window
        row = st.tuples(coordinate, coordinate, coordinate)
        head = data.draw(st.lists(row, max_size=min(n - first, 4)), label="head")
        rng = np.random.default_rng(seed)
        steps = 10.0 ** rng.uniform(-6.0, 1.0, n)  # 1e-6 .. 10 s; a step of 1e-6 s still advances t at 1e6 s
        points = rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** rng.choice([1.0, 100.0], (n, 3))
        points[first : first + len(head)] = np.array(head).reshape(-1, 3)
        q = ObservationQueue(capacity=capacity)
        t = t0
        for dt, p in zip(steps, points):
            t += dt
            push_observation(q, obs(t, p))
        assert velocity_outcome(estimate_velocity, q) == velocity_outcome(reference_velocity, q)


class TestPushObservation:
    def test_fifo_eviction(self):
        q = queue_from([(float(i), (float(i), 0, 0)) for i in range(6)])
        assert len(q) == 5
        assert q.entries[0][0] == 1.0  # first observation evicted

    def test_single_push(self):
        q = queue_from([(0.0, (1, 2, 3))])
        assert len(q) == 1

    def test_moving_window_slope(self):
        # after the 6th push the fit must use entries 2..6 only; compare
        # against an independent per-axis polyfit on those entries
        rng = np.random.default_rng(5)
        pairs = [(0.1 * i, rng.uniform(-1, 1, size=3)) for i in range(6)]
        q = queue_from(pairs)
        est = estimate_velocity(q)
        ts = np.array([t for t, _ in pairs[1:]])
        ps = np.array([p for _, p in pairs[1:]])
        expected = [np.polyfit(ts, ps[:, i], 1)[0] for i in range(3)]
        assert np.allclose(est, expected, atol=1e-9)

    def test_non_monotonic_rejected(self):
        q = queue_from([(1.0, (0, 0, 0))])
        with pytest.raises(ObservationOrderError):
            push_observation(q, obs(1.0, (1, 1, 1)))


class TestPredictedPath:
    def test_shape_checks(self):
        with pytest.raises(ValueError, match="non-empty"):
            PredictedPath(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError, match=r"\(N, 3\) matching times"):
            PredictedPath(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match=r"\(N, 3\) matching times"):
            PredictedPath(np.zeros((2, 3)), np.zeros(3))
        # the consumers read `times`, so the spacing need not be uniform
        assert len(PredictedPath(np.zeros((3, 3)), np.array([0.0, 0.01, 0.5]))) == 3


class TestPredictPath:
    def test_drag_free_matches_parabola(self):
        env = Environment()
        params = ProjectileParams(drag_mode=DragMode.NONE)
        seed = BallState(np.array([0.0, 0.0, 10.0]), np.array([1.0, 2.0, 4.0]))
        path = predict_path(seed, params, env, t_step=0.01, stop=PropagationStop(1.0, -100.0))
        g = np.array([0.0, 0.0, -env.gravity_g])
        worst = 0.0
        for pos, t in zip(path.positions, path.times):
            analytic = seed.position + seed.velocity * t + 0.5 * g * t * t
            worst = max(worst, float(np.linalg.norm(pos - analytic)))
        assert worst < 5e-3, f"max deviation {worst}"

    def test_stationary_no_gravity(self):
        env = Environment(gravity_g=0.0)
        params = ProjectileParams()
        seed = BallState(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        path = predict_path(seed, params, env, t_step=0.01, stop=PropagationStop(0.5, -1.0))
        assert np.allclose(path.positions, seed.position, atol=0.0)

    def test_first_sample_is_seed_and_times_uniform(self):
        env = Environment()
        seed = BallState(np.array([0.0, 0.0, 5.0]), np.array([1.0, 0.0, 0.0]), time=2.5)
        path = predict_path(seed, ProjectileParams(), env, t_step=0.01)
        assert np.array_equal(path.positions[0], seed.position)
        assert path.times[0] == 2.5
        assert np.allclose(np.diff(path.times), 0.01, atol=1e-12)

    def test_first_order_convergence_vs_rk4(self):
        # halving t_step roughly halves the endpoint error against RK4 truth
        env = Environment()
        params = ProjectileParams()
        v0 = np.array([4.0, -2.0, 3.0])
        seed = BallState(np.array([0.0, 0.0, 2.0]), v0)

        truth = BallState(seed.position.copy(), seed.velocity.copy())
        for _ in range(500):
            truth = step_ground_truth(truth, params, env, 0.001)

        def endpoint_err(t_step):
            path = predict_path(seed, params, env, t_step=t_step, stop=PropagationStop(0.5, -100.0))
            return float(np.linalg.norm(path.positions[-1] - truth.position))

        e1, e2 = endpoint_err(0.01), endpoint_err(0.005)
        assert 1.7 <= e1 / e2 <= 2.3, f"ratio {e1 / e2:.3f} (e1={e1:.2e}, e2={e2:.2e})"

    def test_drag_only_speed_nonincreasing(self):
        env = Environment(gravity_g=0.0)
        params = ProjectileParams()
        seed = BallState(np.zeros(3), np.array([5.0, -3.0, 2.0]))
        path = predict_path(seed, params, env, t_step=0.01, stop=PropagationStop(1.0, -1e9))
        speeds = np.linalg.norm(np.diff(path.positions, axis=0), axis=1)  # step displacements
        assert np.all(np.diff(speeds) <= 1e-12)

    def test_ground_stop_keeps_breaching_sample(self):
        env = Environment()
        params = ProjectileParams(drag_mode=DragMode.NONE)
        seed = BallState(np.array([0.0, 0.0, 0.05]), np.array([1.0, 0.0, 0.0]))
        path = predict_path(seed, params, env, t_step=0.01, stop=PropagationStop(3.0, 0.0))
        assert path.positions[-1, 2] < 0.0
        assert np.all(path.positions[:-1, 2] >= 0.0)


def reference_propagate(initial, params, env, t_step=0.01, stop=None):
    """predict_path as it read with the drag model called at every step: the
    closure drag_accel binds, which calls drag_coefficient."""
    if not (math.isfinite(t_step) and t_step > 0.0):
        raise ValueError(f"t_step must be > 0, got {t_step}")
    if stop is None:
        stop = PropagationStop()
    px, py, pz = initial.position.tolist()
    vx, vy, vz = initial.velocity.tolist()
    xs, ys, zs = [px], [py], [pz]
    accel = drag_accel(params, env)
    half = 0.5 * t_step * t_step
    for _ in range(int(math.floor(stop.max_horizon / t_step + 1e-9))):
        ax, ay, az = accel(vx, vy, vz)
        px += vx * t_step + ax * half
        py += vy * t_step + ay * half
        pz += vz * t_step + az * half
        vx += ax * t_step
        vy += ay * t_step
        vz += az * t_step
        xs.append(px)
        ys.append(py)
        zs.append(pz)
        if pz < stop.ground_height:
            break
    return PredictedPath(np.array((xs, ys, zs)).T.copy(), initial.time + t_step * np.arange(len(xs)))


def path_outcome(f, *args):
    """The bits of every position and time of the path f returns (float.hex
    tells -0.0 from 0.0), or what it raises."""
    try:
        path = f(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return [c.hex() for c in path.positions.ravel().tolist()], [t.hex() for t in path.times.tolist()]


class TestPredictPathReference:
    @settings(max_examples=200, deadline=None)
    @given(
        params=balls,
        env=airs,
        p=st.tuples(*[st.one_of(st.floats(-10.0, 10.0), st.just(-0.0))] * 3),
        v=st.tuples(velocity_component, velocity_component, velocity_component),
        t0=st.floats(0.0, 100.0),
        t_step=st.floats(1e-3, 0.1),
        stop=st.builds(PropagationStop, st.floats(0.0, 3.0), st.floats(-20.0, 10.0)),
    )
    # at rest, and drag-free, with no gravity: the signed zeros of -g reach the positions
    @example(
        ProjectileParams(), Environment(gravity_g=0.0), (0.0, 0.0, -0.0), (0.0, 0.0, -0.0), 0.0, 0.01,
        PropagationStop(0.1, -1.0),
    )
    @example(
        ProjectileParams(drag_mode=DragMode.NONE), Environment(gravity_g=0.0), (0.0, 0.0, -0.0), (0.0, 0.0, -0.0),
        0.0, 0.01, PropagationStop(0.1, -1.0),
    )
    # a 0.5 m, 50 g ball in air five times as dense, thrown up from the origin: drag is a large
    # share of each step, and the first samples' bits show the order in which Cd's terms add
    @example(
        ProjectileParams(mass_m=0.05, diameter_D=0.5), Environment(air_density_rho=5.0), (0.0, 0.0, 0.0),
        (0.0, 0.0, 3.0), 0.0, 0.01, PropagationStop(0.05, -1.0),
    )
    # the speed, and with it Re, overflows to inf
    @example(ProjectileParams(), Environment(), (0.0, 0.0, 1.0), (1e300, 1e300, 0.0), 0.0, 0.01, PropagationStop())
    # Re = 1e-34: (Re / 2.63e5) ** -7.94 overflows
    @example(
        ProjectileParams(diameter_D=1e-30), Environment(kinematic_viscosity_nu=1e-2), (0.0, 0.0, 1.0),
        (1e-6, 0.0, 0.0), 0.0, 0.01, PropagationStop(),
    )
    def test_equals_the_drag_accel_loop_bit_for_bit(self, params, env, p, v, t0, t_step, stop):
        seed = BallState(np.array(p), np.array(v), t0)
        expected = path_outcome(reference_propagate, seed, params, env, t_step, stop)
        assert path_outcome(predict_path, seed, params, env, t_step, stop) == expected


class TestPredictFromQueue:
    def test_landing_point_vs_analytic(self):
        # noiseless 30 Hz samples of a drag-free descending throw
        env = Environment()
        params = ProjectileParams(drag_mode=DragMode.NONE)
        p0 = np.array([0.0, 0.0, 1.0])
        v0 = np.array([1.0, 0.5, -2.0])
        g = env.gravity_g
        pairs = []
        for i in range(5):
            t = i / 30.0
            pairs.append((t, p0 + v0 * t + 0.5 * np.array([0.0, 0.0, -g]) * t * t))
        q = queue_from(pairs)
        path = predict_from_queue(q, params, env, t_step=0.01, stop=PropagationStop(3.0, 0.0))
        crossing = plane_crossing(path, np.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert crossing is not None
        t_land = (v0[2] + math.sqrt(v0[2] ** 2 + 2.0 * g * p0[2])) / g
        analytic = p0 + v0 * t_land + 0.5 * np.array([0.0, 0.0, -g]) * t_land**2
        assert np.linalg.norm(crossing[0] - analytic) < 0.05

    def test_single_entry_raises(self):
        q = queue_from([(0.0, (0, 0, 0))])
        with pytest.raises(InsufficientDataError):
            predict_from_queue(q, ProjectileParams(), Environment())

    def test_stationary_ball_free_fall_column(self):
        env = Environment()
        params = ProjectileParams()
        pairs = [(i / 30.0, (2.0, 1.0, 3.0)) for i in range(5)]
        path = predict_from_queue(queue_from(pairs), params, env, t_step=0.01, stop=PropagationStop(1.0, 0.0))
        assert np.allclose(path.positions[:, 0], 2.0, atol=1e-12)
        assert np.allclose(path.positions[:, 1], 1.0, atol=1e-12)
        assert path.positions[-1, 2] < path.positions[0, 2]

    def test_seeded_from_newest_entry(self):
        env = Environment()
        pairs = [(i * 0.1, (1.0 * i, 0.0, 5.0)) for i in range(5)]
        path = predict_from_queue(queue_from(pairs), ProjectileParams(), env)
        assert path.times[0] == pytest.approx(0.4)
        assert np.allclose(path.positions[0], [4.0, 0.0, 5.0])


class TestPlaneCrossing:
    def plane(self):
        return np.zeros(3), np.array([0.0, 0.0, 1.0])

    def test_midpoint_interpolation(self):
        path = PredictedPath(
            positions=np.array([[0.0, 0.0, 0.1], [1.0, 0.0, -0.1]]),
            times=np.array([0.0, 0.01]),
        )
        crossing = plane_crossing(path, *self.plane())
        assert crossing is not None
        pos, t = crossing
        assert np.allclose(pos, [0.5, 0.0, 0.0], atol=1e-15)
        assert t == pytest.approx(0.005)

    def test_no_crossing(self):
        path = PredictedPath(
            positions=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]]),
            times=np.array([0.0, 0.01]),
        )
        assert plane_crossing(path, *self.plane()) is None

    @pytest.mark.parametrize("z", [1e200, 1e-200], ids=["overflows", "underflows"])
    def test_crossing_whose_distance_product_leaves_the_float_range(self, z):
        # signed distances +-z: their product overflows to -inf (with a warning)
        # or underflows to -0.0, but their signs still differ
        path = PredictedPath(
            positions=np.array([[0.0, 0.0, z], [1.0, 0.0, -z]]),
            times=np.array([0.0, 0.01]),
        )
        pos, t = plane_crossing(path, *self.plane())
        assert np.array_equal(pos, [0.5, 0.0, 0.0])
        assert t == 0.005

    def test_sample_exactly_on_plane(self):
        path = PredictedPath(
            positions=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [2.0, 0.0, -1.0]]),
            times=np.array([0.0, 0.01, 0.02]),
        )
        pos, t = plane_crossing(path, *self.plane())
        assert np.array_equal(pos, [1.0, 0.0, 0.0])
        assert t == 0.01

    def test_parabola_vs_analytic_root(self):
        env = Environment()
        params = ProjectileParams(drag_mode=DragMode.NONE)
        p0 = np.array([0.0, 0.0, 2.0])
        v0 = np.array([3.0, 0.0, 1.0])
        seed = BallState(p0, v0)
        t_step = 0.01
        path = predict_path(seed, params, env, t_step=t_step, stop=PropagationStop(3.0, -1.0))
        crossing = plane_crossing(path, np.zeros(3), np.array([0.0, 0.0, 1.0]))
        g = env.gravity_g
        t_land = (v0[2] + math.sqrt(v0[2] ** 2 + 2.0 * g * p0[2])) / g
        analytic = p0 + v0 * t_land + 0.5 * np.array([0.0, 0.0, -g]) * t_land**2
        assert crossing is not None
        assert np.linalg.norm(crossing[0] - analytic) < t_step * float(np.linalg.norm(v0))

    def test_non_unit_normal_rejected(self):
        path = PredictedPath(positions=np.zeros((1, 3)), times=np.zeros(1))
        with pytest.raises(ValueError):
            plane_crossing(path, np.zeros(3), np.array([0.0, 0.0, 2.0]))
