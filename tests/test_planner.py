"""Planner verification: reachability arithmetic, method selection, yaw law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchsim.planner import (
    ReachableRegion,
    UavLimits,
    plan_cat_mouse,
    plan_fastest,
    plan_shortest,
    _trapezoid_time,
    reachable_region,
    yaw_command,
)
from catchsim.predictor import PredictedPath
from catchsim.sensor import Observation
from catchsim.vehicle import UavState, hover_init


def path_from(points, t0=0.0, t_step=0.1):
    points = np.asarray(points, dtype=float)
    return PredictedPath(positions=points, times=t0 + t_step * np.arange(len(points)))


def uav_at(p, yaw=0.0):
    return UavState(position=np.asarray(p, dtype=float), velocity=np.zeros(3), yaw=yaw)


def obs_with(edge, azimuth, position=(1.0, 0.0, 2.0)):
    return Observation(
        position=np.asarray(position, dtype=float),
        timestamp=0.0,
        bearing_azimuth=azimuth,
        bearing_elevation=0.0,
        edge_fraction=edge,
    )


class TestTimeToReach:
    def test_zero_distance(self):
        assert _trapezoid_time(0.0, UavLimits()) == 0.0

    def test_branch_boundary_agrees(self):
        # d = v^2 / (2a) = 0.75 m with defaults: both formulas give 0.5 s
        limits = UavLimits(max_speed=3.0, max_accel=6.0)
        t = _trapezoid_time(0.75, limits)
        assert t == pytest.approx(0.5, rel=1e-12)
        assert t == pytest.approx(math.sqrt(2 * 0.75 / 6.0), rel=1e-12)
        assert t == pytest.approx(0.75 / 3.0 + 3.0 / 12.0, rel=1e-12)

    def test_cruise_distance(self):
        limits = UavLimits(max_speed=3.0, max_accel=6.0)
        assert _trapezoid_time(3.0, limits) == pytest.approx(1.25, rel=1e-12)

    def test_short_distance_accel_only(self):
        limits = UavLimits(max_speed=3.0, max_accel=6.0)
        assert _trapezoid_time(0.12, limits) == pytest.approx(math.sqrt(2 * 0.12 / 6.0), rel=1e-12)


class TestReachableRegion:
    def test_uav_already_at_sample(self):
        path = path_from([[0.0, 0.0, 2.0], [5.0, 0.0, 2.0]], t0=1.0, t_step=0.5)
        region = reachable_region(path, now=0.4, uav=hover_init(2.0), limits=UavLimits())
        assert 0 in region.indices
        k = list(region.indices).index(0)
        assert region.margins[k] == pytest.approx(0.6)  # arrival 1.0 - now 0.4

    def test_everything_reachable_with_huge_limits(self):
        limits = UavLimits(max_speed=1e9, max_accel=1e12)
        path = path_from([[1.0, 0.0, 2.0], [2.0, 0.0, 2.0], [3.0, 0.0, 2.0]], t0=0.0, t_step=0.1)
        region = reachable_region(path, now=0.0, uav=hover_init(2.0), limits=limits)
        assert list(region.indices) == [1, 2]  # sample times strictly after `now`

    def test_three_sample_hand_check(self):
        # defaults: v=3, a=6. distances 0.75 and 6.0; arrivals 0.6 s and 1.2 s.
        # t_reach(0.75) = 0.5 <= 0.6 (in, margin 0.1); t_reach(6) = 2.25 > 1.2 (out)
        limits = UavLimits(max_speed=3.0, max_accel=6.0)
        path = path_from([[0.1, 0.0, 2.0], [0.75, 0.0, 2.0], [6.0, 0.0, 2.0]], t0=0.0, t_step=0.6)
        region = reachable_region(path, now=0.0, uav=hover_init(2.0), limits=limits)
        assert list(region.indices) == [1]
        assert region.margins[0] == pytest.approx(0.6 - 0.5, abs=1e-12)

    def test_margins_nonnegative_random(self):
        rng = np.random.default_rng(17)
        limits = UavLimits()
        for _ in range(50):
            pts = rng.uniform([-4, -4, 0], [4, 4, 4], size=(30, 3))
            path = path_from(pts, t0=rng.uniform(0, 2), t_step=0.05)
            region = reachable_region(path, now=float(path.times[0]), uav=hover_init(2.0), limits=limits)
            assert np.all(region.margins >= 0.0)
            assert np.all(np.diff(region.indices) > 0)

    def test_tiny_speed_empties_region(self):
        limits = UavLimits(max_speed=1e-9, max_accel=1e-9)
        pts = [[2.0, 0.0, 2.0], [2.5, 0.0, 2.0]]
        region = reachable_region(path_from(pts), 0.0, hover_init(2.0), limits)
        assert len(region) == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_travel_time_is_unreachable_without_warning(self):
        # d / v overflows to +inf for a subnormal speed: unreachable, not an error
        limits = UavLimits(max_speed=5e-324)
        pts = [[0.0, 0.0, 2.0], [2.0, 0.0, 2.0], [2.5, 0.0, 2.0]]
        region = reachable_region(path_from(pts, t0=1.0), 0.0, hover_init(2.0), limits)
        assert list(region.indices) == [0]


# points at the bundled scale, with a few exact coordinates so that distances
# tie, and some out near the float range so that distances overflow
bundled = st.lists(st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-2.0, 0.0, 1.0, 2.0])), min_size=3, max_size=3)
anywhere = st.lists(st.floats(-1e200, 1e200), min_size=3, max_size=3)


@st.composite
def planning_case(draw):
    """A predicted path, a UAV, a clock and limits: the inputs of reachable_region."""
    points = draw(st.lists(st.one_of(bundled, bundled, bundled, anywhere), min_size=1, max_size=40))
    t0 = draw(st.floats(0.0, 2.0))
    path = path_from(points, t0=t0, t_step=draw(st.sampled_from([0.01, 0.1, 0.5])))
    uav = uav_at(draw(bundled))
    now = t0 - draw(st.floats(-0.5, 4.0))  # mostly before the path starts, so regions are not all empty
    limits = UavLimits(max_speed=draw(st.floats(1.0, 1e3)), max_accel=draw(st.floats(1.0, 1e3)))
    return path, now, uav, limits


class TestRegionDistances:
    @settings(max_examples=200, deadline=None)
    @given(case=planning_case())
    def test_distances_equal_the_row_norm_bit_for_bit(self, case):
        path, now, uav, limits = case
        region = reachable_region(path, now, uav, limits)
        with np.errstate(over="ignore"):
            expected = np.linalg.norm(path.positions[region.indices] - uav.position, axis=1)
        assert region.distances.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=planning_case(), keep=st.lists(st.booleans(), min_size=40, max_size=40))
    def test_shortest_index_equals_the_renormed_argmin(self, case, keep):
        path, now, uav, limits = case
        region = reachable_region(path, now, uav, limits)
        mask = np.array(keep[: len(region)], dtype=bool)
        region = ReachableRegion(region.indices[mask], region.margins[mask], region.distances[mask])
        if len(region) == 0:
            return
        d = np.linalg.norm(path.positions[region.indices] - uav.position, axis=1)
        assert plan_shortest(region) == int(region.indices[int(np.argmin(d))])


class TestPlanCatMouse:
    def test_target_is_observation(self):
        obs = obs_with(0.0, 0.0, position=(4.0, 1.0, 2.0))
        sp = plan_cat_mouse(obs, hover_init(2.0), yaw_enabled=False)
        assert np.array_equal(sp.target_position, [4.0, 1.0, 2.0])
        assert sp.path_index is None

    def test_successive_observations_tracked(self):
        uav = hover_init(2.0)
        for x in (4.0, 4.2, 4.4):
            sp = plan_cat_mouse(obs_with(0.0, 0.0, position=(x, 0.0, 2.0)), uav, False)
            assert sp.target_position[0] == x

    def test_boresight_keeps_yaw(self):
        sp = plan_cat_mouse(obs_with(0.0, 0.0), uav_at([0, 0, 2], yaw=0.3), True)
        assert sp.target_yaw == pytest.approx(0.3)


class TestPlanShortestFastest:
    def region_over(self, path, indices, uav):
        indices = np.asarray(indices)
        distances = np.linalg.norm(path.positions[indices] - uav.position, axis=1)
        return ReachableRegion(indices=indices, margins=np.zeros(len(indices)), distances=distances)

    def test_single_index(self):
        path = path_from([[1, 0, 2], [2, 0, 2], [3, 0, 2]])
        uav = hover_init(2.0)
        assert plan_shortest(self.region_over(path, [2], uav)) == 2

    def test_distance_table(self):
        # distances {4, 2, 3} over region {1, 2, 3} -> index 2
        path = path_from([[9, 0, 2], [4, 0, 2], [2, 0, 2], [3, 0, 2]])
        uav = hover_init(2.0)
        assert plan_shortest(self.region_over(path, [1, 2, 3], uav)) == 2

    def test_tie_breaks_to_smaller_index(self):
        path = path_from([[2, 0, 2], [0, 2, 4], [2, 0, 2]])
        uav = hover_init(2.0)
        assert plan_shortest(self.region_over(path, [0, 2], uav)) == 0

    def test_fastest_takes_first_region_index(self):
        path = path_from(np.tile([[3.0, 0.0, 2.0]], (10, 1)))
        uav = hover_init(2.0)
        assert plan_fastest(self.region_over(path, [3, 7, 9], uav)) == 3

    def test_fastest_index_never_after_shortest(self):
        rng = np.random.default_rng(23)
        uav = hover_init(2.0)
        for _ in range(100):
            pts = rng.uniform([-4, -4, 0], [4, 4, 4], size=(20, 3))
            path = path_from(pts)
            k = rng.integers(1, 8)
            indices = np.sort(rng.choice(20, size=k, replace=False))
            region = self.region_over(path, indices, uav)
            assert plan_fastest(region) <= plan_shortest(region)


class TestYawCommand:
    def test_centered_object_keeps_yaw(self):
        yaw = yaw_command(obs_with(0.0, 0.5), uav_at([0, 0, 2], yaw=0.2))
        assert yaw == pytest.approx(0.2)

    def test_recentres_past_threshold(self):
        yaw = yaw_command(obs_with(0.9, 0.5), uav_at([0, 0, 2], yaw=0.2))
        assert yaw == pytest.approx(0.7)

    def test_engages_exactly_at_threshold(self):
        yaw = yaw_command(obs_with(0.8, 0.1), uav_at([0, 0, 2], yaw=0.0), edge_threshold=0.8)
        assert yaw == pytest.approx(0.1)

    def test_invariant_under_full_turn(self):
        obs = obs_with(0.95, -0.4)
        base = yaw_command(obs, uav_at([0, 0, 2], yaw=0.3))
        shifted = yaw_command(obs, uav_at([0, 0, 2], yaw=0.3 + 2 * math.pi))
        assert shifted == pytest.approx(base, abs=1e-12)
