"""Planner verification: reachability arithmetic, method selection, yaw law."""

import math

import numpy as np
import pytest

from catchsim.planner import (
    PlanMethod,
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
    return PredictedPath(
        positions=points,
        times=t0 + t_step * np.arange(len(points)),
        t_step=t_step,
    )


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


class TestPlanCatMouse:
    def test_target_is_observation(self):
        obs = obs_with(0.0, 0.0, position=(4.0, 1.0, 2.0))
        sp = plan_cat_mouse(obs, hover_init(2.0), yaw_enabled=False)
        assert np.array_equal(sp.target_position, [4.0, 1.0, 2.0])
        assert sp.source_method is PlanMethod.CAT_MOUSE
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
    def region_over(self, path, indices):
        indices = np.asarray(indices)
        return ReachableRegion(indices=indices, margins=np.zeros(len(indices)))

    def test_single_index(self):
        path = path_from([[1, 0, 2], [2, 0, 2], [3, 0, 2]])
        sp = plan_shortest(path, self.region_over(path, [2]), hover_init(2.0))
        assert sp.path_index == 2
        assert np.array_equal(sp.target_position, path.positions[2])

    def test_distance_table(self):
        # distances {4, 2, 3} over region {1, 2, 3} -> index 2
        path = path_from([[9, 0, 2], [4, 0, 2], [2, 0, 2], [3, 0, 2]])
        sp = plan_shortest(path, self.region_over(path, [1, 2, 3]), hover_init(2.0))
        assert sp.path_index == 2
        assert sp.source_method is PlanMethod.SHORTEST_PATH

    def test_tie_breaks_to_smaller_index(self):
        path = path_from([[2, 0, 2], [0, 2, 4], [2, 0, 2]])
        sp = plan_shortest(path, self.region_over(path, [0, 2]), hover_init(2.0))
        assert sp.path_index == 0

    def test_fastest_takes_first_region_index(self):
        path = path_from(np.tile([[3.0, 0.0, 2.0]], (10, 1)))
        sp = plan_fastest(path, self.region_over(path, [3, 7, 9]), hover_init(2.0))
        assert sp.path_index == 3
        assert sp.source_method is PlanMethod.FASTEST_PATH

    def test_fastest_index_never_after_shortest(self):
        rng = np.random.default_rng(23)
        uav = hover_init(2.0)
        for _ in range(100):
            pts = rng.uniform([-4, -4, 0], [4, 4, 4], size=(20, 3))
            path = path_from(pts)
            k = rng.integers(1, 8)
            indices = np.sort(rng.choice(20, size=k, replace=False))
            region = self.region_over(path, indices)
            assert plan_fastest(path, region, uav).path_index <= plan_shortest(path, region, uav).path_index

    def test_setpoints_lie_on_path(self):
        rng = np.random.default_rng(29)
        uav = hover_init(2.0)
        pts = rng.uniform(-3, 3, size=(15, 3))
        path = path_from(pts)
        region = self.region_over(path, [2, 5, 11])
        for planner in (plan_shortest, plan_fastest):
            sp = planner(path, region, uav)
            assert np.array_equal(sp.target_position, path.positions[sp.path_index])


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
