"""Synthetic depth-camera verification: visibility geometry, sampling statistics,
fringe filtering, and frame gating."""

import math

import numpy as np
import pytest

from catchsim.physics import BallState, ProjectileParams
from catchsim.sensor import (
    CameraModel,
    NoDetectionError,
    detect_centroid,
    observe,
    sample_point_cloud,
    visible,
)
from catchsim.vehicle import UavState


def uav_at(p=(0.0, 0.0, 2.0), yaw=0.0, pitch=0.0):
    return UavState(position=np.array(p, dtype=float), velocity=np.zeros(3), yaw=yaw, pitch=pitch)


def ball_at(p):
    return BallState(position=np.array(p, dtype=float), velocity=np.zeros(3))


class TestVisible:
    def test_boresight(self):
        assert visible(np.array([2.0, 0.0, 2.0]), uav_at(), CameraModel())

    def test_behind(self):
        assert not visible(np.array([-2.0, 0.0, 2.0]), uav_at(), CameraModel())

    def test_just_outside_horizontal_fov(self):
        cam = CameraModel()
        az = cam.horizontal_fov / 2 + 0.01
        pos = np.array([2.0 * math.cos(az), 2.0 * math.sin(az), 2.0])
        assert not visible(pos, uav_at(), cam)

    def test_just_inside_horizontal_fov(self):
        cam = CameraModel()
        az = cam.horizontal_fov / 2 - 0.01
        pos = np.array([2.0 * math.cos(az), 2.0 * math.sin(az), 2.0])
        assert visible(pos, uav_at(), cam)

    def test_exactly_on_fov_edge_is_outside(self):
        # "inside" is strict, so emitted observations always have edge_fraction < 1
        cam = CameraModel()
        az = cam.horizontal_fov / 2
        pos = np.array([2.0 * math.cos(az), 2.0 * math.sin(az), 2.0])
        assert not visible(pos, uav_at(), cam)

    def test_beyond_max_range(self):
        cam = CameraModel(max_range=10.0)
        assert not visible(np.array([11.0, 0.0, 2.0]), uav_at(), cam)

    def test_yaw_rotates_the_cone(self):
        cam = CameraModel()
        assert visible(np.array([0.0, 2.0, 2.0]), uav_at(yaw=math.pi / 2), cam)
        assert not visible(np.array([2.0, 0.0, 2.0]), uav_at(yaw=math.pi / 2), cam)

    def test_pitch_tilt_loses_level_ball(self):
        # a level ball sits at elevation = pitch once the vehicle tilts
        cam = CameraModel()
        tilted = uav_at(pitch=cam.vertical_fov / 2 + 0.05)
        assert not visible(np.array([4.0, 0.0, 2.0]), tilted, cam)
        assert visible(np.array([4.0, 0.0, 2.0]), uav_at(pitch=0.0), cam)


class TestSamplePointCloud:
    def test_noiseless_points_on_surface(self):
        params = ProjectileParams()
        cloud = sample_point_cloud(ball_at((3.0, 0.0, 2.0)), params, uav_at(), CameraModel(), rng_seed=1)
        radii = np.linalg.norm(cloud - np.array([3.0, 0.0, 2.0]), axis=1)
        assert cloud.shape == (50, 3)
        assert np.allclose(radii, params.diameter_D / 2, atol=1e-12)

    def test_same_seed_identical(self):
        args = (ball_at((3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), CameraModel(noise_sigma=0.01))
        a = sample_point_cloud(*args, rng_seed=42)
        b = sample_point_cloud(*args, rng_seed=42)
        assert np.array_equal(a, b)

    def test_not_visible_gives_empty(self):
        cloud = sample_point_cloud(ball_at((-3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), CameraModel(), 1)
        assert cloud.shape == (0, 3)

    def test_camera_facing_hemisphere(self):
        ball = ball_at((3.0, 0.0, 2.0))
        cloud = sample_point_cloud(ball, ProjectileParams(), uav_at(), CameraModel(), rng_seed=9)
        to_cam = (uav_at().position - ball.position) / np.linalg.norm(uav_at().position - ball.position)
        assert np.all((cloud - ball.position) @ to_cam >= -1e-12)

    def test_radial_noise_statistics(self):
        # radial component of isotropic noise: std within 10% of sigma
        sigma = 0.005
        cam = CameraModel(noise_sigma=sigma, points_per_detection=10_000)
        params = ProjectileParams()
        cloud = sample_point_cloud(ball_at((3.0, 0.0, 2.0)), params, uav_at(), cam, rng_seed=4)
        radial = np.linalg.norm(cloud - np.array([3.0, 0.0, 2.0]), axis=1) - params.diameter_D / 2
        assert abs(radial.std() - sigma) < 0.1 * sigma, f"std {radial.std():.5f}"


class TestDetectCentroid:
    def test_identical_points(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(detect_centroid(np.tile(p, (20, 1))), p)

    def test_outlier_removed(self):
        rng = np.random.default_rng(2)
        cluster = rng.normal(scale=0.01, size=(100, 3))
        points = np.vstack([cluster, [[10.0, 10.0, 10.0]]])
        centroid = detect_centroid(points)
        cluster_radius = np.linalg.norm(cluster, axis=1).max()
        assert np.linalg.norm(centroid) <= cluster_radius, f"centroid {centroid}"

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 3))
        assert np.allclose(detect_centroid(-points), -detect_centroid(points), atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(64, 3))
        shuffled = points[rng.permutation(64)]
        assert np.allclose(detect_centroid(points), detect_centroid(shuffled), atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(NoDetectionError):
            detect_centroid(np.empty((0, 3)))


class TestObserve:
    def test_boresight_zero_edge_fraction(self):
        out = observe(ball_at((3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), CameraModel(), 0.0, 1)
        assert out is not None
        assert out.edge_fraction == 0.0
        assert out.bearing_azimuth == 0.0 and out.bearing_elevation == 0.0

    def test_frame_count_over_one_second(self):
        cam = CameraModel(frame_rate=30.0)
        params = ProjectileParams()
        ball = ball_at((3.0, 0.0, 2.0))
        uav = uav_at()
        dt = 0.001
        count = 0
        for k in range(1001):
            if observe(ball, params, uav, cam, k * dt, rng_seed=(1, k), physics_dt=dt) is not None:
                count += 1
        assert count in (30, 31), f"got {count} observations"

    def test_invisible_gives_none(self):
        assert observe(ball_at((-3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), CameraModel(), 0.0, 1) is None

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_noise_past_the_float_range_gives_none(self):
        cam = CameraModel(noise_sigma=1e308)
        assert observe(ball_at((3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), cam, 0.0, 1) is None

    def test_off_frame_tick_gives_none(self):
        out = observe(ball_at((3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), CameraModel(), 0.0155, 1)
        assert out is None

    def test_timestamps_quantized_and_increasing(self):
        cam = CameraModel(frame_rate=30.0)
        params = ProjectileParams()
        ball = ball_at((3.0, 0.0, 2.0))
        uav = uav_at()
        stamps = []
        for k in range(2001):
            out = observe(ball, params, uav, cam, k * 0.001, rng_seed=(1, k), physics_dt=0.001)
            if out is not None:
                stamps.append(out.timestamp)
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
        for s in stamps:
            assert s == pytest.approx(round(s * 30.0) / 30.0, abs=1e-12)

    def test_centroid_bias_within_one_radius(self):
        # hemisphere sampling biases the centroid toward the camera by < D/2
        params = ProjectileParams()
        out = observe(
            ball_at((3.0, 0.0, 2.0)), params,
            uav_at(), CameraModel(points_per_detection=200), 0.0, 7,
        )
        assert out is not None
        assert np.linalg.norm(out.position - np.array([3.0, 0.0, 2.0])) <= params.diameter_D / 2

    def test_edge_fraction_below_one_whenever_emitted(self):
        cam = CameraModel()
        params = ProjectileParams()
        uav = uav_at()
        rng = np.random.default_rng(12)
        emitted = 0
        for i in range(300):
            pos = rng.uniform([-4, -4, 0], [6, 4, 5])
            out = observe(ball_at(pos), params, uav, cam, 0.0, rng_seed=(5, i))
            if out is not None:
                emitted += 1
                assert out.edge_fraction < 1.0
        assert emitted > 10  # the sweep actually exercised emissions
