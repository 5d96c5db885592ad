"""Synthetic depth-camera verification: visibility geometry, sampling statistics,
fringe filtering, and the frame schedule."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchsim.physics import ProjectileParams
from catchsim.sensor import (
    CameraModel,
    NoDetectionError,
    detect_centroid,
    frame_schedule,
    observe,
    sample_point_cloud,
    visible,
)
from catchsim.vehicle import UavState
from conftest import carries_frame


def uav_at(p=(0.0, 0.0, 2.0), yaw=0.0, pitch=0.0):
    return UavState(position=np.array(p, dtype=float), velocity=np.zeros(3), yaw=yaw, pitch=pitch)


def ball_at(p):
    return np.array(p, dtype=float)


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

    def test_camera_facing_hemisphere(self):
        ball = ball_at((3.0, 0.0, 2.0))
        cloud = sample_point_cloud(ball, ProjectileParams(), uav_at(), CameraModel(), rng_seed=9)
        to_cam = (uav_at().position - ball) / np.linalg.norm(uav_at().position - ball)
        assert np.all((cloud - ball) @ to_cam >= -1e-12)

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


def reference_cloud(ball_position, params, uav, cam, rng_seed):
    """The numpy-wrapper pipeline `sample_point_cloud` reproduces bit for bit."""
    rng = np.random.default_rng(rng_seed)
    n = cam.points_per_detection
    to_cam = np.asarray(uav.position, dtype=float) - ball_position
    norm = np.linalg.norm(to_cam)
    if norm == 0.0:
        to_cam = np.array([1.0, 0.0, 0.0])
    else:
        to_cam = to_cam / norm
    dirs = rng.normal(size=(n, 3))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    facing = dirs @ to_cam
    dirs[facing < 0.0] *= -1.0
    points = ball_position + 0.5 * params.diameter_D * dirs
    if cam.noise_sigma > 0.0:
        points = points + rng.normal(scale=cam.noise_sigma, size=(n, 3))
    return points


def reference_centroid(points):
    """The numpy-wrapper pipeline `detect_centroid` reproduces bit for bit."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise NoDetectionError("cannot take centroid of an empty point set")
    mu = points.mean(axis=0)
    dist = np.linalg.norm(points - mu, axis=1)
    keep = dist <= dist.std()
    if not keep.any():
        return mu
    return points[keep].mean(axis=0)


coordinate = st.floats(-20.0, 20.0)
position = st.tuples(coordinate, coordinate, coordinate)


class TestLeanDetectionMatchesReference:
    """The ufunc pipeline against the numpy-wrapper reference: same bytes.
    A noise of 1e200 overflows every squared distance, so the filter drops
    all points and the plain mean (still finite) comes back; 1e308 can
    overflow the mean itself (NaN), which observe reports as no detection."""

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 200),
        sigma=st.one_of(st.just(0.0), st.floats(1e-4, 1.0), st.sampled_from([1e200, 1e308])),
        ball=position,
        uav=st.one_of(st.none(), position),  # None: the UAV at the ball's centre
        seed=st.integers(0, 2**32),
    )
    @example(n=50, sigma=0.0, ball=(3.0, 0.0, 2.0), uav=None, seed=1)
    @example(n=50, sigma=1e308, ball=(3.0, 0.0, 2.0), uav=(0.0, 0.0, 2.0), seed=1)
    def test_cloud_and_centroid_bytes(self, n, sigma, ball, uav, seed):
        ball = ball_at(ball)
        drone = uav_at(ball if uav is None else uav)
        cam = CameraModel(noise_sigma=sigma, points_per_detection=n)
        params = ProjectileParams()
        cloud = sample_point_cloud(ball, params, drone, cam, rng_seed=(seed, 3))
        ref = reference_cloud(ball, params, drone, cam, rng_seed=(seed, 3))
        assert cloud.tobytes() == ref.tobytes()
        centroid = detect_centroid(cloud)
        assert centroid.tobytes() == reference_centroid(ref).tobytes()

    def test_no_point_within_one_std_gives_the_plain_mean(self):
        # two points equidistant from their mean: the distances' std is 0
        # and both lie 1 from the mean, so the filter keeps none
        points = np.array([[-1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])
        centroid = detect_centroid(points)
        assert centroid.tobytes() == reference_centroid(points).tobytes()
        assert centroid.tolist() == [0.0, 2.0, 0.5]


class TestObserve:
    def test_boresight_zero_edge_fraction(self):
        out = observe(ball_at((3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), CameraModel(), 0.0, 1)
        assert out is not None
        assert out.edge_fraction == 0.0
        assert out.bearing_azimuth == 0.0 and out.bearing_elevation == 0.0

    def test_invisible_gives_none(self):
        assert observe(ball_at((-3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), CameraModel(), 0.0, 1) is None

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_noise_past_the_float_range_gives_none(self):
        cam = CameraModel(noise_sigma=1e308)
        assert observe(ball_at((3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), cam, 0.0, 1) is None

    def test_timestamp_is_the_given_stamp(self):
        out = observe(ball_at((3.0, 0.0, 2.0)), ProjectileParams(), uav_at(), CameraModel(), 0.0025, 1)
        assert out.timestamp == 0.0025

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


class TestFrameSchedule:
    def test_frame_count_over_one_second(self):
        ticks, stamps = frame_schedule(30.0, 0.001, 1001)
        assert len(ticks) == len(stamps) and len(ticks) in (30, 31), f"got {len(ticks)} frames"

    def test_off_frame_tick_gives_none(self):
        # tick 31 of a 0.5 ms step is t = 0.0155 s, more than half a step from any 30 Hz frame
        ticks, _ = frame_schedule(30.0, 0.0005, 100)
        assert ticks[:2] == [0, 67] and 31 not in ticks

    def test_timestamps_quantized_and_increasing(self):
        _, stamps = frame_schedule(30.0, 0.001, 2001)
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
        for s in stamps:
            assert s == round(s * 30.0) / 30.0

    def test_tied_ticks_give_one_frame_to_the_first(self):
        # a 2.5 ms period is five half steps of 1 ms: ticks 2 and 3 both lie
        # half a step from the 2.5 ms frame, and only tick 2 carries it; at
        # 12.5 ms rounding puts both tied ticks a hair past half a step, and
        # the first, tick 12, carries it. Periods of three and seven half
        # steps tie the same way.
        dt = 0.001
        for fr in (400.0, 2000 / 3, 2000 / 7):
            ticks, stamps = frame_schedule(fr, dt, 1000)
            on_frame = {}
            for k in range(1000):
                if carries_frame(k, dt, fr):
                    on_frame.setdefault(round(k * dt * fr), []).append(k)
            assert any(len(tied) > 1 for tied in on_frame.values())
            assert ticks == [tied[0] for tied in on_frame.values()]
            assert stamps == [f / fr for f in on_frame]
            assert [round(s * fr) for s in stamps] == list(range(len(stamps)))  # no frame skipped
            assert all(b > a for a, b in zip(stamps, stamps[1:]))
        ticks, stamps = frame_schedule(400.0, dt, 1000)
        assert ticks[:7] == [0, 2, 5, 7, 10, 12, 15] and stamps[:3] == [0.0, 0.0025, 0.005]
        assert len(ticks) == 400

    def test_frames_past_the_tick_rate_stay_lost(self):
        # at 2500 Hz and a 1 ms step each tick carries its nearest frame; the
        # frames between them have no tick
        ticks, stamps = frame_schedule(2500.0, 0.001, 100)
        assert ticks == list(range(100))
        assert round(stamps[-1] * 2500.0) > 200  # ~2.5 frames a tick: most have none

    def test_no_ticks_no_frames(self):
        assert frame_schedule(30.0, 0.001, 0) == ([], [])
