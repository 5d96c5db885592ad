"""Virtual forward-mounted depth camera.

Replaces the real colour-thresholding pipeline with a geometric model:
the ball is visible when its centre lies strictly inside both FOV
half-angles and within range; a detection is a synthetic point cloud
sampled on the camera-facing hemisphere of the ball surface (optionally
noisy), run through fringe filtering and a centroid. Frames are emitted
at the camera rate only, so downstream consumers naturally run at
camera frequency rather than the physics rate.

Angle conventions (z-up world): yaw is CCW about +z, azimuth is positive
to the camera's left, elevation positive up, and pitch is a down-tilt of
the boresight (vehicle tilt under acceleration adds to the mount pitch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .physics import BallState, ProjectileParams

if TYPE_CHECKING:
    from .vehicle import UavState


class NoDetectionError(ValueError):
    """Centroid requested from an empty point set."""


@dataclass
class CameraModel:
    """Depth-camera geometry and sampling parameters."""

    horizontal_fov: float = 1.204  # rad
    vertical_fov: float = 0.733  # rad
    frame_rate: float = 30.0  # Hz
    max_range: float = 10.0  # m
    noise_sigma: float = 0.0  # m, isotropic per-point noise
    points_per_detection: int = 50
    mount_pitch: float = 0.0  # rad, down-tilt relative to the vehicle body

    def __post_init__(self):
        if not (0.0 < self.horizontal_fov < math.pi) or not (0.0 < self.vertical_fov < math.pi):
            raise ValueError("FOV angles must lie in (0, pi)")
        if self.frame_rate <= 0.0:
            raise ValueError(f"frame_rate must be > 0, got {self.frame_rate}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.points_per_detection < 1:
            raise ValueError(f"points_per_detection must be >= 1, got {self.points_per_detection}")


@dataclass
class Observation:
    """One detected object position (world frame) with its camera bearings."""

    position: np.ndarray  # m, detected centroid
    timestamp: float  # s, quantized to the frame period
    bearing_azimuth: float  # rad, + to the camera's left
    bearing_elevation: float  # rad, + up
    edge_fraction: float  # in [0, 1): 0 = boresight, 1 = at the FOV edge


def _camera_basis(uav: "UavState", cam: CameraModel):
    """Orthonormal (boresight, left, up) axes of the camera in the world frame."""
    psi = uav.yaw
    alpha = cam.mount_pitch + uav.pitch  # total down-tilt
    cp, sp = math.cos(psi), math.sin(psi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    boresight = (ca * cp, ca * sp, -sa)
    left = (-sp, cp, 0.0)
    up = (sa * cp, sa * sp, ca)
    return boresight, left, up


def _bearings(ball_position: np.ndarray, uav: "UavState", cam: CameraModel):
    """(azimuth, elevation, range) of a world point in the camera frame."""
    b, l, u = _camera_basis(uav, cam)
    rx = float(ball_position[0]) - float(uav.position[0])
    ry = float(ball_position[1]) - float(uav.position[1])
    rz = float(ball_position[2]) - float(uav.position[2])
    x = rx * b[0] + ry * b[1] + rz * b[2]
    y = rx * l[0] + ry * l[1] + rz * l[2]
    z = rx * u[0] + ry * u[1] + rz * u[2]
    az = math.atan2(y, x)
    el = math.atan2(z, x)
    rng = math.sqrt(rx * rx + ry * ry + rz * rz)
    return az, el, rng


def visible(ball_position: np.ndarray, uav: "UavState", cam: CameraModel) -> bool:
    """True iff the ball centre lies strictly inside both FOV half-angles and in range."""
    az, el, rng = _bearings(ball_position, uav, cam)
    return (
        rng <= cam.max_range
        and abs(az) < 0.5 * cam.horizontal_fov
        and abs(el) < 0.5 * cam.vertical_fov
    )


def sample_point_cloud(
    ball: BallState,
    params: ProjectileParams,
    uav: "UavState",
    cam: CameraModel,
    rng_seed,
) -> np.ndarray:
    """Sample the camera-facing hemisphere of the ball surface, (N, 3).

    Points are uniform over the hemisphere whose outward normal faces the
    camera, each perturbed by isotropic Gaussian noise of `noise_sigma`.
    Deterministic for a fixed seed; returns an empty (0, 3) array when the
    ball is not visible.
    """
    if not visible(ball.position, uav, cam):
        return np.empty((0, 3))
    rng = np.random.default_rng(rng_seed)
    n = cam.points_per_detection

    to_cam = np.asarray(uav.position, dtype=float) - ball.position
    norm = np.linalg.norm(to_cam)
    if norm == 0.0:
        to_cam = np.array([1.0, 0.0, 0.0])
    else:
        to_cam = to_cam / norm

    dirs = rng.normal(size=(n, 3))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    facing = dirs @ to_cam
    dirs[facing < 0.0] *= -1.0  # mirror onto the camera-facing hemisphere

    points = ball.position + 0.5 * params.diameter_D * dirs
    if cam.noise_sigma > 0.0:
        points = points + rng.normal(scale=cam.noise_sigma, size=(n, 3))
    return points


def detect_centroid(points: np.ndarray) -> np.ndarray:
    """Fringe-filtered centroid of a point set.

    Points farther than one standard deviation (of the point-to-mean
    distances) from the mean are discarded before the final mean. If the
    filter would discard everything, the unfiltered mean is returned.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise NoDetectionError("cannot take centroid of an empty point set")
    mu = points.mean(axis=0)
    dist = np.linalg.norm(points - mu, axis=1)
    keep = dist <= dist.std()
    if not keep.any():
        return mu
    return points[keep].mean(axis=0)


def observe(
    ball: BallState,
    params: ProjectileParams,
    uav: "UavState",
    cam: CameraModel,
    sim_time: float,
    rng_seed,
    physics_dt: float = 0.001,
) -> Observation | None:
    """Emit an Observation on camera frame boundaries while the ball is visible.

    A frame fires when `sim_time` is within half a physics step of a
    multiple of the frame period; the observation's timestamp is that
    exact multiple, so timestamps stay quantized even when the physics
    step does not divide the frame period. Bearings and edge_fraction are
    computed from the true centre (the same geometry that gates
    visibility); the reported position is the fringe-filtered centroid of
    the sampled cloud. A cloud whose centroid is not finite (noise past
    the float range) is no detection.
    """
    frame_idx = round(sim_time * cam.frame_rate)
    if frame_idx < 0:
        return None
    t_frame = frame_idx / cam.frame_rate
    if abs(sim_time - t_frame) > 0.5 * physics_dt:
        return None
    if not visible(ball.position, uav, cam):
        return None

    cloud = sample_point_cloud(ball, params, uav, cam, rng_seed)
    centroid = detect_centroid(cloud)
    if not np.isfinite(centroid).all():
        return None
    az, el, _ = _bearings(ball.position, uav, cam)
    edge = max(abs(az) / (0.5 * cam.horizontal_fov), abs(el) / (0.5 * cam.vertical_fov))
    return Observation(
        position=centroid,
        timestamp=t_frame,
        bearing_azimuth=az,
        bearing_elevation=el,
        edge_fraction=edge,
    )
