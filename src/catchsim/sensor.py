"""Virtual forward-mounted depth camera.

Replaces the real colour-thresholding pipeline with a geometric model:
the ball is visible when its centre lies strictly inside both FOV
half-angles and within range; a detection is a synthetic point cloud
sampled on the camera-facing hemisphere of the ball surface (optionally
noisy), run through fringe filtering and a centroid. The camera owns
the frame clock: `frame_schedule` picks, once per run, the physics ticks
that carry a frame, so downstream consumers run at the camera rate
rather than the physics rate.

Angle conventions (z-up world): yaw is CCW about +z, azimuth is positive
to the camera's left, elevation positive up, and pitch is a down-tilt of
the boresight (vehicle tilt under acceleration adds to the mount pitch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .physics import ProjectileParams

if TYPE_CHECKING:
    from .vehicle import UavState


MAX_POINTS_PER_DETECTION = 100_000  # a detection holds a few (n, 3) float arrays: ~10 MB at the bound


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
        if not 1 <= self.points_per_detection <= MAX_POINTS_PER_DETECTION:
            raise ValueError(
                f"camera.points_per_detection: must lie in [1, {MAX_POINTS_PER_DETECTION}], "
                f"got {self.points_per_detection}"
            )


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


def _in_view(az: float, el: float, rng: float, cam: CameraModel) -> bool:
    """Do bearings (az, el) at range rng lie strictly inside both FOV half-angles and in range?"""
    return rng <= cam.max_range and abs(az) < 0.5 * cam.horizontal_fov and abs(el) < 0.5 * cam.vertical_fov


def visible(ball_position: np.ndarray, uav: "UavState", cam: CameraModel) -> bool:
    """True iff the ball centre lies strictly inside both FOV half-angles and in range."""
    return _in_view(*_bearings(ball_position, uav, cam), cam)


def frame_schedule(frame_rate: float, dt: float, n_ticks: int) -> tuple[list[int], list[float]]:
    """The physics ticks that carry a camera frame, and each frame's timestamp.

    Tick k is on a frame when k * dt lies within half a step of a multiple
    of the frame period, and that exact multiple is the frame's stamp. Two
    ticks can tie for one frame (a period that is an odd multiple of half a
    step); rounding decides which of them lie within half a step, and the
    first that does carries the frame. When neither does, the first of the
    two carries it, so every tied frame has a tick and stamps strictly
    increase. A frame rate above the tick rate leaves the frames between
    two ticks' nearest ones with no tick.
    """
    times = np.arange(n_ticks + 1) * dt  # and one tick past the end, to tie with the last
    frames = np.round(times * frame_rate)
    stamps = frames / frame_rate
    on = np.abs(times - stamps) <= 0.5 * dt
    # both tied ticks a hair past half a step: the one before the stamp carries it
    on[:-1] |= (frames[:-1] == frames[1:]) & (times[:-1] < stamps[:-1]) & (stamps[:-1] < times[1:]) & ~on[1:]
    ticks = np.flatnonzero(on[:-1])
    ticks = ticks[np.diff(frames[ticks], prepend=-1.0) != 0.0]
    return ticks.tolist(), stamps[ticks].tolist()


def sample_point_cloud(
    ball_position: np.ndarray,
    params: ProjectileParams,
    uav: "UavState",
    cam: CameraModel,
    rng_seed,
) -> np.ndarray:
    """Sample the camera-facing hemisphere of the ball surface, (N, 3).

    Points are uniform over the hemisphere whose outward normal faces the
    camera, each perturbed by isotropic Gaussian noise of `noise_sigma`.
    Deterministic for a fixed seed; the caller gates on visibility.

    numpy's ufuncs are called directly and round as its wrappers do:
    `sqrt(to_cam . to_cam)` is the 1-D `np.linalg.norm`,
    `sqrt(add.reduce(x * x, axis=1))` its `axis=1` form, and scaling each
    row by -1 or 1 is negating the rows that face away. `np.vecdot` is not
    used for the row norms: it sums each row as the 1-D norm does, up to
    2 ulp off the `axis=1` norm on about one row in ten.
    """
    rng = np.random.default_rng(rng_seed)
    n = cam.points_per_detection

    to_cam = np.asarray(uav.position, dtype=float) - ball_position
    norm = math.sqrt(to_cam.dot(to_cam))
    if norm == 0.0:
        to_cam = np.array([1.0, 0.0, 0.0])
    else:
        to_cam = to_cam / norm

    dirs = rng.normal(size=(n, 3))
    dirs /= np.maximum(np.sqrt(np.add.reduce(dirs * dirs, axis=1, keepdims=True)), 1e-300)
    facing = dirs @ to_cam
    dirs *= np.where(facing < 0.0, -1.0, 1.0)[:, None]  # mirror onto the camera-facing hemisphere

    points = ball_position + 0.5 * params.diameter_D * dirs
    if cam.noise_sigma > 0.0:
        points = points + rng.normal(scale=cam.noise_sigma, size=(n, 3))
    return points


def detect_centroid(points: np.ndarray) -> np.ndarray:
    """Fringe-filtered centroid of a point set.

    Points farther than one standard deviation (of the point-to-mean
    distances) from the mean are discarded before the final mean. If the
    filter would discard everything, the unfiltered mean is returned.

    Each reduction rounds as numpy's wrapper does, without its call cost:
    `add.reduce(x, axis=0) / n` is `x.mean(axis=0)`, the distances are
    `np.linalg.norm(axis=1)`'s `sqrt(add.reduce(x * x, axis=1))`, and the
    threshold is `dist.std()` in the steps `ndarray.std` takes (mean,
    deviations, mean square, square root).
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise NoDetectionError("cannot take centroid of an empty point set")
    n = len(points)
    mu = np.add.reduce(points, axis=0) / n
    off = points - mu
    dist = np.sqrt(np.add.reduce(off * off, axis=1))
    dev = dist - np.add.reduce(dist) / n
    keep = dist <= math.sqrt(np.add.reduce(dev * dev) / n)
    count = np.count_nonzero(keep)
    if count == 0:
        return mu
    return np.add.reduce(points[keep], axis=0) / count


def observe(
    ball_position: np.ndarray,
    params: ProjectileParams,
    uav: "UavState",
    cam: CameraModel,
    timestamp: float,
    rng_seed,
) -> Observation | None:
    """One camera frame's detection of the ball, or None when it is not visible.

    Called once per frame of `frame_schedule`, with that frame's stamp.
    One evaluation of the camera geometry at the true centre gates
    visibility and gives the bearings and edge_fraction; the reported
    position is the fringe-filtered centroid of the sampled cloud. A cloud
    whose centroid is not finite (noise past the float range) is no
    detection.
    """
    az, el, rng = _bearings(ball_position, uav, cam)
    if not _in_view(az, el, rng, cam):
        return None
    centroid = detect_centroid(sample_point_cloud(ball_position, params, uav, cam, rng_seed))
    if not np.isfinite(centroid).all():
        return None
    edge = max(abs(az) / (0.5 * cam.horizontal_fov), abs(el) / (0.5 * cam.vertical_fov))
    return Observation(
        position=centroid,
        timestamp=timestamp,
        bearing_azimuth=az,
        bearing_elevation=el,
        edge_fraction=edge,
    )
