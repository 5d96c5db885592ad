"""Virtual forward-mounted depth camera.

Replaces the real colour-thresholding pipeline with a geometric model:
the ball is visible when its centre lies strictly inside both FOV
half-angles and within range; a detection is a synthetic point cloud
sampled on the camera-facing hemisphere of the ball surface (optionally
noisy), run through fringe filtering and a centroid. The camera owns
the frame clock: `frame_schedule` picks, once per run, the physics ticks
that carry a frame, so downstream consumers run at the camera rate
rather than the physics rate, and `frame_draws` deals each of those
frames its point-cloud draws from one stream per run.

Angle conventions (z-up world): yaw is CCW about +z, azimuth is positive
to the camera's left, elevation positive up, and pitch is a down-tilt of
the boresight (vehicle tilt under acceleration adds to the mount pitch).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from .physics import ProjectileParams, norm3

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


# A block of point-cloud draws holds this many frames, or fewer where
# that would pass BLOCK_VALUES normal draws; a frame larger than that is a block alone
BLOCK_FRAMES = 32
BLOCK_VALUES = 2**16


def frame_draws(seed: int, cam: CameraModel, n_frames: int) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Each of `n_frames` frames' point-cloud draws, in frame order: its
    (points_per_detection, 3) unit directions, and its noise or None.

    The directions come from the first child stream of
    `SeedSequence(seed)` and the noise from the second, which is read only
    when noise_sigma is positive and is scaled by it. Both streams are read
    frame-major, a block of frames per call, drawn when the loop reaches
    the block's first frame: the block size changes only speed, never a
    value. Every frame takes its slice whether or not it detects the ball,
    so frame f's draws depend on the seed, f, points_per_detection and
    noise_sigma alone, not on what earlier frames saw or the planner did.
    A block's directions are normalised at once, each row's norm the float
    sum (x*x + y*y) + z*z of its columns.
    """
    n = cam.points_per_detection
    sigma = cam.noise_sigma
    block = max(1, min(BLOCK_FRAMES, BLOCK_VALUES // (3 * n)))
    dir_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)  # numpy.random: imported by the first run
    dir_rng = np.random.default_rng(dir_seq)
    noise_rng = np.random.default_rng(noise_seq) if sigma > 0.0 else None
    for start in range(0, n_frames, block):
        b = min(block, n_frames - start)
        dirs = dir_rng.standard_normal((b, n, 3))
        sq = dirs * dirs
        nrm = sq[..., 0] + sq[..., 1]
        nrm += sq[..., 2]
        np.sqrt(nrm, out=nrm)
        np.maximum(nrm, 1e-300, out=nrm)
        dirs /= nrm[..., None]
        noise = repeat(None)
        if noise_rng is not None:
            noise = noise_rng.standard_normal((b, n, 3))
            noise *= sigma
        yield from zip(dirs, noise)


def sample_point_cloud(
    ball_position: np.ndarray,
    params: ProjectileParams,
    uav: "UavState",
    dirs: np.ndarray,
    noise: np.ndarray | None,
) -> np.ndarray:
    """Sample the camera-facing hemisphere of the ball surface, (N, 3).

    `dirs` and `noise` are one frame's draws from `frame_draws`: N unit
    directions, and N rows of isotropic Gaussian noise of `noise_sigma`,
    or None without noise. Each direction that faces away from the camera
    is mirrored onto the camera-facing hemisphere, so the points are
    uniform over it; the caller gates on visibility.

    `to_cam`'s length is `norm3`, and each row's dot product with `to_cam`
    is the float sum taken by `add.reduce(..., axis=1)`. Each row is scaled
    by a radius of r signed as its dot product, which is r times the row
    mirrored onto the camera-facing hemisphere, since (-r) * d is -(r * d);
    a dot product of -0.0 mirrors its row too. The ball position and the
    noise are then added to those rows in place; `dirs` and `noise` are
    only read.
    """
    to_cam = np.asarray(uav.position, dtype=float) - ball_position
    norm = norm3(to_cam)
    if norm == 0.0:
        to_cam = np.array([1.0, 0.0, 0.0])
    else:
        to_cam /= norm

    # a radius of -r mirrors a row that faces away onto the camera-facing hemisphere
    r = 0.5 * params.diameter_D
    points = dirs * np.copysign(r, np.add.reduce(dirs * to_cam, axis=1))[:, None]
    points += ball_position
    if noise is not None:
        points += noise
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
    deviations, mean square, square root). The squares are taken in place,
    the two scalar means are Python floats, which divide as numpy's do,
    and `compress` gathers the kept rows as `points[keep]` does, at less
    cost. The sums stay numpy's: its axis-0 sums are sequential but its
    1-D sums pairwise, so a float loop would round differently.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise NoDetectionError("cannot take centroid of an empty point set")
    n = len(points)
    mu = np.add.reduce(points, axis=0) / n
    off = points - mu
    off *= off
    dist = np.add.reduce(off, axis=1)
    np.sqrt(dist, out=dist)
    dev = dist - float(np.add.reduce(dist)) / n
    dev *= dev
    keep = dist <= math.sqrt(float(np.add.reduce(dev)) / n)
    count = np.count_nonzero(keep)
    if count == 0:
        return mu
    return np.add.reduce(points.compress(keep, axis=0), axis=0) / count


def observe(
    ball_position: np.ndarray,
    params: ProjectileParams,
    uav: "UavState",
    cam: CameraModel,
    timestamp: float,
    dirs: np.ndarray,
    noise: np.ndarray | None,
) -> Observation | None:
    """One camera frame's detection of the ball, or None when it is not visible.

    Called once per frame of `frame_schedule`, with that frame's stamp.
    One evaluation of the camera geometry at the true centre gates
    visibility and gives the bearings and edge_fraction; the reported
    position is the fringe-filtered centroid of the cloud that
    sample_point_cloud makes of the frame's draws `dirs` and `noise` (see
    frame_draws). A cloud whose centroid is not finite (noise past the
    float range) is no detection.
    """
    az, el, rng = _bearings(ball_position, uav, cam)
    if not _in_view(az, el, rng, cam):
        return None
    centroid = detect_centroid(sample_point_cloud(ball_position, params, uav, dirs, noise))
    cx, cy, cz = centroid.tolist()
    if not (math.isfinite(cx) and math.isfinite(cy) and math.isfinite(cz)):
        return None
    edge = max(abs(az) / (0.5 * cam.horizontal_fov), abs(el) / (0.5 * cam.vertical_fov))
    return Observation(
        position=centroid,
        timestamp=timestamp,
        bearing_azimuth=az,
        bearing_elevation=el,
        edge_fraction=edge,
    )
