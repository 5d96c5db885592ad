"""Virtual forward-mounted depth camera.

Replaces the real colour-thresholding pipeline with a geometric model:
the ball is visible when its centre lies strictly inside both FOV
half-angles and within range; a detection is a synthetic point cloud
sampled on the camera-facing hemisphere of the ball surface (optionally
noisy), run through fringe filtering and a centroid. The camera owns
the frame clock: `frame_schedule` picks, once per run, the physics ticks
that carry a frame, so downstream consumers run at the camera rate
rather than the physics rate, and `frame_seeds` works out each of those
frames' noise seed.

Angle conventions (z-up world): yaw is CCW about +z, azimuth is positive
to the camera's left, elevation positive up, and pitch is a down-tilt of
the boresight (vehicle tilt under acceleration adds to the mount pitch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _seed_words(seed: int) -> tuple[int, ...]:
    """The 32-bit words, least significant first, that numpy's SeedSequence makes
    of a non-negative int: (0,) for 0, and no leading zero word otherwise."""
    words = [seed & 0xFFFF_FFFF]
    seed >>= 32
    while seed:
        words.append(seed & 0xFFFF_FFFF)
        seed >>= 32
    return tuple(words)


# numpy's SeedSequence: the hash constant's start and multiplier while
# the entropy is mixed in (A) and while the state is drawn (B), and mix's two multipliers
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of `calls` hashes and after the last,
    uint32: init, then each times mult mod 2**32."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFF_FFFF)
    return np.array(h, dtype=np.uint32)


def _consts(h: np.ndarray, calls, shape: tuple[int, ...] = (-1, 1)) -> tuple[np.ndarray, np.ndarray]:
    """What each of `calls` hashes mixes in (h[c]) and multiplies by (h[c + 1]),
    as arrays of `shape`, whose last axis broadcasts over the frames."""
    calls = np.asarray(calls)
    return h[calls].reshape(shape), h[calls + 1].reshape(shape)


def _cross_consts(h: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool word s's hashes into each pool word: the three others take the
    next three of h in order, and word s a spare, as the cross-mix keeps it."""
    first = 4 + 3 * s
    return _consts(h, [first + d - (d > s) if d != s else first for d in range(4)])


_MIX_H = _hash_consts(_INIT_A, _MULT_A, 16)  # four hashes fill the pool, then three per pool word
_FILL = _consts(_MIX_H, range(4))
_CROSS = [_cross_consts(_MIX_H, s) for s in range(4)]
# a PCG64 seed is eight uint32 words, word 4a + b drawn from pool word b
_DRAW = _consts(_hash_consts(_INIT_B, _MULT_B, 8), range(8), (2, 4, 1))


def _hash(v: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hashmix of v, broadcast against the constants."""
    x, m = consts
    v = v ^ x
    v *= m
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of y into x."""
    r = x * _MIX_L
    r -= y * _MIX_R
    r ^= r >> 16
    return r


def frame_seeds(seed: int, ticks: list[int]) -> np.ndarray:
    """Each frame's PCG64 seed words, (F, 4) uint64: row f is
    `np.random.SeedSequence((seed, ticks[f])).generate_state(4, np.uint64)`.

    This is SeedSequence's hash with its pool of four uint32 words, taken
    for all frames at once. The entropy is the seed's `_seed_words`, then
    the tick (one word: a tick past 2**32 - 1 raises OverflowError),
    zero-padded to four words. Only the tick word differs between frames,
    so each step is one array operation over them. A pool word's hashes
    into the other three are one step, since it is not written while it is
    their source, and an entropy word past the fourth is hashed into all
    four as one step. The hash constants do not depend on the input, so
    they are worked out once. Every operation is on uint32 arrays, which
    wrap silently; numpy warns when a uint32 scalar overflows.
    """
    words = _seed_words(seed)
    n = len(words) + 1
    entropy = np.zeros((max(n, 4), len(ticks)), dtype=np.uint32)
    entropy[: n - 1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[n - 1] = ticks

    pool = _hash(entropy[:4], _FILL)
    for s, consts in enumerate(_CROSS):
        mixed = _mix(pool, _hash(pool[s], consts))
        mixed[s] = pool[s]
        pool = mixed
    if n > 4:  # each entropy word past the fourth is mixed into every pool word
        h = _hash_consts(int(_MIX_H[-1]), _MULT_A, 4 * (n - 4))
        for i in range(n - 4):
            pool = _mix(pool, _hash(entropy[4 + i], _consts(h, range(4 * i, 4 * i + 4))))

    out = _hash(pool, _DRAW).reshape(8, -1)
    # word pairs make the uint64s, the first the low half, on any host
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


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
    `rng_seed` is anything `np.random.default_rng` takes: an int, a tuple
    of ints, a seed sequence or a bit generator. The run passes each frame
    a seed sequence that hands PCG64 the frame's row of `frame_seeds`,
    which draws the same stream as the frame's (seed, tick).

    `to_cam`'s length is `norm3`, and each row's norm and its dot product
    with `to_cam` are the same float sum taken by `add.reduce(..., axis=1)`,
    the norms in place. Each row is scaled by a radius of r signed as its
    dot product, which is r times the row mirrored onto the camera-facing
    hemisphere, since (-r) * d is -(r * d); a dot product of -0.0 mirrors
    its row too. The ball position and the noise are then added in place.
    """
    rng = np.random.default_rng(rng_seed)
    n = cam.points_per_detection

    to_cam = np.asarray(uav.position, dtype=float) - ball_position
    norm = norm3(to_cam)
    if norm == 0.0:
        to_cam = np.array([1.0, 0.0, 0.0])
    else:
        to_cam /= norm

    dirs = rng.normal(size=(n, 3))
    nrm = np.add.reduce(dirs * dirs, axis=1)
    np.sqrt(nrm, out=nrm)
    np.maximum(nrm, 1e-300, out=nrm)
    dirs /= nrm[:, None]

    # a radius of -r mirrors a row that faces away onto the camera-facing hemisphere
    r = 0.5 * params.diameter_D
    np.multiply(dirs, np.copysign(r, np.add.reduce(dirs * to_cam, axis=1))[:, None], out=dirs)
    dirs += ball_position
    if cam.noise_sigma > 0.0:
        dirs += rng.normal(scale=cam.noise_sigma, size=(n, 3))
    return dirs


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
    rng_seed,
) -> Observation | None:
    """One camera frame's detection of the ball, or None when it is not visible.

    Called once per frame of `frame_schedule`, with that frame's stamp.
    One evaluation of the camera geometry at the true centre gates
    visibility and gives the bearings and edge_fraction; the reported
    position is the fringe-filtered centroid of the sampled cloud, drawn
    with `rng_seed` (anything `np.random.default_rng` takes; see
    sample_point_cloud). A cloud whose centroid is not finite (noise
    past the float range) is no detection.
    """
    az, el, rng = _bearings(ball_position, uav, cam)
    if not _in_view(az, el, rng, cam):
        return None
    centroid = detect_centroid(sample_point_cloud(ball_position, params, uav, cam, rng_seed))
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
