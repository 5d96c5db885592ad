"""Trajectory prediction from a sliding window of camera detections.

Velocity comes from a per-axis least-squares line fit over a fixed-size
queue of timestamped positions (a moving window, so the estimate tracks
the ball as new detections arrive). The future path is then propagated
with the explicit kinematic update

    p <- p + v dt + 1/2 a dt^2
    v <- v + a dt

where the acceleration is recomputed every step from the drag model,
evaluated inline as `physics.drag_accel` evaluates it, bit for bit. This
is deliberately coarser than the RK4 ground truth so the two can be
compared as independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .physics import (
    _NONFINITE_STATE, _SPEED_FLOOR, BallState, DragMode, Environment, ProjectileParams, drag_coefficient, norm3
)
from .sensor import Observation


class InsufficientDataError(ValueError):
    """Fewer than two queue entries: no velocity can be fit."""


class DegenerateRegressionError(ValueError):
    """All queue timestamps coincide: the regression denominator is zero."""


class ObservationOrderError(ValueError):
    """Pushed observation does not advance the queue's newest timestamp."""


@dataclass
class ObservationQueue:
    """FIFO window of (timestamp, position) pairs; oldest entry evicted first."""

    capacity: int = 5
    entries: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def newest(self) -> tuple[float, np.ndarray]:
        return self.entries[-1]


def push_observation(queue: ObservationQueue, obs: Observation) -> ObservationQueue:
    """Append an observation, evicting the oldest entry past capacity."""
    if queue.entries and obs.timestamp <= queue.entries[-1][0]:
        raise ObservationOrderError(
            f"timestamp {obs.timestamp} not after newest {queue.entries[-1][0]}"
        )
    queue.entries.append((obs.timestamp, np.asarray(obs.position, dtype=float)))
    if len(queue.entries) > queue.capacity:
        del queue.entries[0]
    return queue


def estimate_velocity(queue: ObservationQueue) -> np.ndarray:
    """Per-axis least-squares slope of position vs time over the queue.

    slope_i = (n * sum(t p_i) - sum(p_i) sum(t)) / (n * sum(t^2) - sum(t)^2)

    Timestamps are re-based to the oldest entry before summation so the
    denominator does not cancel catastrophically for large absolute times.

    Each sum rounds as `ndarray.sum` does. The two sums over times stay
    numpy's, because numpy sums a 1-D array pairwise once it holds more
    than eight entries. The sums over positions are numpy's axis-0 sums of
    an (n, 3) array, which add the rows one after another in order, so
    they and the slopes are taken here in Python floats, starting from the
    first row as numpy does.
    """
    entries = queue.entries
    n = len(entries)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 observations, have {n}")
    t0 = entries[0][0]
    ts = np.array([t - t0 for t, _ in entries])
    st = float(np.add.reduce(ts))
    stt = float(np.add.reduce(ts * ts))
    denom = n * stt - st * st
    if denom == 0.0:
        raise DegenerateRegressionError("all timestamps equal; slope undefined")
    rows = zip(ts.tolist(), [p.tolist() for _, p in entries])
    t, (sx, sy, sz) = next(rows)
    ux, uy, uz = t * sx, t * sy, t * sz
    for t, (x, y, z) in rows:
        sx += x
        sy += y
        sz += z
        ux += t * x
        uy += t * y
        uz += t * z
    return np.array(((n * ux - sx * st) / denom, (n * uy - sy * st) / denom, (n * uz - sz * st) / denom))


@dataclass
class PropagationStop:
    """When to stop propagating: horizon past the seed time, or ground reached."""

    max_horizon: float = 3.0  # s
    ground_height: float = 0.0  # m


@dataclass
class PredictedPath:
    """Ordered future samples of the object: positions[i] at times[i].

    Times increase; a predicted path's first sample is the seed state.
    """

    positions: np.ndarray  # (N, 3) m
    times: np.ndarray  # (N,) s

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) == 0:
            raise ValueError("PredictedPath must be non-empty")
        if self.positions.shape != (len(self.times), 3):
            raise ValueError("positions must be (N, 3) matching times")

    def __len__(self) -> int:
        return len(self.times)


def predict_path(
    initial: BallState,
    params: ProjectileParams,
    env: Environment,
    t_step: float = 0.01,
    stop: PropagationStop | None = None,
) -> PredictedPath:
    """Propagate the ball forward from `initial` until the stop rule fires.

    Each step recomputes Re, Cd and the drag acceleration at the current
    velocity, then applies the explicit kinematic update. The sample that
    first dips below `stop.ground_height` is retained so a ground crossing
    can still be interpolated from the path.
    """
    return _propagate(initial.position.tolist(), initial.velocity.tolist(), initial.time, params, env, t_step, stop)


def _propagate(position, velocity, t0, params, env, t_step, stop) -> PredictedPath:
    """predict_path from the seed state's position and velocity floats and its time."""
    if not (math.isfinite(t_step) and t_step > 0.0):
        raise ValueError(f"t_step must be > 0, got {t_step}")
    if stop is None:
        stop = PropagationStop()
    px, py, pz = position
    vx, vy, vz = velocity

    xs = [px]
    ys = [py]
    zs = [pz]
    max_steps = int(math.floor(stop.max_horizon / t_step + 1e-9))
    ground = stop.ground_height
    # drag_accel(params, env) written out at each step: the same float operations, without the calls
    free, g, half_rho = params.drag_mode is DragMode.NONE, env.gravity_g, 0.5 * env.air_density_rho
    D, nu, A, m = params.diameter_D, env.kinematic_viscosity_nu, params.reference_area_A, params.mass_m
    floor, inf, sqrt, half = _SPEED_FLOOR, math.inf, math.sqrt, 0.5 * t_step * t_step
    for _ in range(max_steps):
        speed = sqrt(vx * vx + vy * vy + vz * vz)
        if free or speed < floor:
            ax, ay, az = 0.0, 0.0, -g
        else:
            Re = speed * D / nu
            if not 0.0 < Re < inf:
                drag_coefficient(Re)  # raises its ValueError
            r5, rc, r6 = Re / 5.0, Re / 2.63e5, Re / 1.0e6
            k = half_rho * (24.0 / Re + 2.6 * r5 / (1.0 + r5**1.52) + 0.411 * rc**-7.94 / (1.0 + rc**-8.0)
                            + 0.25 * r6 / (1.0 + r6)) * speed * speed * A / m / speed
            ax, ay, az = -k * vx, -k * vy, -g - k * vz
        px += vx * t_step + ax * half
        py += vy * t_step + ay * half
        pz += vz * t_step + az * half
        vx += ax * t_step
        vy += ay * t_step
        vz += az * t_step
        xs.append(px)
        ys.append(py)
        zs.append(pz)
        if pz < ground:
            break

    return PredictedPath(
        positions=np.array((xs, ys, zs), dtype=float).T.copy(),  # C-contiguous (N, 3): one row per sample
        times=t0 + t_step * np.arange(len(xs)),
    )


def predict_from_queue(
    queue: ObservationQueue,
    params: ProjectileParams,
    env: Environment,
    t_step: float = 0.01,
    stop: PropagationStop | None = None,
) -> PredictedPath:
    """Seed a prediction from the queue: newest position, fitted velocity, newest time.
    The seed is checked as BallState checks it and propagated from its floats."""
    velocity = estimate_velocity(queue).tolist()
    t_newest, p_newest = queue.newest
    position = p_newest.tolist()
    if not all(map(math.isfinite, (*position, *velocity, t_newest))):
        raise ValueError(_NONFINITE_STATE)
    return _propagate(position, velocity, t_newest, params, env, t_step, stop)


def plane_crossing(
    path: PredictedPath, plane_point: np.ndarray, plane_normal: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """First crossing of the path through the plane, linearly interpolated.

    Scans consecutive sample pairs for a sign change of the signed distance
    to the plane; a sample lying exactly on the plane counts as a crossing
    at that sample. Returns (position, time) or None if the path never
    crosses.
    """
    plane_normal = np.asarray(plane_normal, dtype=float)
    if abs(norm3(plane_normal) - 1.0) > 1e-6:
        raise ValueError("plane_normal must have unit norm")
    plane_point = np.asarray(plane_point, dtype=float)

    s = np.add.reduce((path.positions - plane_point) * plane_normal, axis=1)  # each row's dot3
    on_plane = np.flatnonzero(s == 0.0)
    # signs, not a product of distances, which can overflow or underflow to 0
    sign = np.sign(s)
    sign_flip = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)

    i_on = int(on_plane[0]) if len(on_plane) else None
    i_flip = int(sign_flip[0]) if len(sign_flip) else None
    if i_on is None and i_flip is None:
        return None
    if i_flip is None or (i_on is not None and i_on <= i_flip):
        return path.positions[i_on].copy(), float(path.times[i_on])

    lam = s[i_flip] / (s[i_flip] - s[i_flip + 1])
    pos = path.positions[i_flip] + lam * (path.positions[i_flip + 1] - path.positions[i_flip])
    t = float(path.times[i_flip] + lam * (path.times[i_flip + 1] - path.times[i_flip]))
    return pos, t
