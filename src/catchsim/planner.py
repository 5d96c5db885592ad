"""Interception path planning.

Three methods over the predicted object path:

* cat & mouse — chase the latest detection directly; no prediction.
* shortest path — of the path samples the UAV can reach before the
  object does (the reachable region), pick the one nearest the UAV.
* fastest path — of the reachable region, pick the sample earliest
  along the object's path.

Cat & mouse returns a setpoint; the shortest and fastest planners return
only the chosen path index. The harness turns that index into the
frame's one setpoint and owns the hysteresis that may hold the old one.

Plus the yaw law that re-centres the object when it drifts too close to
the FOV edge, and the trapezoidal time-to-reach estimate behind the
reachable-region computation. That estimate starts the UAV from rest, so
it is optimistic when the UAV is moving away from a target.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .predictor import PredictedPath
from .sensor import Observation
from .vehicle import UavState, wrap_angle


class PlanMethod(str, Enum):
    CAT_MOUSE = "cat_mouse"
    SHORTEST_PATH = "shortest_path"
    FASTEST_PATH = "fastest_path"


@dataclass
class UavLimits:
    """Point-mass performance envelope of the vehicle."""

    max_speed: float = 3.0  # m/s
    max_accel: float = 6.0  # m/s^2
    max_yaw_rate: float = 2.0  # rad/s
    intercept_radius: float = 0.35  # m


@dataclass
class Setpoint:
    """Commanded target position and heading."""

    target_position: np.ndarray  # m
    target_yaw: float  # rad, in (-pi, pi]
    path_index: int | None = None  # which predicted sample was chosen, if any

    def __post_init__(self):
        self.target_position = np.asarray(self.target_position, dtype=float)


@dataclass
class ReachableRegion:
    """Path sample indices the UAV can reach no later than the object.

    margins[k] is the object's arrival time at indices[k] minus the UAV's
    time-to-reach; every listed margin is >= 0 by construction.
    distances[k] is the UAV's straight-line distance to sample indices[k]
    when the region was computed, so the planners need not take it again.
    """

    indices: np.ndarray  # strictly increasing sample indices
    margins: np.ndarray  # s, aligned with indices
    distances: np.ndarray  # m, aligned with indices

    def __len__(self) -> int:
        return len(self.indices)


def _trapezoid_time(d, limits: UavLimits) -> np.ndarray:
    """Time to cover distance(s) d from rest: accelerate, then cruise.

    With accel a and cruise speed v: t = d/v + v/(2a) once d >= v^2/(2a),
    else t = sqrt(2 d / a). An overflowed d / v is +inf: unreachable, which
    is the right answer. It is quiet only under the caller's
    `np.errstate(invalid="ignore", over="ignore")`; elsewhere numpy warns.
    """
    v, a = limits.max_speed, limits.max_accel
    return np.where(d >= v * v / (2.0 * a), d / v + v / (2.0 * a), np.sqrt(2.0 * d / a))


def row_distances(positions: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Distance from `point` to each row of `positions`, as np.linalg.norm(positions - point,
    axis=1) computes it, bit for bit. A distance past the float range is +inf, quiet only
    under the caller's `np.errstate(over="ignore")`; elsewhere numpy warns."""
    diff = positions - point
    return np.sqrt(np.add.reduce(diff * diff, axis=1))


def reachable_region(path: PredictedPath, now: float, uav: UavState, limits: UavLimits) -> ReachableRegion:
    """Indices i whose trapezoidal time-to-reach is <= sample i's arrival time - now.

    Sample times are absolute, so the inclusion test only needs `now`. An
    overflowed distance reads as unreachable (see _trapezoid_time); one
    `errstate` quiets both the distances and the times.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        d = row_distances(path.positions, uav.position)
        margins = (path.times - now) - _trapezoid_time(d, limits)
    mask = margins >= 0.0
    return ReachableRegion(indices=np.flatnonzero(mask), margins=margins[mask], distances=d[mask])


def yaw_command(obs: Observation, uav: UavState, edge_threshold: float = 0.8) -> float:
    """Absolute yaw that re-centres the object once it nears the FOV edge.

    Engages at edge_fraction >= edge_threshold (the observation already
    carries the bearing geometry); otherwise holds the current heading.
    Output is normalized to (-pi, pi].
    """
    if obs.edge_fraction >= edge_threshold:
        return wrap_angle(uav.yaw + obs.bearing_azimuth)
    return wrap_angle(uav.yaw)


def plan_cat_mouse(obs: Observation, uav: UavState, yaw_enabled: bool, yaw_threshold: float = 0.8) -> Setpoint:
    """Chase the detection: the setpoint is exactly the observed position."""
    target_yaw = yaw_command(obs, uav, yaw_threshold) if yaw_enabled else wrap_angle(uav.yaw)
    return Setpoint(
        target_position=np.asarray(obs.position, dtype=float).copy(),
        target_yaw=target_yaw,
        path_index=None,
    )


def plan_shortest(region: ReachableRegion) -> int:
    """Index of the reachable path sample nearest the UAV, from a non-empty region.

    The distances are the region's own, taken from the UAV it was computed
    for; ties break to the smaller index.
    """
    return int(region.indices[region.distances.argmin()])  # argmin returns the first minimum


def plan_fastest(region: ReachableRegion) -> int:
    """Index of the reachable path sample earliest along the object's path, from a non-empty region."""
    return int(region.indices[0])
