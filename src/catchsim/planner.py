"""Interception path planning.

Three methods over the predicted object path:

* cat & mouse — chase the latest detection directly; no prediction.
* shortest path — of the path samples the UAV can reach before the
  object does (the reachable region), fly to the one nearest the UAV.
* fastest path — of the reachable region, fly to the sample earliest
  along the object's path.

Plus the yaw law that re-centres the object when it drifts too close to
the FOV edge, and the trapezoidal time-to-reach estimate behind the
reachable-region computation. That estimate starts the UAV from rest, so
it is optimistic when the UAV is moving away from a target.
"""

from __future__ import annotations

import math
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

    def __post_init__(self):
        for name in ("max_speed", "max_accel", "max_yaw_rate", "intercept_radius"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass
class Setpoint:
    """Commanded target position and heading, tagged with its origin."""

    target_position: np.ndarray  # m
    target_yaw: float  # rad, in (-pi, pi]
    source_method: PlanMethod
    path_index: int | None = None  # which predicted sample was chosen, if any

    def __post_init__(self):
        self.target_position = np.asarray(self.target_position, dtype=float)


@dataclass
class ReachableRegion:
    """Path sample indices the UAV can reach no later than the object.

    margins[k] is the object's arrival time at indices[k] minus the UAV's
    time-to-reach; every listed margin is >= 0 by construction.
    """

    indices: np.ndarray  # strictly increasing sample indices
    margins: np.ndarray  # s, aligned with indices

    def __len__(self) -> int:
        return len(self.indices)


def _trapezoid_time(d, limits: UavLimits) -> np.ndarray:
    """Time to cover distance(s) d from rest: accelerate, then cruise.

    With accel a and cruise speed v: t = d/v + v/(2a) once d >= v^2/(2a),
    else t = sqrt(2 d / a).
    """
    v, a = limits.max_speed, limits.max_accel
    # an overflowed d / v is +inf: unreachable, which is the right answer
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(d >= v * v / (2.0 * a), d / v + v / (2.0 * a), np.sqrt(2.0 * d / a))


def reachable_region(path: PredictedPath, now: float, uav: UavState, limits: UavLimits) -> ReachableRegion:
    """Indices i whose trapezoidal time-to-reach is <= sample i's arrival time - now.

    Sample times are absolute, so the inclusion test only needs `now`.
    """
    # a sample near the float range overflows its distance to +inf, which
    # reads as unreachable (see _trapezoid_time); not a warning
    with np.errstate(over="ignore"):
        d = np.linalg.norm(path.positions - uav.position, axis=1)
    margins = (path.times - now) - _trapezoid_time(d, limits)
    mask = margins >= 0.0
    return ReachableRegion(indices=np.flatnonzero(mask), margins=margins[mask])


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
        source_method=PlanMethod.CAT_MOUSE,
        path_index=None,
    )


def plan_shortest(path: PredictedPath, region: ReachableRegion, uav: UavState) -> Setpoint:
    """Reachable path sample nearest the UAV, from a non-empty region; ties break to the smaller index."""
    d = np.linalg.norm(path.positions[region.indices] - uav.position, axis=1)
    idx = int(region.indices[int(np.argmin(d))])  # argmin returns the first minimum
    return Setpoint(
        target_position=path.positions[idx].copy(),
        target_yaw=wrap_angle(uav.yaw),
        source_method=PlanMethod.SHORTEST_PATH,
        path_index=idx,
    )


def plan_fastest(path: PredictedPath, region: ReachableRegion, uav: UavState) -> Setpoint:
    """Reachable path sample earliest along the object's path, from a non-empty region."""
    idx = int(region.indices[0])
    return Setpoint(
        target_position=path.positions[idx].copy(),
        target_yaw=wrap_angle(uav.yaw),
        source_method=PlanMethod.FASTEST_PATH,
        path_index=idx,
    )
