"""Kinematic UAV model: PD setpoint tracking under speed/accel/yaw-rate limits.

The model deliberately skips rigid-body attitude dynamics. The one
attitude effect that matters to the perception loop is kept: commanding
horizontal acceleration tilts the vehicle (pitch = atan(|a_h| / g)),
which the sensor adds to the camera's mount pitch and which can push the
ball out of view. Two mitigations are available: lowering the
acceleration limit in the config, or compensating height in proportion
to pitch (``height_comp_gain``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .planner import Setpoint, UavLimits

DEFAULT_KP = 4.0  # s^-2, position gain
DEFAULT_KD = 3.0  # s^-1, velocity damping


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = (angle + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


@dataclass
class UavState:
    """Vehicle pose at a given time. Yaw is CCW about +z; pitch is accel-induced tilt."""

    position: np.ndarray  # m
    velocity: np.ndarray  # m/s
    yaw: float = 0.0  # rad, in (-pi, pi]
    pitch: float = 0.0  # rad, >= 0, added to the camera mount pitch
    time: float = 0.0  # s

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)


def hover_init(elevation: float) -> UavState:
    """UAV hovering at the world origin at the given height, facing +x."""
    if not (math.isfinite(elevation) and elevation > 0.0):
        raise ValueError(f"elevation must be > 0, got {elevation}")
    return UavState(
        position=np.array([0.0, 0.0, elevation]),
        velocity=np.zeros(3),
        yaw=0.0,
        pitch=0.0,
        time=0.0,
    )


def _clamp_exact(build, limit: float) -> tuple[float, float, float]:
    """The vector build(Fraction) returns, computed exactly and norm-clamped to
    limit, as floats: for a command or velocity whose float norm overflows."""
    from fractions import Fraction  # here, on the rare path: it imports decimal (~0.4 MB resident)

    vector = build(Fraction)
    if sum(c * c for c in vector) <= Fraction(limit) ** 2:
        return tuple(float(c) for c in vector)
    big = max(abs(c) for c in vector)
    unit = [float(c / big) for c in vector]
    scale = limit / math.hypot(*unit)
    return tuple(u * scale for u in unit)


def step_uav(
    state: UavState,
    sp: "Setpoint",
    limits: "UavLimits",
    dt: float,
    tilt_coupling: bool = True,
    kp: float = DEFAULT_KP,
    kd: float = DEFAULT_KD,
    gravity_g: float = 9.81,
    height_comp_gain: float = 0.0,
) -> UavState:
    """Advance the vehicle one step toward the setpoint: `fly` for one tick."""
    return fly(state, sp, limits, dt, 1, tilt_coupling, kp, kd, gravity_g, height_comp_gain)[0]


def fly(
    state: UavState,
    sp: "Setpoint",
    limits: "UavLimits",
    dt: float,
    n: int,
    tilt_coupling: bool = True,
    kp: float = DEFAULT_KP,
    kd: float = DEFAULT_KD,
    gravity_g: float = 9.81,
    height_comp_gain: float = 0.0,
    plane: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[UavState, np.ndarray]:
    """Advance the vehicle n steps toward a fixed setpoint.

    Returns the final state and the (n, 3) positions after each step.
    Each step: commanded acceleration is PD on position error,
    norm-clamped to max_accel; velocity is norm-clamped to max_speed; yaw
    slews toward the target at most max_yaw_rate * dt per step. With
    tilt_coupling the new pitch is atan(|a_horizontal| / g). A nonzero
    height_comp_gain raises the commanded height by gain * current pitch
    before tracking (the "climb to keep the ball in view" mitigation).
    With a plane (point, unit normal), position and velocity are
    projected onto it after every step. A command or velocity whose float
    norm overflows is clamped in exact arithmetic, so it keeps its
    direction.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")

    px, py, pz = (float(c) for c in state.position)
    vx, vy, vz = (float(c) for c in state.velocity)
    tx, ty, tz_sp = (float(c) for c in sp.target_position)
    yaw, pitch, time = state.yaw, state.pitch, state.time
    max_accel, max_speed = limits.max_accel, limits.max_speed
    max_dyaw = limits.max_yaw_rate * dt
    target_yaw = sp.target_yaw
    positions = array("d")

    for _ in range(n):
        tz = tz_sp + height_comp_gain * pitch if height_comp_gain != 0.0 else tz_sp
        ax = kp * (tx - px) - kd * vx
        ay = kp * (ty - py) - kd * vy
        az = kp * (tz - pz) - kd * vz
        a_norm = math.sqrt(ax * ax + ay * ay + az * az)
        if not math.isfinite(a_norm):
            # the command is past the float range: clamp it in exact arithmetic
            ax, ay, az = _clamp_exact(
                lambda F: [
                    F(kp) * (t - F(p)) - F(kd) * F(v)
                    for t, p, v in (
                        (F(tx), px, vx),
                        (F(ty), py, vy),
                        (F(tz_sp) + F(height_comp_gain) * F(pitch), pz, vz),
                    )
                ],
                max_accel,
            )
        elif a_norm > max_accel:
            scale = max_accel / a_norm
            ax *= scale
            ay *= scale
            az *= scale

        nvx = vx + ax * dt
        nvy = vy + ay * dt
        nvz = vz + az * dt
        v_norm = math.sqrt(nvx * nvx + nvy * nvy + nvz * nvz)
        if not math.isfinite(v_norm):
            vx, vy, vz = _clamp_exact(
                lambda F: [F(v) + F(a) * F(dt) for v, a in ((vx, ax), (vy, ay), (vz, az))],
                max_speed,
            )
        elif v_norm > max_speed:
            scale = max_speed / v_norm
            vx, vy, vz = nvx * scale, nvy * scale, nvz * scale
        else:
            vx, vy, vz = nvx, nvy, nvz

        px += vx * dt
        py += vy * dt
        pz += vz * dt

        dyaw = wrap_angle(target_yaw - yaw)
        dyaw = max(-max_dyaw, min(max_dyaw, dyaw))
        yaw = wrap_angle(yaw + dyaw)

        pitch = math.atan(math.hypot(ax, ay) / gravity_g) if tilt_coupling else 0.0
        time += dt

        if plane is not None:
            # numpy's dot, not a float rewrite: it rounds differently
            p0, n_hat = plane
            p = np.array((px, py, pz))
            v = np.array((vx, vy, vz))
            px, py, pz = (p - float((p - p0) @ n_hat) * n_hat).tolist()
            vx, vy, vz = (v - float(v @ n_hat) * n_hat).tolist()
        positions.extend((px, py, pz))

    final = UavState(np.array((px, py, pz)), np.array((vx, vy, vz)), yaw, pitch, time)
    return final, np.frombuffer(positions).reshape(n, 3)
