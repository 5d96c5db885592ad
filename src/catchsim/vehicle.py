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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .physics import dot3

if TYPE_CHECKING:
    from .planner import Setpoint, UavLimits

DEFAULT_KP = 4.0  # s^-2, position gain
DEFAULT_KD = 3.0  # s^-1, velocity damping

_PI = math.pi
_TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = (angle + _PI) % _TWO_PI - _PI
    return _PI if w == -_PI else w


@dataclass
class UavState:
    """Vehicle pose. Yaw is CCW about +z; pitch is accel-induced tilt.

    position and velocity must be float64 arrays of shape (3,); they are
    stored as given, not converted.
    """

    position: np.ndarray  # m
    velocity: np.ndarray  # m/s
    yaw: float = 0.0  # rad, in (-pi, pi]
    pitch: float = 0.0  # rad, >= 0, added to the camera mount pitch


def hover_init(elevation: float) -> UavState:
    """UAV hovering at the world origin at the given height, facing +x."""
    return UavState(
        position=np.array([0.0, 0.0, elevation]),
        velocity=np.zeros(3),
        yaw=0.0,
        pitch=0.0,
    )


def project_to_plane(p: np.ndarray, p0: np.ndarray, n_hat: np.ndarray) -> np.ndarray:
    """p projected onto the plane through p0 with unit normal n_hat."""
    return p - dot3(p - p0, n_hat) * n_hat


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
    slews toward the target at most max_yaw_rate * dt per step, and once
    a step leaves it unchanged it has settled for the segment. With
    tilt_coupling the new pitch is atan(|a_horizontal| / g). A nonzero
    height_comp_gain raises the commanded height by gain * current pitch
    before tracking (the "climb to keep the ball in view" mitigation);
    with a zero gain no step reads the pitch, so only the last step's is
    computed.
    With a plane (point, unit normal), position and velocity are
    projected onto it after every step, as `project_to_plane` would: each
    offset from the plane is `dot3`'s float sum, written inline, and the
    subtractions and scalings around it round alike as floats and as
    numpy's element-wise ufuncs. A command or velocity whose float
    norm overflows is clamped in exact arithmetic, so it keeps its
    direction.
    Everything else is Python float arithmetic, in the order written: one
    comparison per clamp on the common path (a NaN or infinite norm fails
    ``norm <= limit`` and is then told apart from a finite excess), and the
    yaw clamp is two ``if``s that equal ``max(-m, min(m, d))`` for every
    float, NaN included.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")

    sqrt, isfinite = math.sqrt, math.isfinite
    px, py, pz = state.position.tolist()
    vx, vy, vz = state.velocity.tolist()
    tx, ty, tz_sp = sp.target_position.tolist()
    tz = tz_sp
    yaw, pitch = state.yaw, state.pitch
    max_accel, max_speed = limits.max_accel, limits.max_speed
    max_dyaw = limits.max_yaw_rate * dt
    target_yaw = sp.target_yaw
    settled = False
    pitch_each_tick = height_comp_gain != 0.0  # otherwise no tick reads it: only the last is kept
    positions = []  # x, y, z of each step in turn
    if plane is not None:
        p0, n_hat = plane
        p0x, p0y, p0z = (float(c) for c in p0)
        nx, ny, nz = (float(c) for c in n_hat)

    for _ in range(n):
        if pitch_each_tick:
            tz = tz_sp + height_comp_gain * pitch
        ax = kp * (tx - px) - kd * vx
        ay = kp * (ty - py) - kd * vy
        az = kp * (tz - pz) - kd * vz
        a_norm = sqrt(ax * ax + ay * ay + az * az)
        if not a_norm <= max_accel:  # past the limit, or not finite
            if not isfinite(a_norm):
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
            else:
                scale = max_accel / a_norm
                ax *= scale
                ay *= scale
                az *= scale

        nvx = vx + ax * dt
        nvy = vy + ay * dt
        nvz = vz + az * dt
        v_norm = sqrt(nvx * nvx + nvy * nvy + nvz * nvz)
        if v_norm <= max_speed:
            vx, vy, vz = nvx, nvy, nvz
        elif not isfinite(v_norm):
            vx, vy, vz = _clamp_exact(
                lambda F: [F(v) + F(a) * F(dt) for v, a in ((vx, ax), (vy, ay), (vz, az))],
                max_speed,
            )
        else:
            scale = max_speed / v_norm
            vx, vy, vz = nvx * scale, nvy * scale, nvz * scale

        px += vx * dt
        py += vy * dt
        pz += vz * dt

        if not settled:
            # the slew is a function of yaw alone here, so a yaw it leaves
            # unchanged is left unchanged for the rest of the segment
            dyaw = wrap_angle(target_yaw - yaw)
            if not dyaw < max_dyaw:  # max(-max_dyaw, min(max_dyaw, dyaw)), NaN included
                dyaw = max_dyaw
            if not dyaw > -max_dyaw:
                dyaw = -max_dyaw
            new_yaw = wrap_angle(yaw + dyaw)
            settled = new_yaw == yaw
            yaw = new_yaw

        if pitch_each_tick:
            pitch = math.atan(math.hypot(ax, ay) / gravity_g) if tilt_coupling else 0.0

        if plane is not None:
            s = ((px - p0x) * nx + (py - p0y) * ny) + (pz - p0z) * nz
            px, py, pz = px - s * nx, py - s * ny, pz - s * nz
            s = (vx * nx + vy * ny) + vz * nz
            vx, vy, vz = vx - s * nx, vy - s * ny, vz - s * nz
        positions += (px, py, pz)

    if n > 0 and not pitch_each_tick:
        pitch = math.atan(math.hypot(ax, ay) / gravity_g) if tilt_coupling else 0.0
    final = UavState(np.array((px, py, pz)), np.array((vx, vy, vz)), yaw, pitch)
    return final, np.fromiter(positions, float, 3 * n).reshape(n, 3)
