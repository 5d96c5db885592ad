"""Ground-truth projectile dynamics: gravity plus Reynolds-dependent drag.

The drag model follows the classic four-term sphere correlation

    Cd(Re) = 24/Re
           + 2.6 (Re/5) / (1 + (Re/5)^1.52)
           + 0.411 (Re/2.63e5)^-7.94 / (1 + (Re/2.63e5)^-8)
           + 0.25 (Re/1e6) / (1 + Re/1e6)

with Re = V D / nu and drag magnitude D_r = 1/2 rho Cd V^2 A.
`drag_coefficient` computes each of the three scaled Reynolds numbers
(Re/5, Re/2.63e5, Re/1e6) once and shares it between the numerator and
the denominator of its term; the terms add left to right as written.
`dot3` and `norm3` are the one form of a 3-term dot product and norm
that every layer uses.

The RK4 truth and the predictor evaluate this model inline in their loops;
`drag_coefficient`, `drag_accel` (the model bound to a ball and air) and
`step_ground_truth` are the reference the tests pin them to, bit for bit.

Ground truth integrates with classical RK4 so it stays a strictly
finer-grained reference than the explicit kinematic propagation used by
the predictor. All functions here are pure, with one piece of shared
state: `ground_truth` keeps the last few integrated paths in a small LRU
cache, as read-only arrays, so a sweep over noise seeds integrates each
throw once.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Speeds below this are treated as rest: the Cd correlation diverges as
# Re -> 0 while the physical (Stokes) drag force vanishes, so we skip the
# drag term entirely instead of evaluating 24/Re on garbage.
_SPEED_FLOOR = 1e-12
_NONFINITE_STATE = "BallState components must be finite"

Accel = Callable[[float, float, float], tuple[float, float, float]]  # velocity -> acceleration


class DragMode(str, Enum):
    """How drag enters the acceleration.

    velocity_opposed: drag magnitude applied along -v_hat in a z-up world
        frame with gravity (0, 0, -g). This is the default.
    none: gravity only.
    """

    VELOCITY_OPPOSED = "velocity_opposed"
    NONE = "none"


class BallMotion(str, Enum):
    """Ground-truth motion model of the ball.

    frozen: the ball does not move (a held target).
    linear: constant velocity, no gravity or drag (a carried/rolling target).
    ballistic: full gravity + drag integration (a thrown ball).
    """

    FROZEN = "frozen"
    LINEAR = "linear"
    BALLISTIC = "ballistic"


@dataclass
class Environment:
    """Ambient constants (room-temperature air by default)."""

    gravity_g: float = 9.81  # m/s^2
    air_density_rho: float = 1.204  # kg/m^3
    kinematic_viscosity_nu: float = 1.5e-5  # m^2/s


@dataclass
class ProjectileParams:
    """Ball properties. Defaults are a standard 40 mm, 2.7 g table-tennis ball."""

    mass_m: float = 2.7e-3  # kg
    diameter_D: float = 0.04  # m
    reference_area_A: float | None = None  # m^2; None -> pi D^2 / 4
    drag_mode: DragMode = DragMode.VELOCITY_OPPOSED

    def __post_init__(self):
        if self.reference_area_A is None:
            try:
                self.reference_area_A = math.pi * self.diameter_D**2 / 4.0
            except OverflowError:  # D**2 past the float range; config loading rejects inf
                self.reference_area_A = math.inf
        self.drag_mode = DragMode(self.drag_mode)


@dataclass
class BallState:
    """Projectile position/velocity in the world frame at a given time.

    position and velocity may be any 3-sequences of numbers; they are stored
    as float64 arrays. A NaN or infinite component, time included, is a
    ValueError.
    """

    position: np.ndarray  # m, shape (3,)
    velocity: np.ndarray  # m/s, shape (3,)
    time: float = 0.0  # s

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.position.shape != (3,) or self.velocity.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not all(map(math.isfinite, (*self.position.tolist(), *self.velocity.tolist(), self.time))):
            raise ValueError(_NONFINITE_STATE)


def dot3(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two 3-vectors as the float sum (a0 b0 + a1 b1) + a2 b2.

    This is the one form of every 3-term dot product and norm in a run; rows
    of three take it as np.add.reduce(a * b, axis=1), which adds each row
    left to right. numpy's matrix and vector products and its 1-D norm call
    BLAS, whose kernel, and with it whether the multiply-adds are fused, is
    picked for the CPU at run time.
    """
    ax, ay, az = a.tolist()
    bx, by, bz = b.tolist()
    return (ax * bx + ay * by) + az * bz


def norm3(a: np.ndarray) -> float:
    """The Euclidean norm of a 3-vector, sqrt(dot3(a, a))."""
    return math.sqrt(dot3(a, a))


def drag_coefficient(Re: float) -> float:
    """Four-term sphere drag correlation; the terms add left to right as written.

    Re/5, Re/2.63e5 and Re/1e6 are each divided out once and shared by the
    numerator and denominator of their term, which gives the same float as
    dividing twice. Valid over the whole subcritical-to-supercritical range;
    the first term diverges as Re -> 0+, so Re must be strictly positive.
    """
    if not 0.0 < Re < math.inf:  # also false for NaN
        raise ValueError(f"drag_coefficient: Re must be finite and > 0, got {Re}")
    r5 = Re / 5.0
    rc = Re / 2.63e5
    r6 = Re / 1.0e6
    t1 = 24.0 / Re
    t2 = 2.6 * r5 / (1.0 + r5**1.52)
    t3 = 0.411 * rc ** (-7.94) / (1.0 + rc ** (-8.00))
    t4 = 0.25 * r6 / (1.0 + r6)
    return t1 + t2 + t3 + t4


def drag_accel(params: ProjectileParams, env: Environment) -> Accel:
    """The acceleration field (gravity + drag) of this ball in this air, bound once:
    a function (vx, vy, vz) -> (ax, ay, az) in m/s^2.

    Drag is -k v with k = (D_r / m) / V. The parameters and the drag mode
    are read once, not at every evaluation. `ground_truth` and the
    predictor write this arithmetic out in their loops; this is its reference.
    """
    g = env.gravity_g
    if params.drag_mode is DragMode.NONE:
        return lambda vx, vy, vz: (0.0, 0.0, -g)
    D, nu, A, m = params.diameter_D, env.kinematic_viscosity_nu, params.reference_area_A, params.mass_m
    half_rho = 0.5 * env.air_density_rho  # 0.5 * rho * Cd * ... rounds left to right, so this is the same product

    def accel(vx: float, vy: float, vz: float) -> tuple[float, float, float]:
        speed = math.sqrt(vx * vx + vy * vy + vz * vz)
        if speed < _SPEED_FLOOR:
            return 0.0, 0.0, -g
        Cd = drag_coefficient(speed * D / nu)
        k = half_rho * Cd * speed * speed * A / m / speed
        return -k * vx, -k * vy, -g - k * vz

    return accel


def _rk4_step(
    px: float, py: float, pz: float,
    vx: float, vy: float, vz: float,
    accel: Accel, dt: float,
) -> tuple[float, float, float, float, float, float]:
    """One classical RK4 step of (p, v) under the acceleration field `accel`."""
    a1x, a1y, a1z = accel(vx, vy, vz)

    h = 0.5 * dt
    v2x, v2y, v2z = vx + h * a1x, vy + h * a1y, vz + h * a1z
    a2x, a2y, a2z = accel(v2x, v2y, v2z)

    v3x, v3y, v3z = vx + h * a2x, vy + h * a2y, vz + h * a2z
    a3x, a3y, a3z = accel(v3x, v3y, v3z)

    v4x, v4y, v4z = vx + dt * a3x, vy + dt * a3y, vz + dt * a3z
    a4x, a4y, a4z = accel(v4x, v4y, v4z)

    sixth = dt / 6.0
    # position slope samples are the stage velocities
    npx = px + sixth * (vx + 2.0 * v2x + 2.0 * v3x + v4x)
    npy = py + sixth * (vy + 2.0 * v2y + 2.0 * v3y + v4y)
    npz = pz + sixth * (vz + 2.0 * v2z + 2.0 * v3z + v4z)
    nvx = vx + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
    nvy = vy + sixth * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)
    nvz = vz + sixth * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)
    return npx, npy, npz, nvx, nvy, nvz


def step_ground_truth(state: BallState, params: ProjectileParams, env: Environment, dt: float) -> BallState:
    """Advance the ball by one RK4 step of length dt (deterministic)."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"step_ground_truth: dt must be > 0, got {dt}")
    px, py, pz = (float(c) for c in state.position)
    vx, vy, vz = (float(c) for c in state.velocity)
    npx, npy, npz, nvx, nvy, nvz = _rk4_step(px, py, pz, vx, vy, vz, drag_accel(params, env), dt)
    return BallState(
        position=np.array((npx, npy, npz)),
        velocity=np.array((nvx, nvy, nvz)),
        time=state.time + dt,
    )


@dataclass(frozen=True)
class GroundTruth:
    """A ball's true path, one sample per physics step: sample i is at times[i].

    The arrays are C-contiguous and read-only: cached paths are shared
    between runs.
    """

    positions: np.ndarray  # (n, 3) m
    times: np.ndarray  # (n,) s


def truth_length(motion: BallMotion, dt: float, n_ticks: int, tail_time: float) -> int:
    """Most samples `ground_truth` returns for these inputs."""
    if motion is BallMotion.BALLISTIC:
        # one step of slack: a tail that starts before the last tick may need one
        # more step to cover tail_time, as the accumulated times round differently
        return n_ticks + math.ceil(tail_time / dt) + 2
    return n_ticks + 1


# Enough for the three bundled throws (D, E, planar2d) interleaved in one
# sweep; a cached throw of ~1300 samples holds ~40 KB.
TRUTH_CACHE_SIZE = 3
_truth_cache: OrderedDict[tuple, GroundTruth] = OrderedDict()


def ground_truth(
    motion: BallMotion,
    position: np.ndarray,
    velocity: np.ndarray,
    params: ProjectileParams,
    env: Environment,
    dt: float,
    ground_height: float,
    n_ticks: int,
    tail_time: float,
) -> GroundTruth:
    """The true path from (position, velocity) at t = 0, every sample a run can use.

    A run steps the ball n_ticks times at most; a ballistic path then
    continues for up to tail_time (the arc scored after the run ends), and
    stops at the first sample after the start below ground_height: after
    the start, only the last sample may lie below ground. Samples
    equal, bit for bit, what repeated `step_ground_truth` calls (ballistic),
    `p + v * dt` (linear) or a constant position (frozen) give, with times
    accumulated as `t + dt`. A step that fails raises at once, as stepping
    would: ArithmeticError or ValueError, and ValueError(_NONFINITE_STATE)
    for a non-finite sample. Complete paths are cached by every input (LRU,
    at most TRUTH_CACHE_SIZE paths).
    """
    motion = BallMotion(motion)
    numbers = (
        *position, *velocity,
        params.mass_m, params.diameter_D, params.reference_area_A,
        env.gravity_g, env.air_density_rho, env.kinematic_viscosity_nu,
        dt, ground_height, tail_time,
    )
    # exact bits, so that -0.0 and 0.0 (printed differently in traces) get their own entries
    key = (motion, params.drag_mode, n_ticks, np.array(numbers, dtype=float).tobytes())
    truth = _truth_cache.get(key)
    if truth is not None:
        _truth_cache.move_to_end(key)
        return truth
    p0 = np.array(position, dtype=float)
    v0 = np.array(velocity, dtype=float)
    if motion is BallMotion.BALLISTIC:
        px, py, pz = p0.tolist()
        vx, vy, vz = v0.tolist()
        samples = [px, py, pz]  # x, y, z of each sample in turn
        # _rk4_step under drag_accel, its four evaluations written out: the same float operations
        free, g, half_rho = params.drag_mode is DragMode.NONE, env.gravity_g, 0.5 * env.air_density_rho
        D, nu, A, m = params.diameter_D, env.kinematic_viscosity_nu, params.reference_area_A, params.mass_m
        floor, inf, sqrt, isfinite, h, sixth = _SPEED_FLOOR, math.inf, math.sqrt, math.isfinite, 0.5 * dt, dt / 6.0
        for _ in range(truth_length(motion, dt, n_ticks, tail_time) - 1):
            speed = sqrt(vx * vx + vy * vy + vz * vz)
            if free or speed < floor:
                a1x, a1y, a1z = 0.0, 0.0, -g
            else:
                Re = speed * D / nu
                if not 0.0 < Re < inf:
                    drag_coefficient(Re)  # raises its ValueError
                r5, rc, r6 = Re / 5.0, Re / 2.63e5, Re / 1.0e6
                k = half_rho * (24.0 / Re + 2.6 * r5 / (1.0 + r5**1.52) + 0.411 * rc**-7.94 / (1.0 + rc**-8.0)
                                + 0.25 * r6 / (1.0 + r6)) * speed * speed * A / m / speed
                a1x, a1y, a1z = -k * vx, -k * vy, -g - k * vz
            v2x, v2y, v2z = vx + h * a1x, vy + h * a1y, vz + h * a1z
            speed = sqrt(v2x * v2x + v2y * v2y + v2z * v2z)
            if free or speed < floor:
                a2x, a2y, a2z = 0.0, 0.0, -g
            else:
                Re = speed * D / nu
                if not 0.0 < Re < inf:
                    drag_coefficient(Re)  # raises its ValueError
                r5, rc, r6 = Re / 5.0, Re / 2.63e5, Re / 1.0e6
                k = half_rho * (24.0 / Re + 2.6 * r5 / (1.0 + r5**1.52) + 0.411 * rc**-7.94 / (1.0 + rc**-8.0)
                                + 0.25 * r6 / (1.0 + r6)) * speed * speed * A / m / speed
                a2x, a2y, a2z = -k * v2x, -k * v2y, -g - k * v2z
            v3x, v3y, v3z = vx + h * a2x, vy + h * a2y, vz + h * a2z
            speed = sqrt(v3x * v3x + v3y * v3y + v3z * v3z)
            if free or speed < floor:
                a3x, a3y, a3z = 0.0, 0.0, -g
            else:
                Re = speed * D / nu
                if not 0.0 < Re < inf:
                    drag_coefficient(Re)  # raises its ValueError
                r5, rc, r6 = Re / 5.0, Re / 2.63e5, Re / 1.0e6
                k = half_rho * (24.0 / Re + 2.6 * r5 / (1.0 + r5**1.52) + 0.411 * rc**-7.94 / (1.0 + rc**-8.0)
                                + 0.25 * r6 / (1.0 + r6)) * speed * speed * A / m / speed
                a3x, a3y, a3z = -k * v3x, -k * v3y, -g - k * v3z
            v4x, v4y, v4z = vx + dt * a3x, vy + dt * a3y, vz + dt * a3z
            speed = sqrt(v4x * v4x + v4y * v4y + v4z * v4z)
            if free or speed < floor:
                a4x, a4y, a4z = 0.0, 0.0, -g
            else:
                Re = speed * D / nu
                if not 0.0 < Re < inf:
                    drag_coefficient(Re)  # raises its ValueError
                r5, rc, r6 = Re / 5.0, Re / 2.63e5, Re / 1.0e6
                k = half_rho * (24.0 / Re + 2.6 * r5 / (1.0 + r5**1.52) + 0.411 * rc**-7.94 / (1.0 + rc**-8.0)
                                + 0.25 * r6 / (1.0 + r6)) * speed * speed * A / m / speed
                a4x, a4y, a4z = -k * v4x, -k * v4y, -g - k * v4z
            px = px + sixth * (vx + 2.0 * v2x + 2.0 * v3x + v4x)
            py = py + sixth * (vy + 2.0 * v2y + 2.0 * v3y + v4y)
            pz = pz + sixth * (vz + 2.0 * v2z + 2.0 * v3z + v4z)
            vx = vx + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
            vy = vy + sixth * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)
            vz = vz + sixth * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)
            if not (isfinite(px) and isfinite(py) and isfinite(pz)
                    and isfinite(vx) and isfinite(vy) and isfinite(vz)):
                raise ValueError(_NONFINITE_STATE)
            samples += (px, py, pz)
            if pz < ground_height:
                break
        positions = np.fromiter(samples, float, len(samples)).reshape(-1, 3)
    else:
        n = n_ticks + 1
        if motion is BallMotion.FROZEN:
            positions = np.tile(p0, (n, 1))
        else:
            increments = np.empty((n, 3))
            increments[0] = p0
            # a path past the float range overflows to inf, which the check below raises for
            with np.errstate(over="ignore"):
                increments[1:] = v0 * dt
                positions = np.add.accumulate(increments, axis=0)
            if not np.isfinite(positions).all():
                raise ValueError(_NONFINITE_STATE)
    steps = np.full(len(positions), dt)
    steps[0] = 0.0
    times = np.add.accumulate(steps)
    for a in (positions, times):
        a.flags.writeable = False
    truth = GroundTruth(positions, times)
    _truth_cache[key] = truth
    if len(_truth_cache) > TRUTH_CACHE_SIZE:
        _truth_cache.popitem(last=False)
    return truth

