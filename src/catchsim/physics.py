"""Ground-truth projectile dynamics: gravity plus Reynolds-dependent drag.

The drag model follows the classic four-term sphere correlation

    Cd(Re) = 24/Re
           + 2.6 (Re/5) / (1 + (Re/5)^1.52)
           + 0.411 (Re/2.63e5)^-7.94 / (1 + (Re/2.63e5)^-8)
           + 0.25 (Re/1e6) / (1 + Re/1e6)

with Re = V D / nu and drag magnitude D_r = 1/2 rho Cd V^2 A.

`drag_accel` binds this model to one ball and one air once, as a
function of velocity; the RK4 ground truth and the predictor each bind
it once per path and call it at every evaluation.

Ground truth integrates with classical RK4 so it stays a strictly
finer-grained reference than the explicit kinematic propagation used by
the predictor. All functions here are pure, with one piece of shared
state: `ground_truth` keeps the last few integrated paths in a small LRU
cache, as read-only arrays, so a sweep over noise seeds integrates each
throw once.
"""

from __future__ import annotations

import math
from array import array
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

    def __post_init__(self):
        # gravity may be zeroed to isolate drag in experiments/tests
        if not (math.isfinite(self.gravity_g) and self.gravity_g >= 0.0):
            raise ValueError(f"gravity_g must be finite and >= 0, got {self.gravity_g}")
        for name in ("air_density_rho", "kinematic_viscosity_nu"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


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
            except OverflowError:  # D**2 past the float range: rejected below as inf
                self.reference_area_A = math.inf
        self.drag_mode = DragMode(self.drag_mode)
        for name in ("mass_m", "diameter_D", "reference_area_A"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass
class BallState:
    """Projectile position/velocity in the world frame at a given time."""

    position: np.ndarray  # m, shape (3,)
    velocity: np.ndarray  # m/s, shape (3,)
    time: float = 0.0  # s

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.position.shape != (3,) or self.velocity.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not (
            np.isfinite(self.position).all()
            and np.isfinite(self.velocity).all()
            and math.isfinite(self.time)
        ):
            raise ValueError(_NONFINITE_STATE)


def drag_coefficient(Re: float) -> float:
    """Four-term sphere drag correlation, evaluated term by term as written.

    Valid over the whole subcritical-to-supercritical range; the first
    term diverges as Re -> 0+, so Re must be strictly positive.
    """
    if not math.isfinite(Re) or Re <= 0.0:
        raise ValueError(f"drag_coefficient: Re must be finite and > 0, got {Re}")
    t1 = 24.0 / Re
    t2 = 2.6 * (Re / 5.0) / (1.0 + (Re / 5.0) ** 1.52)
    t3 = 0.411 * (Re / 2.63e5) ** (-7.94) / (1.0 + (Re / 2.63e5) ** (-8.00))
    t4 = 0.25 * (Re / 1.0e6) / (1.0 + Re / 1.0e6)
    return t1 + t2 + t3 + t4


def drag_accel(params: ProjectileParams, env: Environment) -> Accel:
    """The acceleration field (gravity + drag) of this ball in this air, bound once:
    a function (vx, vy, vz) -> (ax, ay, az) in m/s^2.

    Drag is -k v with k = (D_r / m) / V. The truth integrator and the
    predictor each bind one per path, so the parameters and the drag mode
    are read once, not at every evaluation.
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

    The arrays are read-only, because cached paths are shared between runs.
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
    stops at the first sample after the start below ground_height. Samples
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
        state = (*p0.tolist(), *v0.tolist())
        samples = array("d", state)
        accel = drag_accel(params, env)
        for _ in range(truth_length(motion, dt, n_ticks, tail_time) - 1):
            state = _rk4_step(*state, accel, dt)
            if not all(map(math.isfinite, state)):
                raise ValueError(_NONFINITE_STATE)
            samples.extend(state)
            if state[2] < ground_height:
                break
        positions = np.frombuffer(samples).reshape(-1, 6)[:, :3].copy()
    else:
        n = n_ticks + 1
        if motion is BallMotion.FROZEN:
            positions = np.broadcast_to(p0, (n, 3))
        else:
            increments = np.empty((n, 3))
            increments[0] = p0
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

