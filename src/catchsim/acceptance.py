"""Acceptance battery: the eight release criteria, each as one check.

Every check returns a CriterionResult so the CLI can print one line per
criterion and the test suite can assert them individually. Expected
values marked "frozen" were computed with independent oracles (separate
term-by-term formula evaluation, analytic ballistics, RK4 at a 10x finer
step) and are pinned here.
"""

from dataclasses import dataclass

import numpy as np

from .harness import (
    bundled_config,
    config_from_dict,
    final_prediction_error,
    run_scenario,
    scenario_expectation,
    trace_csv,
)
from .physics import BallMotion, BallState, Environment, ProjectileParams, drag_accel, drag_coefficient, ground_truth
from .planner import (
    Setpoint,
    UavLimits,
    PlanMethod,
    plan_fastest,
    plan_shortest,
    reachable_region,
)
from .predictor import ObservationQueue, PropagationStop, estimate_velocity, predict_path, push_observation
from .sensor import Observation
from .vehicle import fly, hover_init, wrap_angle

# Independent term-by-term evaluation of the drag correlation at Re = 2700
# (cross-checked against a 40-digit arbitrary-precision run).
CD_2700_ORACLE = 0.4204794478543115


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def check_drag_coefficient() -> CriterionResult:
    cd = drag_coefficient(2700.0)
    err = abs(cd - CD_2700_ORACLE)
    return CriterionResult(
        1,
        "drag coefficient at Re=2700 matches the independent evaluation (~0.4205) within 0.002",
        err <= 2e-3,
        f"Cd={cd:.6f}, oracle={CD_2700_ORACLE:.6f}, |diff|={err:.2e}",
    )


def check_regression_exactness() -> CriterionResult:
    p0 = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, -5.0, 6.0])
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(2, 11):
        ts = np.sort(rng.uniform(0.0, 1.0, size=n))
        while len(np.unique(ts)) < n:
            ts = np.sort(rng.uniform(0.0, 1.0, size=n))
        q = ObservationQueue(capacity=n)
        q.entries = [(float(t), p0 + v * t) for t in ts]
        worst = max(worst, float(np.linalg.norm(estimate_velocity(q) - v)))
    return CriterionResult(
        2,
        "velocity regression exact on noiseless affine data for window sizes 2-10",
        worst < 1e-9,
        f"worst slope error {worst:.2e} m/s",
    )


def check_predictor_vs_rk4() -> CriterionResult:
    env = Environment()
    params = ProjectileParams()
    rng = np.random.default_rng(2024)
    stop = PropagationStop(max_horizon=0.5, ground_height=-1e9)
    errs_coarse = []
    errs_fine = []
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        speed = rng.uniform(1.0, 8.0)
        p0 = np.array([0.0, 0.0, rng.uniform(1.0, 3.0)])
        seed = BallState(p0, speed * direction)
        # the RK4 truth after 500 steps of 1 ms, with no ground to stop it
        rk4 = ground_truth(BallMotion.BALLISTIC, p0, seed.velocity, params, env, 0.001, -1e9, 500, 0.0)
        truth = rk4.positions[500]
        e1 = np.linalg.norm(predict_path(seed, params, env, 0.01, stop).positions[-1] - truth)
        e2 = np.linalg.norm(predict_path(seed, params, env, 0.005, stop).positions[-1] - truth)
        errs_coarse.append(float(e1))
        errs_fine.append(float(e2))

    max_err = max(errs_coarse)
    ratio = float(np.mean(errs_coarse) / np.mean(errs_fine))
    passed = max_err < 0.05 and 1.7 <= ratio <= 2.3
    return CriterionResult(
        3,
        "kinematic propagation within 0.05 m of RK4 over 0.5 s; halving the step halves the error",
        passed,
        f"max divergence {max_err:.4f} m, step-halving ratio {ratio:.2f}",
    )


def check_planar2d() -> CriterionResult:
    cfg = bundled_config("planar2d")
    result = run_scenario(cfg)
    errs = [r.prediction_error for r in result.records if r.prediction_error is not None]
    final = final_prediction_error(result)
    if final is None or len(errs) < 4:
        return CriterionResult(4, "planar 2D crossing prediction", False, "no crossing predictions recorded")
    q = max(1, len(errs) // 4)
    first_q, last_q = float(np.mean(errs[:q])), float(np.mean(errs[-q:]))
    passed = final < 0.5 and last_q < first_q
    return CriterionResult(
        4,
        "planar 2D final crossing error < 0.5 m and error decreases over the flight",
        passed,
        f"final {final:.3f} m, first-quarter mean {first_q:.3f}, last-quarter mean {last_q:.3f}",
    )


def check_suite_shape() -> CriterionResult:
    details = []
    all_ok = True
    for sid in ("A", "B", "C", "D", "E", "planar2d"):
        cfg = bundled_config(sid)
        result = run_scenario(cfg)
        ok, detail = scenario_expectation(cfg, result)
        all_ok = all_ok and ok
        details.append(f"{sid}:{'ok' if ok else 'FAIL(' + detail + ')'}")
    return CriterionResult(
        5,
        "bundled suite shape: A/C/D/E intercept, B loses the ball, D error <= 0.7 m, "
        "E picks indices no later than shortest",
        all_ok,
        " ".join(details),
    )


def check_interception_rates() -> CriterionResult:
    name = "interception rates over 50 noise seeds (sigma = 0.01 m)"
    rates = {}
    for sid, needed in (("D", 0.90), ("E", 0.80)):
        base = bundled_config(sid).to_dict()
        sigma = base["camera"]["noise_sigma"]
        if sigma != 0.01:
            return CriterionResult(6, name, False, f"bundled {sid} has noise_sigma {sigma}, not 0.01")
        wins = 0
        for seed in range(1, 51):
            raw = dict(base)
            raw["seed"] = seed
            wins += run_scenario(config_from_dict(raw)).intercepted
        rates[sid] = (wins / 50.0, needed)
    passed = all(rate >= needed for rate, needed in rates.values())
    detail = ", ".join(f"{sid}: {rate:.0%} (need >= {needed:.0%})" for sid, (rate, needed) in rates.items())
    return CriterionResult(6, name, passed, detail)


def check_determinism() -> CriterionResult:
    cfg_a = bundled_config("D")
    cfg_b = bundled_config("D")
    csv_a = trace_csv(run_scenario(cfg_a))
    csv_b = trace_csv(run_scenario(cfg_b))
    same = csv_a == csv_b
    return CriterionResult(
        7,
        "identical configs produce byte-identical trace CSVs",
        same,
        f"{len(csv_a)} bytes compared",
    )


def check_invariant_battery() -> CriterionResult:
    rng = np.random.default_rng(77)
    failures = []

    # drag opposes velocity
    env = Environment()
    params = ProjectileParams()
    gravity = np.array([0.0, 0.0, -env.gravity_g])
    accel = drag_accel(params, env)
    for _ in range(100):
        v = rng.uniform(-8, 8, size=3)
        drag = np.array(accel(*v.tolist())) - gravity
        if float(drag @ v) > 1e-12:
            failures.append("drag-opposes-velocity")
            break

    # FIFO queue semantics
    q = ObservationQueue(capacity=5)
    for i in range(8):
        push_observation(q, Observation(np.array([float(i), 0.0, 0.0]), float(i), 0.0, 0.0, 0.0))
    if [t for t, _ in q.entries] != [3.0, 4.0, 5.0, 6.0, 7.0]:
        failures.append("fifo-window")

    # reachable-region margins and fastest <= shortest
    from .predictor import PredictedPath

    uav = hover_init(2.0)
    limits = UavLimits()
    for _ in range(50):
        pts = rng.uniform([-4, -4, 0], [4, 4, 4], size=(25, 3))
        path = PredictedPath(positions=pts, times=0.05 * np.arange(25), t_step=0.05)
        region = reachable_region(path, 0.0, uav, limits)
        if len(region) == 0:
            continue
        if not np.all(region.margins >= 0.0):
            failures.append("region-margins")
            break
        if plan_fastest(path, region, uav).path_index > plan_shortest(path, region, uav).path_index:
            failures.append("fastest-vs-shortest")
            break

    # yaw slew bound
    state = hover_init(2.0)
    for _ in range(100):
        sp = Setpoint(np.array([0.0, 0.0, 2.0]), float(rng.uniform(-np.pi, np.pi)), PlanMethod.CAT_MOUSE)
        new, _ = fly(state, sp, limits, 0.01, 1)
        if abs(wrap_angle(new.yaw - state.yaw)) > limits.max_yaw_rate * 0.01 + 1e-15:
            failures.append("yaw-slew")
            break
        state = new

    return CriterionResult(
        8,
        "invariant battery: drag direction, FIFO window, region margins, method ordering, yaw slew",
        not failures,
        "all properties held" if not failures else "violated: " + ", ".join(failures),
    )


def run_battery() -> list[CriterionResult]:
    """Run all eight acceptance criteria in order."""
    return [
        check_drag_coefficient(),
        check_regression_exactness(),
        check_predictor_vs_rk4(),
        check_planar2d(),
        check_suite_shape(),
        check_interception_rates(),
        check_determinism(),
        check_invariant_battery(),
    ]
