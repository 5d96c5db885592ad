"""Acceptance criteria, one test per criterion.

Each test runs its criterion at the stated tolerance and reports the
battery's pass/fail line through the assertion message. The same checks
back the `catchsim accept` subcommand.
"""

from catchsim import acceptance


def _assert(result):
    line = f"{'PASS' if result.passed else 'FAIL'}  criterion {result.number}: {result.name} ({result.detail})"
    print(line)
    assert result.passed, line


def test_criterion_1_drag_coefficient():
    # Cd(2700) within +-0.002 of the independent term-by-term evaluation
    _assert(acceptance.check_drag_coefficient())


def test_criterion_2_regression_exactness():
    # exact slope recovery on noiseless affine data, window sizes 2-10, < 1e-9
    _assert(acceptance.check_regression_exactness())


def test_criterion_3_predictor_vs_rk4():
    # 100 random throws (speed <= 8): < 0.05 m divergence over 0.5 s at
    # t_step 0.01 vs RK4 at dt 0.001; halving t_step gives a ratio in [1.7, 2.3]
    _assert(acceptance.check_predictor_vs_rk4())


def test_criterion_4_planar2d():
    # final crossing error < 0.5 m with default noise, decreasing over flight
    _assert(acceptance.check_planar2d())


def test_criterion_5_suite_shape():
    # A/C/D/E intercept, B loses the ball, D final error <= 0.7 m,
    # E never chooses a later index than shortest would
    _assert(acceptance.check_suite_shape())


def test_criterion_6_interception_rates():
    # 50 noise seeds at sigma = 0.01: D >= 90%, E >= 80%
    _assert(acceptance.check_interception_rates())


def test_criterion_7_determinism():
    # identical config -> byte-identical trace CSV
    _assert(acceptance.check_determinism())


def test_criterion_8_invariant_battery():
    # drag opposes velocity, FIFO window, region margins >= 0,
    # fastest index <= shortest index, yaw slew bound
    _assert(acceptance.check_invariant_battery())


def test_criterion_8_drives_the_real_queue(monkeypatch):
    # a queue that never evicts must fail the FIFO-window check
    def push_without_eviction(queue, obs):
        queue.entries.append((obs.timestamp, obs.position))
        return queue

    monkeypatch.setattr(acceptance, "push_observation", push_without_eviction)
    result = acceptance.check_invariant_battery()
    assert not result.passed and "fifo-window" in result.detail


def test_criterion_6_fails_on_other_noise(monkeypatch):
    bundled = acceptance.bundled_config

    def noisier(sid):
        cfg = bundled(sid)
        cfg.camera.noise_sigma = 0.02
        return cfg

    monkeypatch.setattr(acceptance, "bundled_config", noisier)
    result = acceptance.check_interception_rates()
    assert not result.passed and "noise_sigma 0.02" in result.detail
