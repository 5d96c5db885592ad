"""catchsim benchmark.

One process, one thread, one caller: a closed loop that issues scenario
runs back to back. Each operation does what `catchsim run` does minus the
disk write: config_from_dict -> run_scenario -> trace_csv + summary_dict.

    python3 perfbench/run.py --workload thrown_seeds --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Host speed. On the host this benchmark was built on (a 2-core VM), the
CPU switches between two speed levels about 2x apart, within fractions of
a second, and the share of time spent at the slow level varies from one
minute to the next; wall times follow it. So before each input the loop
times a fixed reference computation (refspeed.reference_work: interpreter
and small-array numpy work, like one control tick), and every timed metric
is reported at reference speed: each wall time is scaled by the host's
mean speed, relative to REF_S, in the two reference samples before and the
two after it (per-layer times by the pass's mean speed). A change that
makes catchsim 10 % faster reads 10 % faster; a slower minute of the host
reads the same. Wall-clock figures are printed beside them.

--trace 0 measures the end-to-end metrics untraced, then replays the first
runs under tracing to check that tracing does not change the outputs.
--trace 1 runs every input traced and then untraced, for the per-layer
metrics, the tracing overhead and a digest comparison over all runs.
`--workload all` does both for every workload. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when any output check fails.

The package is imported from the checkout's own src/ directory; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import os

# Hold numpy's BLAS pools to one thread; must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from refspeed import REF_S, reference_work  # noqa: E402
from spans import Tracer, layer_metrics, traced  # noqa: E402
from workloads import WORKLOADS, base_configs, generate_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_PROBES = 8  # fresh processes timed before and again after the pass; setup_s is their median
CHECK_RUNS = 6  # runs replayed under tracing by --trace 0 for the digest check; also the minimum per pass
TAIL_BEYOND = 10  # run_ms_tail is the slowest run with at least this many runs beyond it
COVERAGE_TOL = 0.02  # allowed gap between summed layer self times and traced run time
REF_WINDOW = 2  # host-speed samples on each side of an operation that scale its time


@dataclass
class PassResult:
    op_s: list[float] = field(default_factory=list)  # wall time of each operation
    ref_s: list[float] = field(default_factory=list)  # reference_work time just before each input
    digests: list[str] = field(default_factory=list)  # one per operation
    failed: int = 0
    expected: int = 0  # runs whose scenario_expectation holds
    ticks: int = 0  # simulated physics ticks over all runs
    trace_bytes: int = 0


def import_harness():
    if not (SRC / "catchsim" / "__init__.py").is_file():
        sys.exit(f"error: catchsim sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import catchsim.harness as harness

    if Path(harness.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported catchsim from {harness.__file__}, not from {SRC}")
    return harness


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_op(h, raw: dict):
    """The timed operation: what `catchsim run` does, minus the disk write."""
    cfg = h.config_from_dict(raw)
    result = h.run_scenario(cfg)
    return cfg, result, h.trace_csv(result), h.summary_dict(result)


def output_problem(h, result, csv: str, summary: dict) -> str | None:
    """Why this run's outputs are malformed or non-finite, or None if they are fine."""
    lines = csv.splitlines()
    if lines[0] != h.TRACE_HEADER:
        return "trace header differs from TRACE_HEADER"
    if len(lines) - 1 != len(result.records):
        return f"trace has {len(lines) - 1} rows for {len(result.records)} records"
    for line in lines[1:]:
        if not all(cell == "" or math.isfinite(float(cell)) for cell in line.split(",")):
            return f"non-finite trace row: {line}"
    if (lines[-1].rsplit(",", 1)[1] == "1") != summary["intercepted"]:
        return "last trace row disagrees with summary.intercepted"
    t = summary["interception_time"]
    if not math.isfinite(summary["min_distance"]) or (t is not None and not math.isfinite(t)):
        return f"non-finite summary: {summary}"
    return None


def at_ref_speed(p: PassResult) -> list[float]:
    """Each operation's wall time scaled to reference speed.

    Operation i runs between reference samples i and i + 1; its wall time is
    multiplied by the mean host speed (REF_S / reference time) of the
    REF_WINDOW samples on each side of it. Speeds, not times, are averaged:
    a reference sample stretched by a preemption then weighs near 0 rather
    than without limit."""
    speed = [REF_S / r for r in p.ref_s]
    return [op * statistics.fmean(speed[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
            for i, op in enumerate(p.op_s)]


def run_once(h, raw: dict, out: PassResult) -> None:
    """Time one operation and check its outputs outside the timed region."""
    t0 = perf_counter()
    try:
        cfg, result, csv, summary = run_op(h, raw)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    out.op_s.append(perf_counter() - t0)

    label = f"run {len(out.op_s)} ({raw['scenario_id']}, seed {raw['seed']})"
    if error is None:
        problem = output_problem(h, result, csv, summary)
        payload = f"{raw['scenario_id']}|{raw['seed']}|{json.dumps(summary, sort_keys=True)}|{csv}"
    else:
        problem = "".join(traceback.format_exception_only(error)).strip()
        payload = f"{raw['scenario_id']}|{raw['seed']}|error:{type(error).__name__}"
    out.digests.append(hashlib.sha256(payload.encode()).hexdigest())
    if problem is not None:
        out.failed += 1
        if out.failed <= 3:
            print(f"{label} failed: {problem}", file=sys.stderr)
        return
    met, detail = h.scenario_expectation(cfg, result)
    out.expected += met
    if not met:
        print(f"{label} missed its expected outcome: {detail}", file=sys.stderr)
    out.ticks += round(result.records[-1].time / cfg.physics_dt)
    out.trace_bytes += len(csv)


def run_pass(h, inputs, legs: list[Tracer | None], seconds: float | None = None,
             runs: int | None = None) -> list[PassResult]:
    """Issue runs back to back until `seconds` have passed (and at least
    CHECK_RUNS inputs ran) or `runs` inputs are done. Each input runs once
    per leg, in order: traced under a leg's Tracer, untraced for None. Legs
    of one input run back to back, so they see the same machine speed."""
    outs = [PassResult() for _ in legs]
    start = perf_counter()
    for raw in inputs:
        ref = reference_work()
        for out in outs:
            out.ref_s.append(ref)
        for leg, out in zip(legs, outs):
            with traced(h, leg) if leg is not None else nullcontext():
                run_once(h, copy.deepcopy(raw), out)
        n = len(outs[0].op_s)
        if runs is not None and n >= runs:
            break
        if seconds is not None and n >= CHECK_RUNS and perf_counter() - start >= seconds:
            break
    return outs


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def setup_samples(workload: str, count: int) -> list[tuple[float, float]]:
    """Cold set-up times (s) of `count` fresh processes: (at reference speed, wall clock)."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload]
    samples = []
    for _ in range(count):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=60, check=True)
        ref_speed, wall = done.stdout.split()[-2:]
        samples.append((float(ref_speed), float(wall)))
    return samples


def tail(op_s: list[float]) -> tuple[float, float, int]:
    """(seconds, percentile, runs beyond): the slowest run with TAIL_BEYOND runs beyond it."""
    s = sorted(op_s)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(p: PassResult, setup_s: float, peak_rss_mb: float) -> dict:
    # Times are at reference speed (see the module docstring); setup_s is
    # scaled in its own process by setup_probe.py. Two figures are printed
    # but not declared in BENCHMARK.json. fail_ratio: a ratio that is 0 by
    # design cannot carry a relative bound, so ok_ratio carries that gate.
    # run_ms_tail: runs of one scenario differ in length by 1-2 %, so the
    # slowest runs are those the host slowed most or that were scaled worst,
    # and across seeds this figure spread up to 0.17 of its median.
    op_s = at_ref_speed(p)
    n, busy = len(op_s), sum(op_s)
    return {
        "runs_per_s": (n / busy, "runs/s"),
        "ticks_per_s": (p.ticks / busy, "ticks/s"),
        "run_ms_p50": (1000.0 * statistics.median(op_s), "ms"),
        "run_ms_tail": (1000.0 * tail(op_s)[0], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (p.failed / n, "ratio"),
        "ok_ratio": ((n - p.failed) / n, "ratio"),
        "expect_rate": (p.expected / n, "ratio"),
    }


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return (f"python {platform.python_version()}  numpy {numpy.__version__}  "
            f"nproc {len(os.sched_getaffinity(0))}  cpu {cpu}")


def print_metrics(title: str, metrics: dict, notes: dict | None = None) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:36s} {value:14.6g} {unit:8s} {note}".rstrip())


def measure(h, workload: str, seed: int, seconds: float, trace: bool) -> tuple[bool, PassResult, dict]:
    """One measurement of one workload; prints its report, returns (correct, pass, metrics)."""
    bases = base_configs(workload)
    for raw in bases.values():  # warm-up: lazy imports and first-call costs
        run_op(h, raw)
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"  why: {next(w['why'] for w in load_spec()['workloads'] if w['name'] == workload)}")
    tracer = Tracer()

    if not trace:
        setup = setup_samples(workload, SETUP_PROBES)
        gc.collect()
        [main] = run_pass(h, generate_inputs(workload, seed, bases), [None], seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += setup_samples(workload, SETUP_PROBES)
        [other] = run_pass(h, generate_inputs(workload, seed, bases), [tracer], runs=CHECK_RUNS)
        same = other.digests == main.digests[:CHECK_RUNS]
        metrics = end_to_end(main, statistics.median(s for s, _ in setup), peak_rss_mb)
        n = len(main.op_s)
        _, pct, beyond = tail(main.op_s)
        wall_s = sum(main.op_s)
        print_metrics("end-to-end (untraced pass, times at reference speed)", metrics, {
            "runs_per_s": f"wall clock {n / wall_s:.6g} runs/s; host at "
                          f"{statistics.fmean(REF_S / r for r in main.ref_s):.3f}x reference speed",
            "ticks_per_s": f"wall clock {main.ticks / wall_s:.6g} ticks/s",
            "run_ms_p50": f"wall clock {1000.0 * statistics.median(main.op_s):.6g} ms",
            "run_ms_tail": f"p{pct:.1f} of {n} runs, {beyond} beyond it; "
                           f"wall clock {1000.0 * tail(main.op_s)[0]:.6g} ms",
            "setup_s": f"wall clock {statistics.median(w for _, w in setup):.6g} s",
            "fail_ratio": f"{main.failed} of {n} runs failed",
            "expect_rate": f"{main.expected} of {n} runs",
        })
        coverage_ok = True
    else:
        # Each input runs traced, then untraced: the per-layer figures see
        # the inputs fresh, and the overhead ratio compares runs made at the
        # same machine speed.
        main, other = run_pass(h, generate_inputs(workload, seed, bases), [tracer, None], seconds=seconds)
        same = other.digests == main.digests
        n = len(main.op_s)
        metrics = layer_metrics(tracer, n, main.ticks, main.trace_bytes, sum(main.op_s) / sum(other.op_s),
                                time_scale=sum(at_ref_speed(main)) / sum(main.op_s))
        print_metrics("per-layer (traced pass, self time per run at reference speed)", metrics)
        coverage = sum(tracer.self_s.values()) / sum(main.op_s)
        coverage_ok = abs(1.0 - coverage) <= COVERAGE_TOL
        print(f"  layer self times sum to {coverage:.4f} of traced run time "
              f"({'ok' if coverage_ok else 'MISMATCH'}, tolerance {COVERAGE_TOL})")

    print(f"  digest first {CHECK_RUNS} runs {combined_digest(main.digests[:CHECK_RUNS])}  "
          f"all {len(main.digests)} runs {combined_digest(main.digests)}")
    print(f"  traced vs untraced digests over {len(other.digests)} runs: {'match' if same else 'DIFFER'}")
    return same and coverage_ok and main.failed == 0, main, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics untraced; 1: per-layer metrics traced")
    args = parser.parse_args(argv)

    h = import_harness()
    print(f"env: {environment()}")
    if args.workload == "all":
        plan = [(w, trace) for w in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]

    # The result line carries the metrics BENCHMARK.json declares; the report
    # above it also shows the ones that are printed but not gated.
    spec = load_spec()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload, trace in plan:
        ok, p, m = measure(h, workload, args.seed, args.seconds, trace)
        correct &= ok
        attempted += len(p.op_s)
        failed += p.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: {"value": v, "unit": u} for name, (v, u) in m.items() if name in declared})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
