"""Tests of the benchmark itself, at a tiny size.

Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def digest_line(stdout: str) -> str:
    return next(line.split("  all")[0] for line in stdout.splitlines() if "digest first" in line)


@pytest.fixture(scope="module")
def runs():
    return {
        (w["name"], trace): bench(w["name"], trace)
        for w in SPEC["workloads"]
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_named_with_its_unit(runs, workload, trace, section):
    done = runs[(workload, trace)]
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in done.stdout.splitlines()), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_same_digest(runs, workload):
    again = bench(workload, 0)
    assert again.returncode == 0, again.stderr
    first = digest_line(runs[(workload, 0)].stdout)
    assert digest_line(again.stdout) == first
    assert digest_line(runs[(workload, 1)].stdout) == first


def test_other_seed_other_inputs(runs):
    other = bench("thrown_seeds", 0, seed=4)
    assert other.returncode == 0, other.stderr
    assert digest_line(other.stdout) != digest_line(runs[("thrown_seeds", 0)].stdout)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("chase", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
