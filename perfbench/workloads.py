"""Benchmark workloads: which bundled scenarios run, and how each run's
config is derived from the workload seed.

Inputs are plain config dicts, generated outside the timed region. The
same (workload, seed) always yields the same sequence of dicts, so a
replay of the first n inputs reproduces the first n operations exactly.
"""

from __future__ import annotations

import copy
import random
from itertools import count
from typing import Iterator

# Bundled scenario ids per workload, cycled in this order. Why each
# workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "thrown_seeds": ("D", "E"),
    "thrown_varied": ("D", "E", "planar2d"),
    "chase": ("A", "B", "C"),
}
# thrown_varied moves each run's ball start by up to these bounds, uniformly
# per component, so no two runs share a true ball path.
PERTURB_POSITION_M = 0.1
PERTURB_VELOCITY_MPS = 0.2


def base_configs(workload: str) -> dict[str, dict]:
    """The workload's bundled configs, every default materialised."""
    from catchsim.harness import bundled_config

    return {sid: bundled_config(sid).to_dict() for sid in WORKLOADS[workload]}


def generate_inputs(workload: str, seed: int, bases: dict[str, dict]) -> Iterator[dict]:
    """Endless deterministic stream of raw config dicts for one workload.

    Scenarios alternate. In thrown_seeds and chase each noise seed is run
    once per scenario, the seeds consecutive from a start drawn from the
    workload seed. In thrown_varied every run has its own noise seed and
    its own ball start, perturbed within the PERTURB_* bounds; a perturbed
    config the harness rejects is a failed run, never resampled.
    """
    scenarios = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    first_noise_seed = rng.randrange(1, 2**30)
    varied = workload == "thrown_varied"
    for i in count():
        raw = copy.deepcopy(bases[scenarios[i % len(scenarios)]])
        raw["seed"] = first_noise_seed + (i if varied else i // len(scenarios))
        if varied:
            ball = raw["ball"]
            ball["position"] = [x + rng.uniform(-PERTURB_POSITION_M, PERTURB_POSITION_M) for x in ball["position"]]
            ball["velocity"] = [v + rng.uniform(-PERTURB_VELOCITY_MPS, PERTURB_VELOCITY_MPS) for v in ball["velocity"]]
        yield raw
