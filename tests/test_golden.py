"""Golden outputs: the trace and summary bytes of pinned runs.

Each bundled config's `trace_csv` text and its summary, serialised as
`write_outputs` writes it, are pinned by sha256. So are four corpora, one
sha256 each over the concatenated outputs: D and E over noise seeds
1-50, the chases A, B and C over noise seeds 1-20 (the scenarios of
perfbench's chase workload), the six bundled configs at the noise seeds
2**64 + 3 and 2**96 + 5 (three and four 32-bit words of SeedSequence
entropy, where seeds 1-50 give one), and the six bundled
configs under each of five edits that move the control loop's timing or
the vehicle recursion (height compensation, tilt coupling off, a frame
rate whose period is not a whole number of ticks, a physics step that
does not divide the frame period, and a run shorter than two frames). A
fifth corpus pins the CLI's `--method` override: each bundled config
under every method its scenario takes (D and E all three, A-C only cat &
mouse, planar2d only shortest path), each passed to `config_from_dict` as
`method=`. Any change to the physics, sensor, predictor, planner,
vehicle, engine or output format that moves a single printed bit fails
here; a deliberate change must re-record the hashes and say why.

Recorded with Python 3.11.7 and numpy 2.4.6 (x86-64). The bytes depend
on numpy's version and on two libms: the one numpy calls, and the one
CPython's float `**` and `math` module call (the drag model's `pow` in
the truth and the predictor, and the `math` trigonometry in `sensor`
and `vehicle`). Another version of either may round a transcendental
function or an element-wise ufunc differently in the last ulp, which
shifts the printed floats; re-record on such a platform rather than
loosening the comparison. They do not depend on the BLAS
kernel numpy's OpenBLAS picks for the CPU, since no run calls BLAS:
every 3-term dot product is the float sum `physics.dot3` takes.
`test_bundled_outputs_match_under_other_blas_kernels` checks that in
child processes that force two other kernels.
"""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from catchsim.harness import bundled_config, config_from_dict, run_scenario, summary_dict, trace_csv
from catchsim.planner import PlanMethod

GOLDEN = {
    "A": (
        "78f217e9f3437ee7060658385552f14e24b148e6da41bac5b6728a3d63147eec",
        "9432bd18a46f9b3a23eae598f76318fa4f1eaeda24f9b3df50621be4de2edd55",
    ),
    "B": (
        "b97f33c4f00182ecc343fd2783179a76dee9e47dd3d38b1d30a7e3481fa11fb2",
        "e4e90034a9fbfc5921870dfa3b006e4e88bbcd3e1fe997d850ff1915f71749ce",
    ),
    "C": (
        "d6a207482df4ed6149706a91ff34a770894273f527ec40f93a486ce1f0cd6ad6",
        "c22d3c87225e418e09efc59702ce3b6947630aeb40d90c734f93b59a030fc447",
    ),
    "D": (
        "7f09ea7d72f342749f8938429b66ecef6b7371e419b590e56250c4d0dcddb3c0",
        "9f0052e11f3c549102e679c633612129681144005e0aca435bfd38ee458d7d49",
    ),
    "E": (
        "dcae3fa1ef06e7b525987b1327de60c89025938b8d91ecc0fdc89881c15e4b4a",
        "7d5606d6614145841a6c51ed2ca134f24852078aff1573933f60f6ab339a3bee",
    ),
    "planar2d": (
        "d7c5ece507ed1b82e3095ecd59717ba6bec66d7d9499888e8e558f342b0cdc42",
        "29f72979d34a0cd666b3a02ed073dfa41034ff743bdf192c9364e64273d65fb3",
    ),
}


SEEDS_SHA256 = "d419092a3286d016a224ab1704e72512608ddd8620a5db310dd7d61eeac9564e"
CHASE_SEEDS_SHA256 = "32df646a326b6cbe215da9bbd2007fbdc8bf2c46ea90f29b7565f3fdf9680667"
LONG_SEEDS_SHA256 = "032c28b366e6a6e3a8682da86d2325316a94db7054a556a716757a4ce93fc113"
LONG_SEEDS = (2**64 + 3, 2**96 + 5)
EDITED_SHA256 = "eb492837a6211c0ad9e06f5a1e33a770f950736e5deca6c34b705c796d8bdcbf"
EDITS = (
    (("uav", "height_comp_gain"), 0.5),
    (("planner", "tilt_coupling"), False),
    (("camera", "frame_rate"), 29.97),
    (("physics_dt",), 0.0007),
    (("max_sim_time",), 0.05),
)
METHODS_SHA256 = "5c71ceb7efdad4854f430bc4c69bc806a3e593bd323a1bc3ef3cc4e0dc6b02e9"
METHOD_RUNS = (
    [(sid, PlanMethod.CAT_MOUSE) for sid in ("A", "B", "C")]
    + [(sid, method) for sid in ("D", "E") for method in PlanMethod]
    + [("planar2d", PlanMethod.SHORTEST_PATH)]
)
SRC = Path(__file__).resolve().parent.parent / "src"
# Prints each bundled config's outputs, as _outputs makes them, as one JSON object by scenario id
BUNDLED_OUTPUTS = """
import json, sys
from catchsim.harness import bundled_config, run_scenario, summary_dict, trace_csv
out = {}
for sid in sys.argv[1:]:
    result = run_scenario(bundled_config(sid))
    out[sid] = trace_csv(result) + json.dumps(summary_dict(result), indent=2, sort_keys=True) + "\\n"
json.dump(out, sys.stdout)
"""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bundled_raw(sid: str) -> dict:
    return json.loads(resources.files("catchsim.scenarios").joinpath(f"{sid}.json").read_text())


def _result_outputs(result) -> bytes:
    return (trace_csv(result) + json.dumps(summary_dict(result), indent=2, sort_keys=True) + "\n").encode()


def _outputs(raw: dict, method: PlanMethod | None = None) -> bytes:
    return _result_outputs(run_scenario(config_from_dict(raw, method=method)))


@pytest.mark.parametrize("sid", list(GOLDEN))
def test_bundled_outputs_are_byte_identical(sid):
    result = run_scenario(bundled_config(sid))
    summary = json.dumps(summary_dict(result), indent=2, sort_keys=True) + "\n"
    assert (_sha256(trace_csv(result)), _sha256(summary)) == GOLDEN[sid]


def test_thrown_seed_sweep_is_byte_identical(thrown_seed_sweep):
    h = hashlib.sha256()
    for result in thrown_seed_sweep.values():  # D's seeds 1-50, then E's
        h.update(_result_outputs(result))
    assert h.hexdigest() == SEEDS_SHA256


def test_chase_seed_sweep_is_byte_identical():
    h = hashlib.sha256()
    for sid in ("A", "B", "C"):
        raw = _bundled_raw(sid)
        for seed in range(1, 21):
            raw["seed"] = seed
            h.update(_outputs(raw))
    assert h.hexdigest() == CHASE_SEEDS_SHA256


def test_long_seeds_are_byte_identical():
    h = hashlib.sha256()
    for sid in GOLDEN:
        raw = _bundled_raw(sid)
        for seed in LONG_SEEDS:
            raw["seed"] = seed
            h.update(_outputs(raw))
    assert h.hexdigest() == LONG_SEEDS_SHA256


def test_edited_configs_are_byte_identical():
    h = hashlib.sha256()
    for path, value in EDITS:
        for sid in GOLDEN:
            raw = _bundled_raw(sid)
            node = raw
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
            h.update(_outputs(raw))
    assert h.hexdigest() == EDITED_SHA256


def test_method_overrides_are_byte_identical():
    h = hashlib.sha256()
    for sid, method in METHOD_RUNS:
        h.update(_outputs(_bundled_raw(sid), method))
    assert h.hexdigest() == METHODS_SHA256


def test_bundled_outputs_match_under_other_blas_kernels():
    # OPENBLAS_CORETYPE picks the kernel numpy's OpenBLAS runs, for the child
    # process alone; Haswell and Prescott round a 3-term dot product
    # differently from each other and from an AVX-512 host's SkylakeX kernel
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    children = {
        core: subprocess.Popen(
            [sys.executable, "-c", BUNDLED_OUTPUTS, *GOLDEN],
            env={**env, "OPENBLAS_CORETYPE": core}, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for core in ("Haswell", "Prescott")
    }
    here = {sid: _outputs(_bundled_raw(sid)).decode() for sid in GOLDEN}
    for core, child in children.items():
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        there = json.loads(stdout)
        for sid in GOLDEN:
            assert there[sid] == here[sid], f"{sid} under OPENBLAS_CORETYPE={core}"
