"""Golden outputs: the trace and summary bytes of pinned runs.

Each bundled config's `trace_csv` text and its summary, serialised as
`write_outputs` writes it, are pinned by sha256. So are four corpora, one
sha256 each over the concatenated outputs: D and E over noise seeds
1-50, the chases A, B and C over noise seeds 1-20 (the scenarios of
perfbench's chase workload), the six bundled configs at the noise seeds
2**64 + 3 and 2**96 + 5 (with the tick, four and five 32-bit words of
SeedSequence entropy, where seeds 1-50 give two), and the six bundled
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
on numpy's version and on the libm it calls: another version may round
a transcendental function or an element-wise ufunc differently in the
last ulp, which shifts the printed floats; re-record on such a platform
rather than loosening the comparison. They do not depend on the BLAS
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
        "56c15bae47dd4b77cf50b811f23b30d1e043a7592972918fbf9c77ccf8019c10",
        "6cb5705697f17cc58bfa48d4dfc977ebbc9dd70cba0fe2f70414787c7f96a0ea",
    ),
    "B": (
        "7c9236a7ef3f2702af724681194b9435018baa69019a2e4a4e974d1ffc4e530f",
        "49c63e900305fc1c7244f26c65e4858c57e0a630486f17ef807270562354d7b9",
    ),
    "C": (
        "6c70b8af25fba77d26845a5a9b30ae5612f8ac80e5c92bebfe2442c261e15cfe",
        "ec0c6d29bd7f75a3a559ba67cc3b9b179294a4ad5acb8b8223aacd94dd087c4b",
    ),
    "D": (
        "23139ba3c6c6de8f24792856dcd02acda75a6b293d96ea6f87525aecf9050739",
        "812b595ab4394a9fcb2a98e6021f3f3c7fa303f8e5547d7cdebb4e4174c74234",
    ),
    "E": (
        "4802eaa9afeb05274b9b2d31b475739f25c612b82daad08b362019e03e9afcfc",
        "2df7c62c4fd861feea8ada708962162b835a437710d7881fcc41326a6f70579a",
    ),
    "planar2d": (
        "56f354c7e2ccf6080af93fe9477e37bd34a171416ae1738ecbd27d031d80ef5c",
        "882990fd0109ef9c28f0a3022b1693f560ba336908915a8b2775b116d712a54f",
    ),
}


SEEDS_SHA256 = "4687475ddb802e534694b460393dc55a5e873777b346a408671b35e7e6d07480"
CHASE_SEEDS_SHA256 = "d209123bcfd16320c34fc8367d9303341e88bf5059c9e13976afa191cd897087"
LONG_SEEDS_SHA256 = "53024f1ed37266fdc5b41962a7aa295d2f6cb4e06471668ff3c9bd97b3256d95"
LONG_SEEDS = (2**64 + 3, 2**96 + 5)
EDITED_SHA256 = "4747fd76dd50a0cd79e38c466911ad221c8e23e407aec0e951671ebbec2241e6"
EDITS = (
    (("uav", "height_comp_gain"), 0.5),
    (("planner", "tilt_coupling"), False),
    (("camera", "frame_rate"), 29.97),
    (("physics_dt",), 0.0007),
    (("max_sim_time",), 0.05),
)
METHODS_SHA256 = "66b99531af635ba6779a2a7adb51e2a997b1aaec714465799ff4ca3d1189cc76"
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


def _outputs(raw: dict, method: PlanMethod | None = None) -> bytes:
    result = run_scenario(config_from_dict(raw, method=method))
    return (trace_csv(result) + json.dumps(summary_dict(result), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("sid", list(GOLDEN))
def test_bundled_outputs_are_byte_identical(sid):
    result = run_scenario(bundled_config(sid))
    summary = json.dumps(summary_dict(result), indent=2, sort_keys=True) + "\n"
    assert (_sha256(trace_csv(result)), _sha256(summary)) == GOLDEN[sid]


def test_thrown_seed_sweep_is_byte_identical():
    h = hashlib.sha256()
    for sid in ("D", "E"):
        raw = _bundled_raw(sid)
        for seed in range(1, 51):
            raw["seed"] = seed
            h.update(_outputs(raw))
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
