"""Golden outputs: the trace and summary bytes of pinned runs.

Each bundled config's `trace_csv` text and its summary, serialised as
`write_outputs` writes it, are pinned by sha256. So are two corpora, one
sha256 each over the concatenated outputs: D and E over noise seeds
1-50, and the six bundled configs under each of five edits that move
the control loop's timing or the vehicle recursion (height
compensation, tilt coupling off, a frame rate whose period is not a
whole number of ticks, a physics step that does not divide the frame
period, and a run shorter than two frames). Any change to the
physics, sensor, predictor, planner, vehicle, engine or output format
that moves a single printed bit fails here; a deliberate change must
re-record the hashes and say why.

Recorded with Python 3.11.7 and numpy 2.4.6 (x86-64). Other numpy or
libm versions may round transcendental functions differently in the
last ulp, which shifts the printed floats; re-record on such a platform
rather than loosening the comparison.
"""

import hashlib
import json
from importlib import resources

import pytest

from catchsim.harness import bundled_config, config_from_dict, run_scenario, summary_dict, trace_csv

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
        "ed890c686fd7058aa612a03bfb8aae46671302d44990bc4ce3000304309b428a",
        "882990fd0109ef9c28f0a3022b1693f560ba336908915a8b2775b116d712a54f",
    ),
}


SEEDS_SHA256 = "f571b5ffaf841304bda8fcc17f9504f66406ea31765d52e35e545ea63686c88b"
EDITED_SHA256 = "eadd48ef602c577203a02524074b91fb4ef7199178ecf521e82f51cb86bb7af6"
EDITS = (
    (("uav", "height_comp_gain"), 0.5),
    (("planner", "tilt_coupling"), False),
    (("camera", "frame_rate"), 29.97),
    (("physics_dt",), 0.0007),
    (("max_sim_time",), 0.05),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bundled_raw(sid: str) -> dict:
    return json.loads(resources.files("catchsim.scenarios").joinpath(f"{sid}.json").read_text())


def _outputs(raw: dict) -> bytes:
    result = run_scenario(config_from_dict(raw))
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
