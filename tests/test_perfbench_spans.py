"""The benchmark's per-layer tracing still fits the harness.

`perfbench/spans.py` times each layer by patching names bound on
`catchsim.harness` (its LAYER_OF table). A name the harness no longer
binds makes `perfbench/run.py --trace 1` raise AttributeError, and the
Tier-1 suite does not run `perfbench/`; this test reads the table from
that file and patches every name, as the benchmark does.
"""

import importlib.util
from pathlib import Path

import pytest

import catchsim.harness as harness
from catchsim.harness import bundled_config, run_scenario, summary_dict, trace_csv

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_on_the_harness():
    spans = load_spans()
    missing = [name for name in spans.LAYER_OF if not hasattr(harness, name)]
    assert missing == []


def test_tracing_patches_and_restores_every_name():
    spans = load_spans()
    originals = {name: getattr(harness, name) for name in spans.LAYER_OF}
    tracer = spans.Tracer()
    with spans.traced(harness, tracer):
        assert all(getattr(harness, name) is not fn for name, fn in originals.items())
        result = harness.run_scenario(bundled_config("A"))
        harness.trace_csv(result)
        harness.summary_dict(result)
    assert all(getattr(harness, name) is fn for name, fn in originals.items())
    assert tracer.counts["run_scenario"] == 1 and tracer.counts["observe"] == len(result.records) - 1
    untraced = run_scenario(bundled_config("A"))
    assert (trace_csv(untraced), summary_dict(untraced)) == (trace_csv(result), summary_dict(result))


# Layers whose traced names the run no longer calls: the segment engine
# reads ground truth from `ground_truth` and flies with `fly`, not with
# `step_ground_truth` and `step_uav`, so their time is booked as `loop`.
KNOWN_DARK = {"physics", "vehicle"}


@pytest.mark.parametrize(
    "sid, exercised",
    [
        ("D", {"sensor", "predictor", "planner", "score", "loop"}),
        ("A", {"sensor", "predictor", "planner", "loop"}),  # predictor: the queue push
    ],
)
def test_every_layer_a_scenario_exercises_records_calls(sid, exercised):
    # a layer whose work moves to a name the table does not wrap goes dark here
    spans = load_spans()
    cfg = bundled_config(sid)
    tracer = spans.Tracer()
    with spans.traced(harness, tracer):
        harness.run_scenario(cfg)
    calls = dict.fromkeys(spans.LAYERS, 0)
    for name, layer in spans.LAYER_OF.items():
        calls[layer] += tracer.counts[name]
    lit = {layer for layer, n in calls.items() if n > 0}
    assert lit == exercised
    assert not KNOWN_DARK & lit
