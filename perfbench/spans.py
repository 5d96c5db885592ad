"""Per-layer tracing from outside the program.

`traced(harness)` swaps the names `catchsim.harness` binds at import
(and the four calls one operation makes) for wrappers that time each
call as a span. A span's self time is its duration minus the spans
nested in it; self times and call counts are folded into per-layer
totals as spans close, so memory stays flat over a long pass. Nothing
under the package itself is modified on disk.

Spans inside `config` and `score` are not split out: the load-time throw
check and the scoring pass call planner and predictor functions, and
that work belongs to loading and scoring, not to the control loop.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# harness-level name -> layer it belongs to
LAYER_OF = {
    "step_ground_truth": "physics",
    "observe": "sensor",
    "push_observation": "predictor",
    "predict_from_queue": "predictor",
    "plane_crossing": "predictor",
    "reachable_region": "planner",
    "plan_shortest": "planner",
    "plan_fastest": "planner",
    "plan_cat_mouse": "planner",
    "yaw_command": "planner",
    "step_uav": "vehicle",
    "_point_to_polyline": "score",
    "_fill_planar_errors": "score",
    "config_from_dict": "config",
    "run_scenario": "loop",
    "trace_csv": "trace",
    "summary_dict": "trace",
}
OPAQUE = {"config", "score"}
LAYERS = ("physics", "sensor", "predictor", "planner", "vehicle", "config", "loop", "score", "trace")


def _tally_observe(counts: Counter, obs) -> None:
    if obs is not None:
        counts["detections"] += 1


def _tally_prediction(counts: Counter, path) -> None:
    counts["predicted_samples"] += len(path)


def _tally_region(counts: Counter, region) -> None:
    if len(region) > 0:
        counts["regions_hit"] += 1


TALLY = {
    "observe": _tally_observe,
    "predict_from_queue": _tally_prediction,
    "reachable_region": _tally_region,
}


class Tracer:
    """Per-layer self time (s) and call counts, accumulated across operations."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[list[float]] = []  # child time of each open span
        self._opaque_depth = 0

    def wrap(self, name: str, fn):
        layer = LAYER_OF[name]
        opaque = layer in OPAQUE
        tally = TALLY.get(name)

        def wrapped(*args, **kwargs):
            if self._opaque_depth:
                return fn(*args, **kwargs)
            child = [0.0]
            self._open.append(child)
            self._opaque_depth += opaque
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                self._opaque_depth -= opaque
                self._open.pop()
                self.self_s[layer] += span - child[0]
                if self._open:
                    self._open[-1][0] += span
            self.counts[name] += 1
            if tally is not None:
                tally(self.counts, out)
            return out

        return wrapped


@contextmanager
def traced(harness, tracer: Tracer):
    """Patch every name in LAYER_OF on the harness module for the duration."""
    originals = {name: getattr(harness, name) for name in LAYER_OF}
    try:
        for name, fn in originals.items():
            setattr(harness, name, tracer.wrap(name, fn))
        yield tracer
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, runs: int, ticks: int, trace_bytes: int, overhead: float,
                  time_scale: float = 1.0) -> dict:
    """Per-run layer figures from one traced pass: name -> (value, unit).
    Self times are multiplied by `time_scale` (to put them at a reference speed)."""
    s = {layer: tracer.self_s[layer] * time_scale for layer in LAYERS}
    c = tracer.counts
    ms = {layer: 1000.0 * s[layer] / runs for layer in LAYERS}
    steps, frames = c["step_ground_truth"], c["observe"]
    predictions, regions = c["predict_from_queue"], c["reachable_region"]
    uav_steps = c["step_uav"]
    return {
        "physics.truth_steps_per_run": (steps / runs, "count"),
        "physics.us_per_step": (_ratio(1e6 * s["physics"], steps), "us"),
        "physics.ms_per_run": (ms["physics"], "ms"),
        "sensor.frames_per_run": (frames / runs, "count"),
        "sensor.detections_per_run": (c["detections"] / runs, "count"),
        "sensor.detect_ratio": (_ratio(c["detections"], frames), "ratio"),
        "sensor.us_per_frame": (_ratio(1e6 * s["sensor"], frames), "us"),
        "sensor.ms_per_run": (ms["sensor"], "ms"),
        "predictor.predictions_per_run": (predictions / runs, "count"),
        "predictor.samples_per_prediction": (_ratio(c["predicted_samples"], predictions), "count"),
        "predictor.us_per_prediction": (_ratio(1e6 * s["predictor"], predictions), "us"),
        "predictor.ms_per_run": (ms["predictor"], "ms"),
        "planner.regions_per_run": (regions / runs, "count"),
        "planner.region_hit_ratio": (_ratio(c["regions_hit"], regions), "ratio"),
        "planner.cat_mouse_per_run": (c["plan_cat_mouse"] / runs, "count"),
        "planner.ms_per_run": (ms["planner"], "ms"),
        "vehicle.steps_per_run": (uav_steps / runs, "count"),
        "vehicle.us_per_step": (_ratio(1e6 * s["vehicle"], uav_steps), "us"),
        "vehicle.ms_per_run": (ms["vehicle"], "ms"),
        "harness.ticks_per_run": (ticks / runs, "count"),
        "harness.config_ms_per_run": (ms["config"], "ms"),
        "harness.loop_ms_per_run": (ms["loop"], "ms"),
        "harness.score_ms_per_run": (ms["score"], "ms"),
        "harness.trace_ms_per_run": (ms["trace"], "ms"),
        "harness.trace_bytes_per_run": (trace_bytes / runs, "bytes"),
        "harness.tick_ms_per_run": (ms["physics"] + ms["vehicle"] + ms["loop"], "ms"),
        "harness.frame_ms_per_run": (ms["sensor"] + ms["predictor"] + ms["planner"], "ms"),
        "harness.trace_overhead_ratio": (overhead, "ratio"),
    }
