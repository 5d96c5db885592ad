"""Scenario-engine verification: config validation, metrics, traces, outcomes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchsim import harness
from catchsim.harness import (
    MAX_PREDICTED_STEPS,
    MAX_TRUTH_SAMPLES,
    TRACE_HEADER,
    ConfigError,
    ScenarioId,
    bundled_config,
    config_from_dict,
    final_prediction_error,
    load_config,
    prediction_error,
    run_scenario,
    scenario_expectation,
    summary_dict,
    trace_csv,
    write_outputs,
)
from catchsim import sensor
from catchsim.planner import PlanMethod
from catchsim.predictor import PredictedPath
from catchsim.sensor import CameraModel, frame_draws
from conftest import MAX_NOISE_SIGMA, MAX_POINTS_PER_DETECTION

SRC = Path(__file__).resolve().parent.parent / "src"


# the predictive methods, which the chases A-C do not take
CHASE_PREDICTIVE_RUNS = [
    (sid, method) for sid in ("A", "B", "C") for method in (PlanMethod.FASTEST_PATH, PlanMethod.SHORTEST_PATH)
]


def minimal_a(**extra):
    raw = {
        "scenario_id": "A",
        "max_sim_time": 4.0,
        "ball": {"position": [4.0, 0.0, 2.0], "velocity": [0.0, 0.0, 0.0], "motion": "frozen"},
    }
    raw.update(extra)
    return raw


BALL_A = {"position": [4.0, 0.0, 2.0], "velocity": [0.0, 0.0, 0.0], "motion": "frozen"}
NAN, INFINITY = json.loads("NaN"), json.loads("Infinity")  # Python's json accepts both
# One config per rejection branch of the schema walk, with the exact message.
# The last three pin the order of the checks: a node's unknown keys first,
# then its fields in schema order, each group's own keys when it is reached.
SCHEMA_REJECTIONS = {
    "root_not_an_object": ([1, 2], "config root must be an object, got list"),
    "group_not_an_object": (minimal_a(camera=5), "camera: expected an object, got int"),
    "nan": (minimal_a(max_sim_time=NAN), "max_sim_time: must be finite, got nan"),
    "infinity": (minimal_a(max_sim_time=INFINITY), "max_sim_time: must be finite, got inf"),
    "min_exclusive": (minimal_a(physics_dt=0), "physics_dt: must be > 0, got 0.0"),
    "min": (minimal_a(camera={"noise_sigma": -1}), "camera.noise_sigma: must be >= 0, got -1.0"),
    "max": (minimal_a(camera={"noise_sigma": 1e200}), "camera.noise_sigma: must be <= 1e+100, got 1e+200"),
    "max_exclusive": (
        minimal_a(camera={"horizontal_fov": math.pi}),
        "camera.horizontal_fov: must be < 3.141592653589793, got 3.141592653589793",
    ),
    "air_density_nonpositive": (
        minimal_a(environment={"air_density": 0}), "environment.air_density: must be > 0, got 0.0"
    ),
    "start_elevation_nonpositive": (
        minimal_a(uav={"start_elevation": 0}), "uav.start_elevation: must be > 0, got 0.0"
    ),
    "integer_is_a_float": (minimal_a(seed=1.5), "seed: expected an integer, got 1.5"),
    "integer_is_a_bool": (minimal_a(seed=True), "seed: expected an integer, got True"),
    "integer_below_min": (
        minimal_a(prediction={"queue_capacity": 1}), "prediction.queue_capacity: must be >= 2, got 1"
    ),
    "integer_above_max": (
        minimal_a(camera={"points_per_detection": 100001}),
        "camera.points_per_detection: must be <= 100000, got 100001",
    ),
    "boolean": (minimal_a(planner={"tilt_coupling": 1}), "planner.tilt_coupling: expected a boolean, got 1"),
    "string": (minimal_a(ball={**BALL_A, "motion": 3}), "ball.motion: expected a string, got 3"),
    "vec3_length": (
        minimal_a(ball={**BALL_A, "position": [4.0, 2.0]}),
        "ball.position: expected a list of 3 numbers, got [4.0, 2.0]",
    ),
    "vec3_bool": (
        minimal_a(ball={**BALL_A, "position": [4.0, True, 2.0]}),
        "ball.position: expected a list of 3 numbers, got [4.0, True, 2.0]",
    ),
    "vec3_non_finite": (
        minimal_a(ball={**BALL_A, "position": [4.0, NAN, 2.0]}),
        "ball.position: components must be finite, got [4.0, nan, 2.0]",
    ),
    "number_past_the_float_range": (
        minimal_a(max_sim_time=10**400), "max_sim_time: must be finite, got an integer of 401 digits"
    ),
    "vec3_past_the_float_range": (
        minimal_a(ball={**BALL_A, "position": [4.0, -(10**400), 2.0]}),
        "ball.position: components must be finite, got an integer of 401 digits",
    ),
    # a reference area derived from the diameter (none is given) that leaves the float range
    "derived_area_overflow": (
        minimal_a(projectile={"diameter": 1e155}),
        "projectile.diameter: with reference_area omitted, pi D^2 / 4 must be finite and > 0, got inf",
    ),
    "derived_area_underflow": (
        minimal_a(projectile={"diameter": 1e-200}),
        "projectile.diameter: with reference_area omitted, pi D^2 / 4 must be finite and > 0, got 0.0",
    ),
    # with a reference area given, the diameter still scales the camera's points
    "radius_past_the_noise_max": (
        minimal_a(projectile={"diameter": 1e300, "reference_area": 1.0}),
        "projectile.diameter: must be <= twice camera.noise_sigma's max (2e+100), got 1e+300",
    ),
    "unknown_key_before_fields": (minimal_a(bogus=1, seed=-1), "unknown field 'bogus'"),
    "fields_in_schema_order": (minimal_a(physics_dt=0, seed=-1), "seed: must be >= 0, got -1"),
    "group_keys_when_reached": (minimal_a(camera={"bogus": 1}, seed=-1), "seed: must be >= 0, got -1"),
}


class TestConfigValidation:
    @pytest.mark.parametrize("case", SCHEMA_REJECTIONS)
    def test_schema_rejection_message(self, case):
        raw, message = SCHEMA_REJECTIONS[case]
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert str(exc.value) == message

    def test_unknown_field_named(self):
        raw = minimal_a(planner={"hysteresys_dist": 0.2})
        with pytest.raises(ConfigError, match="planner.hysteresys_dist"):
            config_from_dict(raw)

    def test_missing_required_named(self):
        raw = {"scenario_id": "A", "max_sim_time": 4.0, "ball": {"velocity": [0, 0, 0]}}
        with pytest.raises(ConfigError, match="ball.position"):
            config_from_dict(raw)

    def test_wrong_type_named(self):
        raw = minimal_a(max_sim_time="long")
        with pytest.raises(ConfigError, match="max_sim_time"):
            config_from_dict(raw)

    def test_defaults_applied(self):
        cfg = config_from_dict(minimal_a())
        assert cfg.physics_dt == 0.001
        assert cfg.camera.frame_rate == 30.0
        assert cfg.limits.intercept_radius == 0.35
        assert cfg.queue_capacity == 5
        assert cfg.method is PlanMethod.CAT_MOUSE

    def test_scenario_method_mapping_enforced(self):
        # the id fixes the method: a file cannot set one, the method argument overrides it
        with pytest.raises(ConfigError, match="unknown field 'planner.method'"):
            config_from_dict(minimal_a(planner={"method": "shortest_path"}))
        raw = bundled_config("D").to_dict()
        assert config_from_dict(raw, method=PlanMethod.FASTEST_PATH).method is PlanMethod.FASTEST_PATH
        methods = {sid: bundled_config(sid).method.value for sid in ("A", "B", "C", "D", "E", "planar2d")}
        assert methods == {
            "A": "cat_mouse", "B": "cat_mouse", "C": "cat_mouse",
            "D": "shortest_path", "E": "fastest_path", "planar2d": "shortest_path",
        }

    def test_scenario_yaw_mapping_enforced(self):
        raw = {
            "scenario_id": "C",
            "max_sim_time": 4.0,
            "ball": {"position": [4, 1, 2], "velocity": [0, -1, 0], "motion": "linear"},
            "planner": {"yaw_enabled": False},
        }
        with pytest.raises(ConfigError, match="unknown field 'planner.yaw_enabled'"):
            config_from_dict(raw)
        # the id fixes the yaw: B holds its heading where C, the same config, turns to the ball
        del raw["planner"]
        yaws = {}
        for sid in ("B", "C"):
            result = run_scenario(config_from_dict({**raw, "scenario_id": sid}))
            yaws[sid] = {rec.setpoint.target_yaw for rec in result.records}
        assert yaws["B"] == {0.0}
        assert len(yaws["C"]) > 1

    def test_plane_only_for_planar2d(self):
        raw = minimal_a(plane={"point": [0, 0, 2], "normal": [1, 0, 0]})
        with pytest.raises(ConfigError, match="plane"):
            config_from_dict(raw)

    def test_planar2d_requires_plane(self):
        raw = {
            "scenario_id": "planar2d",
            "max_sim_time": 4.0,
            "ball": {"position": [2, 0, 1], "velocity": [-3, 0, 4]},
        }
        with pytest.raises(ConfigError, match="plane"):
            config_from_dict(raw)

    def test_plane_normal_must_be_unit(self):
        raw = {
            "scenario_id": "planar2d",
            "max_sim_time": 4.0,
            "ball": {"position": [2, 0, 1], "velocity": [-3, 0, 4]},
            "plane": {"point": [0, 0, 2], "normal": [2, 0, 0]},
        }
        with pytest.raises(ConfigError, match="unit"):
            config_from_dict(raw)

    def test_uav_start_must_lie_on_plane(self):
        raw = {
            "scenario_id": "planar2d",
            "max_sim_time": 4.0,
            "ball": {"position": [2, 0, 1], "velocity": [-3, 0, 4]},
            "plane": {"point": [1, 0, 2], "normal": [1, 0, 0]},
        }
        with pytest.raises(ConfigError, match="start position"):
            config_from_dict(raw)

    def test_unreachable_throw_rejected(self):
        # ball flying away from the UAV: nothing is reachable before arrival
        raw = {
            "scenario_id": "D",
            "max_sim_time": 4.0,
            "ball": {"position": [1.5, 0.0, 2.0], "velocity": [2.0, 0.0, 4.0], "motion": "ballistic"},
        }
        with pytest.raises(ConfigError, match="reachable"):
            config_from_dict(raw)

    def test_crippled_vehicle_rejected_at_load(self):
        raw = bundled_config("D").to_dict()
        raw["uav"]["limits"]["max_speed"] = 0.01
        with pytest.raises(ConfigError, match="reachable"):
            config_from_dict(raw)

    def test_scenario_e_needs_distinct_earliest_and_nearest(self):
        # an early close pass that then recedes: the region opens at its
        # own nearest point, so fastest and shortest would pick the same one
        raw = {
            "scenario_id": "E",
            "max_sim_time": 4.0,
            "ball": {"position": [1.8, -0.6, 1.6], "velocity": [0.4, 0.85, 5.8], "motion": "ballistic"},
        }
        with pytest.raises(ConfigError, match="earliest"):
            config_from_dict(raw)

    def test_zero_gravity_needs_tilt_coupling_off(self):
        raw = bundled_config("A").to_dict()
        raw["environment"]["gravity"] = 0.0
        with pytest.raises(ConfigError, match="environment.gravity"):
            config_from_dict(raw)
        raw["planner"]["tilt_coupling"] = False
        assert run_scenario(config_from_dict(raw)).termination_reason == "intercepted"

    def test_unpredictable_throw_rejected_at_load(self):
        # a velocity near the float range: the load-time prediction's Re overflows
        raw = bundled_config("D").to_dict()
        raw["ball"]["velocity"] = [1e306, 1e306, 1e306]
        with pytest.raises(ConfigError, match="scenario D: .*Re must be finite"):
            config_from_dict(raw)

    @pytest.mark.parametrize("sid", ["D", "E", "planar2d"])
    def test_unbounded_prediction_rejected_at_load(self, sid):
        # 3 s / 1e-300 s: the load-time and per-frame propagation would never end
        raw = bundled_config(sid).to_dict()
        raw["prediction"]["t_step"] = 1e-300
        with pytest.raises(ConfigError, match="prediction.t_step"):
            config_from_dict(raw)
        raw["prediction"]["t_step"] = raw["prediction"]["max_horizon"] / MAX_PREDICTED_STEPS
        config_from_dict(raw)

    @pytest.mark.parametrize("sid", ["D", "E"])
    def test_unbounded_throw_check_rejected_at_load_under_cat_mouse(self, sid):
        # cat & mouse predicts no path per frame, but the throw check still propagates one at load
        raw = bundled_config(sid).to_dict()
        raw["prediction"]["t_step"] = raw["prediction"]["max_horizon"] / (1.5 * MAX_PREDICTED_STEPS)
        with pytest.raises(ConfigError, match="prediction.t_step"):
            config_from_dict(raw, method=PlanMethod.CAT_MOUSE)
        raw["prediction"]["t_step"] = raw["prediction"]["max_horizon"] / MAX_PREDICTED_STEPS
        assert config_from_dict(raw, method=PlanMethod.CAT_MOUSE).method is PlanMethod.CAT_MOUSE

    @pytest.mark.parametrize("sid", ["A", "D"])
    def test_ground_truth_longer_than_the_bound_rejected_at_load(self, sid):
        raw = bundled_config(sid).to_dict()
        raw["physics_dt"] = 1e-5
        with pytest.raises(ConfigError, match="physics_dt"):
            config_from_dict(raw)
        raw["physics_dt"], raw["max_sim_time"] = 1e-300, 1e300  # a tick count past the int range
        with pytest.raises(ConfigError, match="physics_dt"):
            config_from_dict(raw)

    def test_ground_truth_of_exactly_the_bound_loads(self):
        raw = bundled_config("A").to_dict()  # a frozen ball: max_sim_time / physics_dt + 1 samples
        raw["physics_dt"] = 1e-3
        raw["max_sim_time"] = (MAX_TRUTH_SAMPLES - 1) * 1e-3
        config_from_dict(raw)
        raw["max_sim_time"] = MAX_TRUTH_SAMPLES * 1e-3
        with pytest.raises(ConfigError, match="physics_dt"):
            config_from_dict(raw)

    def test_ball_start_distance_past_the_float_range_rejected_at_load(self):
        raw = bundled_config("A").to_dict()
        raw["ball"]["position"] = [1e308, 1e308, 2.0]
        with pytest.raises(ConfigError, match="ball: its distance from the UAV start"):
            config_from_dict(raw)

    def test_uav_reach_past_the_float_range_rejected_at_load(self):
        raw = bundled_config("A").to_dict()
        raw["uav"]["limits"]["max_speed"] = 1e300
        with pytest.raises(ConfigError, match="uav.limits.max_speed"):
            config_from_dict(raw)
        raw["uav"]["limits"]["max_speed"] = 1e150
        config_from_dict(raw)

    def test_frame_count_past_the_float_range_rejected_at_load(self):
        raw = bundled_config("A").to_dict()
        raw["camera"]["frame_rate"] = 1e308
        with pytest.raises(ConfigError, match="camera.frame_rate"):
            config_from_dict(raw)
        raw["camera"]["frame_rate"] = 1e300  # a frame every tick
        result = run_scenario(config_from_dict(raw))
        assert len(result.records) == round(result.records[-1].time / raw["physics_dt"]) + 1

    @pytest.mark.parametrize(
        "sid, method", CHASE_PREDICTIVE_RUNS, ids=[f"{sid}-{m.value}" for sid, m in CHASE_PREDICTIVE_RUNS]
    )
    def test_chase_rejects_a_predictive_method(self, sid, method):
        # a frozen or linear ball has no reachable prediction on any frame, so
        # the method would only add a prediction per frame to cat & mouse
        raw = bundled_config(sid).to_dict()
        with pytest.raises(ConfigError, match=f"planner.method: scenario {sid} .*'{method.value}'"):
            config_from_dict(raw, method=method)
        assert config_from_dict(raw, method=PlanMethod.CAT_MOUSE).method is PlanMethod.CAT_MOUSE

    def test_planar2d_method_cannot_be_overridden(self):
        raw = bundled_config("planar2d").to_dict()
        assert config_from_dict(raw, method=PlanMethod.SHORTEST_PATH).method is PlanMethod.SHORTEST_PATH
        for method in (PlanMethod.CAT_MOUSE, PlanMethod.FASTEST_PATH):
            with pytest.raises(ConfigError, match="planner.method"):
                config_from_dict(raw, method=method)

    def test_bundled_configs_load(self):
        for sid in ("A", "B", "C", "D", "E", "planar2d"):
            cfg = bundled_config(sid)
            assert cfg.scenario_id is ScenarioId(sid)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("kind", ["long_integer", "not_utf8", "directory"])
    def test_config_file_that_cannot_be_read_or_decoded(self, kind, tmp_path, unreadable_config):
        path = unreadable_config(tmp_path, kind)
        with pytest.raises(ConfigError, match=f"config file {path}"):
            load_config(path)

    def test_points_per_detection_above_the_bound_rejected_at_load(self):
        # each camera upper bound: the first value past it is rejected, naming the field;
        # the bound itself, or for an exclusive one the nearest float inside, loads
        edges = {
            "points_per_detection": (MAX_POINTS_PER_DETECTION + 1, MAX_POINTS_PER_DETECTION),
            "noise_sigma": (math.nextafter(MAX_NOISE_SIGMA, math.inf), MAX_NOISE_SIGMA),
            "horizontal_fov": (math.pi, math.nextafter(math.pi, 0.0)),
            "vertical_fov": (math.pi, math.nextafter(math.pi, 0.0)),
        }
        raw = bundled_config("A").to_dict()
        for key, (past, inside) in edges.items():
            raw["camera"][key] = past
            with pytest.raises(ConfigError, match=f"^camera.{key}: must be "):
                config_from_dict(raw)
            raw["camera"][key] = inside
        camera = config_from_dict(raw).camera
        assert {key: getattr(camera, key) for key in edges} == {key: inside for key, (_, inside) in edges.items()}

    def test_round_trip_identical_run(self):
        cfg = bundled_config("D")
        clone = config_from_dict(cfg.to_dict())
        assert trace_csv(run_scenario(cfg)) == trace_csv(run_scenario(clone))


class TestPredictionError:
    def test_point_on_trajectory(self):
        traj = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert prediction_error(np.array([1.0, 0.0, 0.0]), traj) == 0.0

    def test_perpendicular_distance(self):
        traj = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert prediction_error(np.array([1.0, 1.0, 0.0]), traj) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        verts = rng.uniform(-2, 2, size=(40, 3))
        # brute force: densely sample every segment, 400 points each, once
        a, b = verts[:-1, None, :], verts[1:, None, :]
        lam = np.linspace(0.0, 1.0, 400)[None, :, None]
        samples = (a + lam * (b - a)).reshape(-1, 3)
        for _ in range(25):
            q = rng.uniform(-3, 3, size=3)
            best = float(np.linalg.norm(q - samples, axis=1).min())
            assert prediction_error(q, verts) == pytest.approx(best, abs=1e-4)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            prediction_error(np.zeros(3), np.empty((0, 3)))


def rows_segments(vertices):
    """Reference: the row-form `_segments`, (N, 3) starts and directions."""
    a = vertices[:-1]
    d = vertices[1:] - a
    return a, d, (d * d).sum(axis=1)


def rows_point_to_polyline(point, segments):
    """Reference: the row-form `_point_to_polyline`, (N, 3) reductions along axis 1."""
    a, d, dd = segments
    t = ((point - a) * d).sum(axis=1)
    t = np.clip(np.divide(t, dd, out=np.zeros_like(t), where=dd > 0.0), 0.0, 1.0)
    closest = a + t[:, None] * d
    return float(np.linalg.norm(point - closest, axis=1).min())


def random_polylines(rng):
    """(vertices, points) pairs: polylines of 1 to 2599 segments, a multiple of
    SCORE_BLOCK or not; uniform vertices, repeated vertices (zero-length segments)
    and random walks of short steps with a few 1e4 times longer ones; points off
    the path, on a vertex and near one; coordinates from 1e-160 (subnormal
    squares) to 1e155 (overflowing squares)."""
    for scale in (1e-160, 1.0, 1e3, 1e150, 1e155):
        for n in (2, 3, 17, 40, 65, 1300):
            vertices = rng.uniform(-scale, scale, size=(n, 3))
            repeated = vertices[np.sort(rng.integers(0, n, size=n))]  # runs of one vertex
            steps = rng.standard_normal((n, 3)) * np.where(rng.random((n, 1)) < 0.02, 1e4, 1.0)
            walk = np.cumsum(steps, axis=0) * (scale * 1e-4)
            for verts in (vertices, repeated, np.repeat(vertices, 2, axis=0), walk):
                spread = np.abs(verts).max()
                off_path = rng.uniform(-2 * spread, 2 * spread, size=(8, 3))
                on_vertex = verts[rng.integers(0, len(verts), size=4)]
                near = verts[rng.integers(0, len(verts), size=8)] + rng.standard_normal((8, 3)) * (scale * 1e-4)
                yield verts, np.vstack([off_path, on_vertex, near])


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


class TestColumnFormScorer:
    """The batched, block-pruned scorer gives the row-form one's distances bit for bit."""

    def test_row_sums_of_three_associate_left_to_right(self):
        x = np.random.default_rng(3).standard_normal((200_000, 3)) * np.array([1.0, 1e-8, 1e8])
        assert np.array_equal(np.add.reduce(x, axis=1), (x[:, 0] + x[:, 1]) + x[:, 2]), (
            "numpy sums a row of three in another order: harness._segments/_point_to_polyline "
            "compute (x + y) + z, as the row-form scorer rounded, and no longer match it"
        )

    def test_random_polylines_match_the_row_form(self):
        rng = np.random.default_rng(11)
        for verts, points in random_polylines(rng):
            with warnings.catch_warnings():
                if np.abs(verts).max() > 1e154:  # the squares overflow, in both scorers alike
                    warnings.simplefilter("ignore", RuntimeWarning)
                rows = rows_segments(verts)
                batched = harness._point_to_polyline(points, harness._segments(verts))
                assert batched.shape == (len(points),)
                for point, got in zip(points, batched.tolist()):
                    assert same_float(got, rows_point_to_polyline(point, rows)), (len(verts), point)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinite_points_match_the_row_form(self, bad):
        rng = np.random.default_rng(12)
        for verts, points in islice(random_polylines(rng), 0, None, 7):
            rows = rows_segments(verts)
            for point in points[:3]:
                for axis in range(3):
                    point = point.copy()
                    point[axis] = bad
                    assert same_float(prediction_error(point, verts), rows_point_to_polyline(point, rows))

    def test_overflowing_far_block_is_not_skipped(self):
        # block 0's middle segment overflows to NaN (its t is inf / inf), though the
        # block's bounds are finite and clear the near blocks' by 0.6e154; the NaN stands
        far = [[0.0, 0.0, 0.0], [-0.7e154, 0.0, 0.0], [0.7e154, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 14
        near = [[1.3e154 * (1 - 1e-3 * j), 1.0, 0.0] for j in range(1, 33)]
        verts, point = np.array(far + near), np.array([1.3e154, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(rows_point_to_polyline(point, rows_segments(verts)))
            assert math.isnan(prediction_error(point, verts))

    def test_rounding_past_the_distances_is_in_the_margin(self):
        # near 2**50 the grid is 0.25 m: the segment e1-e2 passes 10.003 m from the
        # point, past its block's bound D - R > 10 = UB, yet scores 9.988 on that grid
        centre, e1, e2 = [28.25, -28.25, 0.0], [7.25, -7.0, 0.0], [7.0, -7.25, 0.0]
        path = [[-10.0, 0.0, 0.0]] * 17 + [[-10.0, 0.0, 40.0]] + [[28.25, -28.25, 40.0]] * 14
        origin = np.full(3, 2.0**50)
        verts = np.array(path + [centre, e1, e2] + [centre] * 14) + origin
        assert prediction_error(origin, verts) == rows_point_to_polyline(origin, rows_segments(verts)) < 10.0

    def test_subnormal_squares_are_in_the_margin(self):
        # in units of 2**-537 a square is a count of the least subnormal, rounded: block 2's
        # bound reads sqrt(110) - sqrt(1) = 9.488 (true 9.26) above block 0's 9.381, yet
        # its segment's end scores sqrt(86) = 9.274
        u = 2.0**-537
        centre, a, b = [10.48 * u, 0.0, 0.0], [9.26 * u, 0.0, 0.0], [11.7 * u, 0.0, 0.0]
        path = [[-9.4 * u, 0.0, 0.0]] * 17 + [[-9.4 * u, 20 * u, 0.0]] + [[10.48 * u, 20 * u, 0.0]] * 14
        verts, point = np.array(path + [centre, a, b] + [centre] * 14), np.zeros(3)
        assert prediction_error(point, verts) == rows_point_to_polyline(point, rows_segments(verts)) < 9.3 * u

    def test_block_radius_reaches_the_end_vertex(self):
        # block 0: 15 segments of 1 cm, then one to (10, 0, 0), which passes 0.3 m from
        # the point; block 1 climbs away and comes down on block 2, a cluster 0.500001 m off
        block0 = [[0.01 * k, 0.0, 0.0] for k in range(16)] + [[10.0, 0.0, 0.0]]
        block1 = [[10.0, 0.0, 5.0]] + [[9.0, 0.800001, 5.0]] * 14
        cluster = [[9.0, 0.800001, 0.0]] * 17
        verts, point = np.array(block0 + block1 + cluster), np.array([9.0, 0.3, 0.0])
        assert prediction_error(point, verts) == rows_point_to_polyline(point, rows_segments(verts))
        assert prediction_error(point, verts) == pytest.approx(0.3)

    def test_memory_stays_bounded_on_a_long_truth(self):
        # a points x segments broadcast would hold GBs, a points x blocks one 100 MB
        rng = np.random.default_rng(13)
        verts = np.cumsum(rng.standard_normal((MAX_TRUTH_SAMPLES + 1, 3)) * 0.01, axis=0)
        segments = harness._segments(verts)
        points = verts[rng.integers(0, len(verts), size=2000)] + rng.standard_normal((2000, 3)) * 0.05
        tracemalloc.start()
        try:
            got = harness._point_to_polyline(points, segments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        rows = rows_segments(verts)
        for i in rng.integers(0, len(points), size=20):
            assert got[i] == rows_point_to_polyline(points[i], rows)
        # a NaN point skips no block: every segment is gathered, a chunk of pairs at a time
        tracemalloc.start()
        try:
            assert np.isnan(harness._point_to_polyline(np.full((20, 3), np.nan), segments)).all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("sid", ["D", "E"])
    def test_thrown_runs_match_the_row_form(self, sid, monkeypatch):
        polylines, segments = [], harness._segments

        def keep(vertices):
            polylines.append(vertices)
            return segments(vertices)

        monkeypatch.setattr(harness, "_segments", keep)
        raw = json.loads((harness._SCENARIOS / f"{sid}.json").read_text())
        scored = 0
        for seed in range(1, 11):
            raw["seed"] = seed
            result = run_scenario(config_from_dict(raw))
            rows = rows_segments(polylines[-1])
            for rec in result.records:
                if rec.predicted_point is not None:
                    assert rec.prediction_error == rows_point_to_polyline(rec.predicted_point, rows)
                    scored += 1
        assert len(polylines) == 10 and scored > 100


# each bundled run, then the other planning methods the CLI's --method can put on D and E
DECISION_RUNS = [(sid.value, None) for sid in ScenarioId] + [
    (sid, method) for sid in ("D", "E") for method in PlanMethod if method is not bundled_config(sid).method
]


def stream_draws(seed, cam, n_frames, k):
    """Frame k's draws as frame_draws deals them to n_frames frames, from one call
    per stream: its slice of the directions of SeedSequence(seed)'s first child,
    each row divided by its norm (x*x + y*y) + z*z, and of noise_sigma times the
    second child's draws."""
    dir_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    shape = (n_frames, cam.points_per_detection, 3)
    dirs = np.random.default_rng(dir_seq).standard_normal(shape)[k]
    x, y, z = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    dirs /= np.maximum(np.sqrt((x * x + y * y) + z * z), 1e-300)[:, None]
    if cam.noise_sigma == 0.0:
        return dirs, None
    return dirs, cam.noise_sigma * np.random.default_rng(noise_seq).standard_normal(shape)[k]


def draw_bytes(draws):
    return [(dirs.tobytes(), None if noise is None else noise.tobytes()) for dirs, noise in draws]


def assert_frames_draw_as_the_stream(seed, frames, cam):
    """Frame k's draws are its slice of the seed's two streams, for each k in frames."""
    n_frames = max(frames) + 1
    dealt = draw_bytes(frame_draws(seed, cam, n_frames))
    assert len(dealt) == n_frames
    for k in frames:
        assert dealt[k] == draw_bytes([stream_draws(seed, cam, n_frames, k)])[0], k


class TestSeedWords:
    """A run's point-cloud draws for frame k are a function of the int pair
    (seed, k), for a seed of any number of 32-bit words, which SeedSequence takes."""

    # a seed of one word, the largest one-word seed, the smallest two-word one, and
    # longer ones of three, four and seven words
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**200 + 12345])
    @pytest.mark.parametrize("k", [0, 1, 99_999, MAX_TRUTH_SAMPLES])
    def test_draws_as_the_int_pair(self, seed, k):
        cam = CameraModel(noise_sigma=0.01, points_per_detection=1)
        dealt = islice(frame_draws(seed, cam, k + 1), k, None)
        assert draw_bytes(dealt) == draw_bytes([stream_draws(seed, cam, k + 1, k)])

    # a seed in [0, 2**256) from one to eight 32-bit words, least significant first:
    # st.integers(0, 2**256 - 1) draws few seeds past three words
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8).map(
            lambda words: sum(w << 32 * i for i, w in enumerate(words))
        ),
        frames=st.lists(st.integers(0, 300), min_size=1, max_size=20),
        n=st.integers(1, 60),
        sigma=st.sampled_from([0.0, 0.01, 3.5]),
    )
    def test_draws_as_the_int_pair_for_any_seed(self, seed, frames, n, sigma):
        assert_frames_draw_as_the_stream(seed, frames, CameraModel(noise_sigma=sigma, points_per_detection=n))

    def test_no_ticks_no_rows(self):
        assert list(frame_draws(2**96 + 5, CameraModel(noise_sigma=0.01), 0)) == []

    def test_import_leaves_numpy_random_to_the_first_run(self):
        # numpy.random takes ~15 ms to import; loading and checking a config does not need it
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        code = "import catchsim, sys; sys.exit('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def recorded_draws(cfg, monkeypatch):
    """The outputs of a run and the draws each of its frames' observe took."""
    seen = []

    def observe(*args):
        seen.append(args[-2:])
        return real(*args)

    real = harness.observe
    monkeypatch.setattr(harness, "observe", observe)
    result = run_scenario(cfg)
    monkeypatch.setattr(harness, "observe", real)
    return trace_csv(result), draw_bytes(seen), result


class RecordingRng:
    """A generator that records the size of each standard_normal call."""

    def __init__(self, rng, sizes):
        self.rng, self.sizes = rng, sizes

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


def record_block_sizes(monkeypatch) -> list:
    sizes = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: RecordingRng(real(seed), sizes))
    return sizes


class TestFrameDraws:
    @pytest.mark.parametrize("sid", ["A", "E"])
    def test_block_size_changes_no_draw(self, sid, monkeypatch):
        # E draws noise, A none
        cfg = bundled_config(sid)
        runs = []
        for frames in (1, 32):
            monkeypatch.setattr(sensor, "BLOCK_FRAMES", frames)
            runs.append(recorded_draws(cfg, monkeypatch)[:2])
        assert runs[0] == runs[1]

    def test_earlier_detections_change_no_later_draw(self, monkeypatch):
        # at a 3 m range E's first 21 frames detect otherwise than bundled E's,
        # and frames 21-31 detect in both; each frame's draws are the same
        raw = bundled_config("E").to_dict()
        raw["camera"]["max_range"] = 3.0
        _, near, near_run = recorded_draws(config_from_dict(raw), monkeypatch)
        _, far, far_run = recorded_draws(bundled_config("E"), monkeypatch)
        near_seen = [r.observation is not None for r in near_run.records[:-1]]
        far_seen = [r.observation is not None for r in far_run.records[:-1]]
        assert near_seen[:21] != far_seen[:21] and all(near_seen[21:32]) and all(far_seen[21:32])
        n = min(len(near), len(far))
        assert n > 32 and near[:n] == far[:n]

    def test_noise_scales_with_sigma(self):
        # 0.02 is twice 0.01 in binary too, so each noise value is twice as large, exactly
        single = list(frame_draws(7, CameraModel(noise_sigma=0.01), 40))
        double = list(frame_draws(7, CameraModel(noise_sigma=0.02), 40))
        for (dirs, noise), (dirs2, noise2) in zip(single, double):
            assert dirs.tobytes() == dirs2.tobytes()
            assert (2.0 * noise).tobytes() == noise2.tobytes()

    @pytest.mark.parametrize("n, n_frames", [(50, 40), (1000, 40), (MAX_POINTS_PER_DETECTION, 2)])
    def test_a_block_holds_one_frame_or_at_most_the_value_cap(self, n, n_frames, monkeypatch):
        sizes = record_block_sizes(monkeypatch)
        draws = list(frame_draws(3, CameraModel(noise_sigma=0.01, points_per_detection=n), n_frames))
        assert len(draws) == n_frames and sum(size[0] for size in sizes) == 2 * n_frames  # directions and noise
        for b, points, _ in sizes:
            assert b <= sensor.BLOCK_FRAMES and (b == 1 or b * points * 3 <= sensor.BLOCK_VALUES)
        if n == MAX_POINTS_PER_DETECTION:
            assert {size[0] for size in sizes} == {1}

    def test_a_run_draws_at_most_one_block_past_its_last_frame(self, monkeypatch):
        sizes = record_block_sizes(monkeypatch)
        result = run_scenario(bundled_config("A"))  # A intercepts before its schedule ends and draws no noise
        frames = len(result.records) - 1
        assert frames <= sum(size[0] for size in sizes) < frames + sensor.BLOCK_FRAMES


class TestScenarioOutcomes:
    def test_a_intercepts_fixed_ball(self):
        result = run_scenario(bundled_config("A"))
        assert result.intercepted and result.termination_reason == "intercepted"
        assert result.min_distance <= 0.35

    def test_b_loses_the_ball(self):
        result = run_scenario(bundled_config("B"))
        assert not result.intercepted
        assert result.termination_reason == "ball_lost"
        # lost-ball timeout: at least a second without detections at the end
        last_obs = max(r.time for r in result.records if r.observation is not None)
        assert result.records[-1].time - last_obs >= 1.0

    def test_c_intercepts_with_yaw(self):
        result = run_scenario(bundled_config("C"))
        assert result.intercepted

    def test_d_prediction_error_shape(self, thrown_seed_sweep):
        # the error shrinks over the flight in expectation over the noise: averaged
        # over seeds 1-50 (criterion 6's), and in at least 90 % of them alone
        first, last = [], []
        for seed in range(1, 51):
            result = thrown_seed_sweep["D", seed]
            errs = [r.prediction_error for r in result.records if r.prediction_error is not None]
            q = max(1, len(errs) // 4)
            first.append(np.mean(errs[:q]))
            last.append(np.mean(errs[-q:]))
        assert np.mean(last) < np.mean(first)
        assert sum(b < a for a, b in zip(first, last)) >= 45
        result = run_scenario(bundled_config("D"))
        assert result.intercepted
        assert final_prediction_error(result) <= 0.7

    def test_e_chooses_no_later_than_shortest(self):
        result = run_scenario(bundled_config("E"))
        assert result.intercepted
        pairs = [
            (r.chosen_index, r.shortest_index)
            for r in result.records
            if r.chosen_index is not None
        ]
        assert pairs and all(c <= s for c, s in pairs)

    def test_min_distance_consistency(self):
        for sid in ("A", "B"):
            result = run_scenario(bundled_config(sid))
            assert result.intercepted == (result.min_distance <= 0.35)

    def test_observations_only_on_frames(self):
        cfg = bundled_config("C")
        result = run_scenario(cfg)
        period = 1.0 / cfg.camera.frame_rate
        for rec in result.records:
            if rec.observation is not None:
                stamp = rec.observation.timestamp
                assert stamp == pytest.approx(round(stamp / period) * period, abs=1e-9)
                assert rec.observation.edge_fraction < 1.0

    @pytest.mark.parametrize("sid", ["C", "D"])
    def test_frame_period_an_odd_multiple_of_half_a_step(self, sid):
        # at 400 Hz and a 1 ms step two ticks tie for every other frame; one carries it
        raw = bundled_config(sid).to_dict()
        raw["camera"]["frame_rate"] = 400.0
        result = run_scenario(config_from_dict(raw))
        assert result.termination_reason in ("intercepted", "ground_impact", "ball_lost", "max_time")
        stamps = [rec.observation.timestamp for rec in result.records if rec.observation is not None]
        assert len(stamps) > 2 and all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_unintegrable_true_path_is_a_config_error(self):
        # RK4 is unstable at this speed under drag: Re overflows in the fourth step
        raw = bundled_config("A").to_dict()
        raw["ball"]["motion"] = "ballistic"
        raw["ball"]["velocity"] = [4e4, 0.0, 0.0]
        cfg = config_from_dict(raw)
        with pytest.raises(ConfigError, match=r"^ball: the true path cannot be integrated \(.*Re must be finite"):
            run_scenario(cfg)

    def test_linear_ball_past_the_float_range_runs_without_a_warning(self):
        # past ~1e154 m the UAV-ball distance overflows to +inf: not a hit, not a warning
        raw = bundled_config("B").to_dict()
        raw["ball"] = {"position": [4.0, 1.8, 2.0], "velocity": [0.0, 0.0, 1.3e154], "motion": "linear"}
        cfg = config_from_dict(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_scenario(cfg)
        assert not result.intercepted
        assert result.termination_reason in ("ball_lost", "max_time")

    def test_hold_check_past_the_float_range_runs_without_a_warning(self, monkeypatch):
        # every predicted path ends 1e200 m away: its distance from a held target
        # overflows to +inf, far from the target, and the run's errstate keeps it quiet
        predict = harness.predict_from_queue

        def far_end(*args):
            path = predict(*args)
            positions = path.positions.copy()
            positions[-1] = (1e200, 0.0, 0.0)
            return PredictedPath(positions, path.times)

        monkeypatch.setattr(harness, "predict_from_queue", far_end)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_scenario(bundled_config("D"))
        assert result.termination_reason in ("intercepted", "ground_impact", "ball_lost", "max_time")
        assert np.geterr() == before
        # a frame that keeps the previous target went through the hold check
        assert any(
            r.predicted_point is not None and r.setpoint.path_index != r.chosen_index for r in result.records[:-1]
        )

    @pytest.mark.parametrize(
        ("sid", "speed", "dt"),
        [("A", 3e307, None), ("B", 8.98846567431158e307, 2.0)],
        ids=["accumulate", "multiply"],
    )
    def test_linear_truth_past_the_float_range_is_the_ball_error_without_a_warning(self, sid, speed, dt):
        raw = bundled_config(sid).to_dict()
        raw["ball"] = {"position": raw["ball"]["position"], "velocity": [0.0, 0.0, speed], "motion": "linear"}
        if dt is not None:
            raw["physics_dt"] = dt
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match=r"^ball: the true path cannot be integrated \(BallState"):
                run_scenario(config_from_dict(raw))

    @pytest.mark.parametrize("sid, n_predicted, n_held, n_fallback", [("D", 21, 14, 1), ("E", 27, 13, 3)])
    def test_predictive_frames_adopt_hold_or_fall_back(self, sid, n_predicted, n_held, n_fallback):
        # each detection either adopts the chosen path row, holds the previous
        # frame's target (the new choice moved no more than hysteresis_dist),
        # or, without a prediction, chases the detection
        cfg = bundled_config(sid)
        result = run_scenario(cfg)
        predicted = held = fallback = 0
        prev = None
        for r in result.records[:-1]:
            sp = r.setpoint
            if r.observation is None:
                assert sp is prev
            elif r.predicted_point is None:
                fallback += 1
                assert sp.path_index is None
                assert np.array_equal(sp.target_position, r.observation.position)
            else:
                predicted += 1
                if not (np.array_equal(sp.target_position, r.predicted_point) and sp.path_index == r.chosen_index):
                    held += 1
                    assert np.array_equal(sp.target_position, prev.target_position)
                    assert prev.path_index is not None and sp.path_index == prev.path_index
                    assert np.linalg.norm(r.predicted_point - prev.target_position) <= cfg.hysteresis_dist
            prev = sp
        assert (predicted, held, fallback) == (n_predicted, n_held, n_fallback)

    @pytest.mark.parametrize(
        "sid, method",
        DECISION_RUNS,
        ids=[f"{sid}-{'bundled' if m is None else m.value}" for sid, m in DECISION_RUNS],
    )
    def test_records_hold_the_frame_decision(self, sid, method):
        # each frame record holds its planner's decision field for field; a
        # misordered field would land in prediction_error, which scoring overwrites
        cfg = config_from_dict(bundled_config(sid).to_dict(), method=method)
        result = run_scenario(cfg)
        indexed = cfg.method is not PlanMethod.CAT_MOUSE and cfg.scenario_id is not ScenarioId.PLANAR2D
        prev_sp = None
        n_indexed = 0
        for r in result.records[:-1]:
            pair = (r.chosen_index, r.shortest_index)
            assert pair == (None, None) or all(type(i) is int for i in pair), (r.time, pair)
            assert (pair != (None, None)) == (indexed and r.predicted_point is not None), r.time
            if pair != (None, None):
                n_indexed += 1
                if cfg.method is PlanMethod.SHORTEST_PATH:
                    assert r.chosen_index == r.shortest_index, r.time
                else:
                    assert r.chosen_index <= r.shortest_index, r.time
            if r.predicted_point is None:
                assert r.prediction_error is None, r.time
            if r.observation is None:
                assert r.predicted_point is None, r.time
                if prev_sp is None:  # no detection yet: the hover setpoint
                    assert np.array_equal(r.setpoint.target_position, [0.0, 0.0, cfg.start_elevation])
                    assert r.setpoint.path_index is None
                else:
                    assert r.setpoint is prev_sp, r.time
            prev_sp = r.setpoint
        end = result.records[-1]
        assert end.observation is None and end.setpoint is prev_sp
        assert (end.predicted_point, end.chosen_index, end.shortest_index, end.prediction_error) == (None,) * 4
        if indexed and cfg.scenario_id in (ScenarioId.D, ScenarioId.E):  # a throw has reachable predictions
            assert n_indexed > 0

    def test_unpredictable_frame_falls_back_to_cat_mouse(self):
        # a held ball is never integrated, but Re = v D / nu underflows in every frame's prediction
        raw = bundled_config("D").to_dict()
        raw["ball"]["motion"] = "frozen"
        raw["environment"]["kinematic_viscosity"] = 1e40
        result = run_scenario(config_from_dict(raw))
        assert result.intercepted
        assert all(r.predicted_point is None for r in result.records)
        assert all(r.setpoint.path_index is None for r in result.records)
        assert all(np.array_equal(r.setpoint.target_position, r.observation.position) for r in result.records[:-1])

    @pytest.mark.parametrize("sigma", [1e60, 1e80, 1e90, 1e100])
    @pytest.mark.parametrize("sid", ["D", "E", "planar2d"])
    def test_noisy_throw_runs_to_a_termination_reason(self, sid, sigma):
        # velocities fitted to such detections send the predicted path out of the
        # drag model's range; those frames plan without a prediction
        raw = bundled_config(sid).to_dict()
        raw["camera"]["noise_sigma"] = sigma
        for seed in range(1, 9):
            raw["seed"] = seed
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = run_scenario(config_from_dict(raw))
            assert result.termination_reason in ("intercepted", "ground_impact", "ball_lost", "max_time"), seed
            for row in trace_csv(result).splitlines()[1:]:
                assert all(math.isfinite(float(cell)) for cell in row.split(",") if cell), (seed, row)

    def test_planar2d_crossing_error(self):
        result = run_scenario(bundled_config("planar2d"))
        assert final_prediction_error(result) < 0.5

    def test_planar2d_parallel_ball_records_nothing(self):
        raw = {
            "scenario_id": "planar2d",
            "max_sim_time": 3.0,
            "ball": {"position": [3.0, 0.0, 1.5], "velocity": [0.0, 2.0, 3.5], "motion": "ballistic"},
            "plane": {"point": [0.0, 0.0, 2.0], "normal": [1.0, 0.0, 0.0]},
        }
        result = run_scenario(config_from_dict(raw))
        assert not result.intercepted
        assert final_prediction_error(result) is None


class TestTraceOutput:
    def test_header_exact(self):
        csv = trace_csv(run_scenario(bundled_config("A")))
        assert csv.splitlines()[0] == TRACE_HEADER

    def test_row_shape_and_optionals(self):
        result = run_scenario(bundled_config("B"))
        lines = trace_csv(result).splitlines()
        assert len(lines) == len(result.records) + 1
        n_cols = len(TRACE_HEADER.split(","))
        for line in lines[1:]:
            assert len(line.split(",")) == n_cols
        # terminal record has no observation or prediction: empty fields
        last = lines[-1].split(",")
        assert last[4] == "" and last[7] == "" and last[10] == ""

    def test_floats_round_trip(self):
        result = run_scenario(bundled_config("A"))
        lines = trace_csv(result).splitlines()[1:]
        rec = result.records[3]
        cells = lines[3].split(",")
        assert float(cells[1]) == rec.ball_position[0]
        assert float(cells[11]) == rec.uav_position[0]

    def test_deterministic_bytes(self):
        a = trace_csv(run_scenario(bundled_config("planar2d")))
        b = trace_csv(run_scenario(bundled_config("planar2d")))
        assert a == b

    def test_write_outputs(self, tmp_path):
        result = run_scenario(bundled_config("A"))
        trace, summary = write_outputs(result, tmp_path, "A")
        assert trace.name == "A_trace.csv" and trace.exists()
        data = json.loads(summary.read_text())
        assert set(data) == {"intercepted", "interception_time", "min_distance", "termination_reason"}
        assert data["intercepted"] is True

    def test_write_outputs_refuses_a_non_finite_summary(self, tmp_path):
        result = dataclasses.replace(run_scenario(bundled_config("A")), min_distance=math.inf)
        with pytest.raises(ValueError, match="JSON compliant"):
            write_outputs(result, tmp_path, "A")

    def test_summary_mirrors_result(self):
        result = run_scenario(bundled_config("B"))
        d = summary_dict(result)
        assert d["intercepted"] == result.intercepted
        assert d["min_distance"] == result.min_distance
        assert d["termination_reason"] == "ball_lost"


class TestExpectations:
    def test_all_bundled_meet_expectations(self):
        for sid in ("A", "B", "C", "D", "E", "planar2d"):
            cfg = bundled_config(sid)
            ok, detail = scenario_expectation(cfg, run_scenario(cfg))
            assert ok, f"{sid}: {detail}"
