"""Scenario-engine verification: config validation, metrics, traces, outcomes."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

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
from catchsim.planner import PlanMethod
from catchsim.sensor import MAX_POINTS_PER_DETECTION


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
    "integer_is_a_float": (minimal_a(seed=1.5), "seed: expected an integer, got 1.5"),
    "integer_is_a_bool": (minimal_a(seed=True), "seed: expected an integer, got True"),
    "integer_below_min": (
        minimal_a(prediction={"queue_capacity": 1}), "prediction.queue_capacity: must be >= 2, got 1"
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
        assert cfg.yaw_enabled is False

    def test_scenario_method_mapping_enforced(self):
        raw = minimal_a(planner={"method": "shortest_path"})
        with pytest.raises(ConfigError, match="cat_mouse"):
            config_from_dict(raw)
        # explicit override relaxes the check
        assert config_from_dict(raw, allow_method_override=True).method is PlanMethod.SHORTEST_PATH

    def test_scenario_yaw_mapping_enforced(self):
        raw = {
            "scenario_id": "C",
            "max_sim_time": 4.0,
            "ball": {"position": [4, 1, 2], "velocity": [0, -1, 0], "motion": "linear"},
            "planner": {"yaw_enabled": False},
        }
        with pytest.raises(ConfigError, match="yaw_enabled"):
            config_from_dict(raw)

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

    def test_overflowing_reference_area_rejected_at_load(self):
        raw = bundled_config("A").to_dict()
        del raw["projectile"]["reference_area"]  # so it is derived from the diameter
        raw["projectile"]["diameter"] = 1e155  # D**2 overflows
        with pytest.raises(ConfigError, match="reference_area_A must be finite"):
            config_from_dict(raw)

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

    def test_planar2d_method_cannot_be_overridden(self):
        raw = bundled_config("planar2d").to_dict()
        assert config_from_dict(raw, allow_method_override=True).method is PlanMethod.SHORTEST_PATH
        for method in ("cat_mouse", "fastest_path"):
            raw["planner"]["method"] = method
            with pytest.raises(ConfigError, match="planner.method"):
                config_from_dict(raw, allow_method_override=True)

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
        raw = bundled_config("A").to_dict()
        raw["camera"]["points_per_detection"] = MAX_POINTS_PER_DETECTION + 1
        with pytest.raises(ConfigError, match="camera.points_per_detection"):
            config_from_dict(raw)
        raw["camera"]["points_per_detection"] = MAX_POINTS_PER_DETECTION
        assert config_from_dict(raw).camera.points_per_detection == MAX_POINTS_PER_DETECTION

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
        for _ in range(25):
            q = rng.uniform(-3, 3, size=3)
            # brute force: densely sample every segment
            best = np.inf
            for a, b in zip(verts[:-1], verts[1:]):
                for lam in np.linspace(0.0, 1.0, 400):
                    best = min(best, float(np.linalg.norm(q - (a + lam * (b - a)))))
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
    """(vertices, points) pairs: two-vertex and long polylines, repeated
    vertices (zero-length segments), points on a vertex, coordinates near 1e150."""
    for scale in (1.0, 1e3, 1e150):
        for n in (2, 3, 40, 1300):
            vertices = rng.uniform(-scale, scale, size=(n, 3))
            repeated = vertices[np.sort(rng.integers(0, n, size=n))]  # runs of one vertex
            for verts in (vertices, repeated, np.repeat(vertices, 2, axis=0)):
                off_path = rng.uniform(-2 * scale, 2 * scale, size=(8, 3))
                yield verts, np.vstack([off_path, verts[rng.integers(0, len(verts), size=4)]])


class TestColumnFormScorer:
    """The column-form scorer gives the row-form one's distances bit for bit."""

    def test_row_sums_of_three_associate_left_to_right(self):
        x = np.random.default_rng(3).standard_normal((200_000, 3)) * np.array([1.0, 1e-8, 1e8])
        assert np.array_equal(np.add.reduce(x, axis=1), (x[:, 0] + x[:, 1]) + x[:, 2]), (
            "numpy sums a row of three in another order: harness._segments/_point_to_polyline "
            "compute (x + y) + z, as the row-form scorer rounded, and no longer match it"
        )

    def test_random_polylines_match_the_row_form(self):
        rng = np.random.default_rng(11)
        for verts, points in random_polylines(rng):
            rows, columns = rows_segments(verts), harness._segments(verts)
            for point in points:
                assert harness._point_to_polyline(point, columns) == rows_point_to_polyline(point, rows)

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

    def test_d_prediction_error_shape(self):
        result = run_scenario(bundled_config("D"))
        assert result.intercepted
        errs = [r.prediction_error for r in result.records if r.prediction_error is not None]
        q = max(1, len(errs) // 4)
        assert np.mean(errs[-q:]) < np.mean(errs[:q])
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

    def test_unpredictable_frame_falls_back_to_cat_mouse(self):
        # a held ball is never integrated, but Re = v D / nu underflows in every frame's prediction
        raw = bundled_config("D").to_dict()
        raw["ball"]["motion"] = "frozen"
        raw["environment"]["kinematic_viscosity"] = 1e40
        result = run_scenario(config_from_dict(raw))
        assert result.intercepted
        assert all(r.predicted_point is None for r in result.records)
        assert all(r.setpoint.source_method is PlanMethod.CAT_MOUSE for r in result.records)

    @pytest.mark.parametrize("sigma", [1e80, 1e90, 1e100])
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
