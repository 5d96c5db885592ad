"""CLI behaviour: subcommands, exit codes, overrides, file outputs."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from catchsim.cli import SUITE_ORDER, main
from catchsim.harness import ConfigError, load_config
from conftest import MAX_NOISE_SIGMA, bundled_raw

SRC = Path(__file__).resolve().parent.parent / "src"


def write_cfg(tmp_path, name, raw):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


class TestRun:
    def test_happy_path(self, tmp_path):
        cfg = write_cfg(tmp_path, "A.json", bundled_raw("A"))
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "A_trace.csv").exists()
        summary = json.loads((out / "A_summary.json").read_text())
        assert summary["intercepted"] is True

    def test_completed_run_exits_zero_even_without_interception(self, tmp_path):
        cfg = write_cfg(tmp_path, "B.json", bundled_raw("B"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        summary = json.loads((tmp_path / "r" / "B_summary.json").read_text())
        assert summary["intercepted"] is False

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["long_integer", "not_utf8", "directory"])
    def test_config_that_cannot_be_read_or_decoded_exits_2(self, kind, tmp_path, capsys, unreadable_config):
        cfg = unreadable_config(tmp_path, kind)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert f"error: config file {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_malformed_config_names_field(self, tmp_path, capsys):
        raw = bundled_raw("A")
        raw["planner"] = {"hysteresys_dist": 0.2}
        cfg = write_cfg(tmp_path, "bad.json", raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "planner.hysteresys_dist" in capsys.readouterr().err

    def test_zero_gravity_exits_2_unless_tilt_coupling_off(self, tmp_path, capsys):
        raw = bundled_raw("A")
        raw["environment"] = {"gravity": 0.0}
        cfg = write_cfg(tmp_path, "A.json", raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2
        assert "environment.gravity" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "g"), "--no-tilt-coupling"]) == 0

    def test_unpredictable_throw_exits_2(self, tmp_path, capsys):
        raw = bundled_raw("D")
        raw["ball"]["velocity"] = [1e306, 1e306, 1e306]
        cfg = write_cfg(tmp_path, "D.json", raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "scenario D" in capsys.readouterr().err

    def test_throw_past_the_float_range_exits_2_without_a_warning(self, tmp_path):
        # a 1e-300 kg ball's predicted path runs out near the float range; its
        # distances from hover overflow to +inf, which reads as unreachable
        raw = bundled_raw("D")
        raw["projectile"] = {"mass": 1e-300}
        cfg = write_cfg(tmp_path, "D.json", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="no predicted point is reachable from hover"):
                load_config(cfg)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "catchsim.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: scenario D: no predicted point is reachable from hover\n"

    @pytest.mark.parametrize(
        "sid, ball",
        [("A", {"motion": "ballistic", "velocity": [4e4, 0, 0]}), ("planar2d", {"velocity": [1e306] * 3})],
        ids=["A", "planar2d"],
    )
    def test_unintegrable_true_path_exits_2(self, sid, ball, tmp_path, capsys):
        raw = bundled_raw(sid)
        raw["ball"].update(ball)
        cfg = write_cfg(tmp_path, f"{sid}.json", raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "error: ball: the true path cannot be integrated" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"ball": {"position": [1e308, 1e308, 2.0], "velocity": [0, 0, 0], "motion": "frozen"}}, "ball"),
            ({"physics_dt": 1e-5}, "physics_dt"),
            ({"uav": {"limits": {"max_speed": 1e300}}}, "uav.limits.max_speed"),
            ({"camera": {"points_per_detection": 10**9}}, "camera.points_per_detection"),
            # JSON integers too long for a float, named without echoing their 401 digits
            ({"max_sim_time": 10**400}, "max_sim_time"),
            ({"ball": {"position": [10**400, 0, 2], "velocity": [0, 0, 0], "motion": "frozen"}}, "ball.position"),
        ],
        ids=["ball", "physics_dt", "max_speed", "points_per_detection", "long_integer", "long_integer_component"],
    )
    def test_values_past_the_float_or_sample_range_exit_2(self, edit, field, tmp_path, capsys):
        raw = bundled_raw("A")
        raw.update(edit)
        cfg = write_cfg(tmp_path, "A.json", raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1 and len(err) < 300, err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("sid", ["A", "B", "C", "D", "E", "planar2d"])
    def test_removed_drag_mode_exits_2(self, sid, tmp_path, capsys):
        raw = bundled_raw(sid)
        raw["projectile"] = {"drag_mode": "paper_exact"}
        cfg = write_cfg(tmp_path, f"{sid}.json", raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "projectile.drag_mode" in capsys.readouterr().err

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = write_cfg(tmp_path, "D.json", bundled_raw("D"))
        for seed, sub in ((1, "s1"), (7, "s7"), (7, "s7b")):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / sub), "--seed", str(seed)]) == 0
        t1 = (tmp_path / "s1" / "D_trace.csv").read_bytes()
        t7 = (tmp_path / "s7" / "D_trace.csv").read_bytes()
        t7b = (tmp_path / "s7b" / "D_trace.csv").read_bytes()
        assert t1 != t7  # noise realization differs
        assert t7 == t7b  # same seed is reproducible

    def test_method_override_bypasses_mapping(self, tmp_path):
        cfg = write_cfg(tmp_path, "D.json", bundled_raw("D"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "m"), "--method", "fastest"]) == 0

    @pytest.mark.parametrize("method", ["shortest", "fastest"])
    def test_chase_predictive_method_override_exits_2(self, method, tmp_path, capsys):
        # A-C alike take only cat_mouse (tests/test_harness.py checks each)
        cfg = write_cfg(tmp_path, "C.json", bundled_raw("C"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "m"), "--method", method]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: planner.method") and f"'{method}_path'" in err, err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("method", ["cat_mouse", "fastest"])
    def test_planar2d_method_override_exits_2(self, method, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "planar2d.json", bundled_raw("planar2d"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "m"), "--method", method]) == 2
        assert "planner.method" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "m"), "--method", "shortest"]) == 0

    @pytest.mark.parametrize("field, value", [("method", "shortest_path"), ("yaw_enabled", True)])
    def test_config_that_sets_method_or_yaw_exits_2(self, field, value, tmp_path, capsys):
        # the scenario id fixes both; only --method overrides the method
        raw = bundled_raw("C")
        raw["planner"] = {field: value}
        cfg = write_cfg(tmp_path, "C.json", raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: unknown field 'planner.{field}'\n"
        assert not (tmp_path / "r").exists()

    def test_no_tilt_coupling_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, "A.json", bundled_raw("A"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "nt"), "--no-tilt-coupling"]) == 0

    @pytest.mark.parametrize(
        "raw, flags, message",
        [
            ([1, 2], ["--seed", "3"], "config root must be an object, got list"),
            ({"planner": 5}, ["--method", "fastest"], "planner: expected an object, got int"),
            ({"planner": 5}, ["--no-tilt-coupling"], "planner: expected an object, got int"),
        ],
        ids=["root_with_seed", "planner_with_method", "planner_with_no_tilt_coupling"],
    )
    def test_override_on_a_malformed_config_exits_2(self, raw, flags, message, tmp_path, capsys):
        if isinstance(raw, dict):
            raw = {**bundled_raw("A"), **raw}
        cfg = write_cfg(tmp_path, "bad.json", raw)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r"), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("sigma", [1e200, 1e308])
    def test_noise_past_the_bound_exits_2_without_a_warning(self, sigma, tmp_path, capsys):
        raw = bundled_raw("A")
        raw["camera"] = {"noise_sigma": sigma}
        cfg = write_cfg(tmp_path, "A.json", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: camera.noise_sigma: must be <= {MAX_NOISE_SIGMA}, got {sigma}\n"

    def test_noise_at_the_bound_runs_without_a_warning(self, tmp_path):
        raw = bundled_raw("A")
        raw["max_sim_time"] = 0.5
        raw["camera"] = {"noise_sigma": MAX_NOISE_SIGMA}
        cfg = write_cfg(tmp_path, "A.json", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("sid", ["D", "E"])
    @pytest.mark.parametrize("sigma, code", [(1e50, 0), (MAX_NOISE_SIGMA, 0)])
    def test_noisy_throw_runs_without_a_warning(self, sid, sigma, code, tmp_path):
        # predicted paths from such detections run out past the float range; their
        # distances overflow to +inf, which reads as unreachable or far away, and at
        # the bound a path that leaves the drag model's range is no prediction
        raw = bundled_raw(sid)
        raw.setdefault("camera", {})["noise_sigma"] = sigma
        cfg = write_cfg(tmp_path, f"{sid}.json", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == code

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "A.json", bundled_raw("A"))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["run", "--config", str(cfg), "--out", str(blocker / "sub")]) == 3
        assert "cannot write" in capsys.readouterr().err


class TestSuite:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "suite"
        assert main(["suite", "--out", str(out)]) == 0
        report = json.loads((out / "suite_report.json").read_text())
        assert report["all_ok"] is True
        for sid in ("A", "B", "C", "D", "E", "planar2d"):
            assert report[sid]["expected_ok"] is True
            assert (out / f"{sid}_trace.csv").exists()
            assert (out / f"{sid}_summary.json").exists()
        assert report["B"]["termination_reason"] == "ball_lost"
        assert report["D"]["final_prediction_error"] <= 0.7

    def test_suite_deterministic_report(self, tmp_path):
        assert main(["suite", "--out", str(tmp_path / "r1")]) == 0
        assert main(["suite", "--out", str(tmp_path / "r2")]) == 0
        a = (tmp_path / "r1" / "suite_report.json").read_bytes()
        b = (tmp_path / "r2" / "suite_report.json").read_bytes()
        assert a == b

    def test_suite_seed_writes_what_run_seed_writes(self, tmp_path):
        assert main(["suite", "--out", str(tmp_path / "suite"), "--seed", "7"]) == 0
        for sid in SUITE_ORDER:
            cfg = write_cfg(tmp_path, f"{sid}.json", bundled_raw(sid))
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run"), "--seed", "7"]) == 0
            for name in (f"{sid}_trace.csv", f"{sid}_summary.json"):
                assert (tmp_path / "suite" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    def test_configs_that_cannot_be_read_or_decoded_fail_their_scenarios(self, tmp_path, unreadable_config):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        for sid in ("A", "B", "C", "D", "E", "planar2d"):
            write_cfg(cfg_dir, f"{sid}.json", bundled_raw(sid))
        for sid, kind in (("A", "long_integer"), ("B", "not_utf8"), ("C", "directory")):
            (cfg_dir / f"{sid}.json").unlink()
            unreadable_config(cfg_dir, kind).rename(cfg_dir / f"{sid}.json")
        assert main(["suite", "--config", str(cfg_dir), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "suite_report.json").read_text())
        for sid in ("A", "B", "C"):
            assert report[sid]["error"].startswith(f"config file {cfg_dir / sid}.json")
        assert all(report[sid]["expected_ok"] for sid in ("D", "E", "planar2d"))

    def test_crippled_vehicle_fails_suite(self, tmp_path):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        for sid in ("A", "B", "C", "D", "E", "planar2d"):
            raw = bundled_raw(sid)
            if sid in ("D", "E"):
                raw.setdefault("uav", {}).setdefault("limits", {})["max_speed"] = 0.01
            write_cfg(cfg_dir, f"{sid}.json", raw)
        code = main(["suite", "--config", str(cfg_dir), "--out", str(tmp_path / "out")])
        assert code != 0
        report = json.loads((tmp_path / "out" / "suite_report.json").read_text())
        assert report["all_ok"] is False
        assert not report["D"]["expected_ok"]
        assert not report["E"]["expected_ok"]
