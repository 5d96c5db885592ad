"""CLI behaviour: subcommands, exit codes, overrides, file outputs."""

import json
from importlib import resources

import pytest

from catchsim.cli import main


def bundled_raw(sid):
    with resources.files("catchsim.scenarios").joinpath(f"{sid}.json").open() as f:
        return json.load(f)


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
        cfg = write_cfg(tmp_path, "A.json", bundled_raw("A"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "m"), "--method", "shortest"]) == 0

    def test_no_tilt_coupling_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, "A.json", bundled_raw("A"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "nt"), "--no-tilt-coupling"]) == 0

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
