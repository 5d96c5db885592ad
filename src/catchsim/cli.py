"""Command-line entry point.

Subcommands:
  run    - execute one scenario config, writing <id>_trace.csv and
           <id>_summary.json into the output directory. The scenario id
           fixes the planning method and yaw; --method picks another
           method for this run only, where the scenario has one: D and E
           take all three, A-C only cat_mouse, planar2d only shortest.
  suite  - run the six bundled scenarios (or a directory of configs) and
           write a suite_report.json; exit 0 only if every scenario meets
           its expected outcome shape. Its --seed takes run's override
           path: set on the raw JSON, which is then validated once.
  accept - run the acceptance battery, one PASS/FAIL line per criterion.

Exit codes are the only pass/fail channel: diagnostics go to stderr,
data to files. `run` exits 0 for any completed simulation (regardless of
interception), 2 for a malformed config or a ball whose true path
cannot be computed, 3 for I/O failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .harness import (
    ConfigError,
    ScenarioId,
    config_from_dict,
    final_prediction_error,
    load_raw_config,
    run_scenario,
    scenario_expectation,
    summary_dict,
    write_outputs,
)
from .planner import PlanMethod

_METHOD_ALIASES = {
    "cat_mouse": PlanMethod.CAT_MOUSE,
    "shortest": PlanMethod.SHORTEST_PATH,
    "fastest": PlanMethod.FASTEST_PATH,
}

SUITE_ORDER = [sid.value for sid in ScenarioId]


def _apply_overrides(raw, args):
    """Apply --seed / --no-tilt-coupling onto a raw config, before it is validated;
    a root or planner group that is not an object is left for config_from_dict to report."""
    if isinstance(raw, dict):
        if getattr(args, "seed", None) is not None:
            raw["seed"] = args.seed
        if getattr(args, "no_tilt_coupling", False) and isinstance(raw.setdefault("planner", {}), dict):
            raw["planner"]["tilt_coupling"] = False
    return raw


def cmd_run(args) -> int:
    method = None if args.method is None else _METHOD_ALIASES[args.method]
    try:
        cfg = config_from_dict(_apply_overrides(load_raw_config(Path(args.config)), args), method)
        result = run_scenario(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        trace, summary = write_outputs(result, args.out, cfg.scenario_id.value)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {trace} and {summary}", file=sys.stderr)
    return 0


def cmd_suite(args) -> int:
    out_dir = Path(args.out)
    config_dir = Path(args.config) if args.config else resources.files("catchsim.scenarios")
    report = {}
    all_ok = True
    crashed = False
    for sid in SUITE_ORDER:
        try:
            cfg = config_from_dict(_apply_overrides(load_raw_config(config_dir / f"{sid}.json"), args))
            result = run_scenario(cfg)
            write_outputs(result, out_dir, sid)
            ok, detail = scenario_expectation(cfg, result)
            report[sid] = {
                **summary_dict(result),
                "expected_ok": ok,
                "final_prediction_error": final_prediction_error(result),
                "detail": detail,
            }
            all_ok = all_ok and ok
            print(f"{sid}: {'ok' if ok else 'UNEXPECTED'} ({detail})", file=sys.stderr)
        except (ConfigError, OSError) as exc:
            crashed = True
            all_ok = False
            report[sid] = {"expected_ok": False, "error": str(exc)}
            print(f"{sid}: failed ({exc})", file=sys.stderr)
    report["all_ok"] = all_ok
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "suite_report.json").write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    except OSError as exc:
        print(f"error: cannot write suite report: {exc}", file=sys.stderr)
        return 3
    if crashed:
        return 1
    return 0 if all_ok else 1


def cmd_accept(args) -> int:
    from .acceptance import run_battery

    results = run_battery()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        # diagnostics go to stderr; the exit code is the pass/fail channel
        print(f"{status}  criterion {res.number}: {res.name} ({res.detail})", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catchsim",
        description="Deterministic UAV ball-interception simulator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("--config", required=True, help="scenario config JSON path")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--method",
        choices=sorted(_METHOD_ALIASES),
        default=None,
        help="override the planning method the scenario id fixes (D and E take all three, "
        "A-C only cat_mouse, planar2d only shortest)",
    )
    p_run.add_argument(
        "--no-tilt-coupling", action="store_true", help="disable acceleration-induced camera tilt"
    )
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run scenarios A-E and planar2d")
    p_suite.add_argument(
        "--config", default=None, help="directory of {A..E,planar2d}.json (default: bundled configs)"
    )
    p_suite.add_argument("--out", default="results", help="output directory")
    p_suite.add_argument("--seed", type=int, default=None, help="override every scenario's seed")
    p_suite.set_defaults(func=cmd_suite)

    p_accept = sub.add_parser("accept", help="run the acceptance battery")
    p_accept.set_defaults(func=cmd_accept)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
