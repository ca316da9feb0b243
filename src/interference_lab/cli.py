"""Command-line interface.

Subcommands:
    simulate --config <json> --out <dir>
    estimate --data <dir> --method {basic|network|cmp} [--config <json>] --out <json>
    bench    --config <json> --out <json> [--jobs N]
    report   --in <json> --format {json|markdown} [--out <path>]

`--config` accepts a file path or the name of a shipped preset
(no_interference, upward_bias, sign_reversal). For `estimate` it is a
scenario's `estimators.<method>` object plus an integer `seed`, which plays
the role of a bench replicate's seed. The INTERFERENCE_LAB_SEED environment
variable overrides the config seed when set.

Exit codes: 0 success, 1 validation failure (bad arguments; a malformed
config, dataset or report; an input path that is a directory or unreadable),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .bench import (
    BenchReport,
    ScenarioConfig,
    render_report,
    run_method,
    run_scenarios,
    scenario_from_dict,
    settings_from_dict,
    simulate_scenario_dataset,
)
from .core import check_int
from .dataio import load_dataset, save_dataset


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


PRESET_NAMES = ("no_interference", "upward_bias", "sign_reversal")


def load_scenario_configs(spec: str) -> list[ScenarioConfig]:
    """Scenario config(s) from a JSON file path or a shipped preset name."""
    path = Path(spec)
    if path.exists():
        text = path.read_text(encoding="utf-8")
    elif spec in PRESET_NAMES:
        text = resources.files("interference_lab.presets").joinpath(f"{spec}.json").read_text("utf-8")
    else:
        raise ValueError(f"config {spec!r} is neither a file nor a preset name {PRESET_NAMES}")
    obj = json.loads(text)
    if isinstance(obj, dict) and "scenarios" in obj:
        if not isinstance(obj["scenarios"], list):
            raise ValueError(f"scenarios must be a JSON list, got {type(obj['scenarios']).__name__}")
        return [scenario_from_dict(sc, f"scenarios[{i}]") for i, sc in enumerate(obj["scenarios"])]
    return [scenario_from_dict(obj)]


def _env_seed(seed: int) -> int:
    """INTERFERENCE_LAB_SEED when set, else the config's seed."""
    env = os.environ.get("INTERFERENCE_LAB_SEED")
    if env is None:
        return seed
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"INTERFERENCE_LAB_SEED must be an integer, got {env!r}") from None


def _cmd_simulate(args) -> int:
    cfgs = [replace(cfg, seed=_env_seed(cfg.seed)) for cfg in load_scenario_configs(args.config)]
    if len(cfgs) != 1:
        raise ValueError("simulate expects a single-scenario config")
    dataset = simulate_scenario_dataset(cfgs[0], replicate=0)
    save_dataset(dataset, args.out)
    print(f"wrote dataset ({dataset.n_units} units, T={dataset.n_periods}) to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    config_obj = {}
    if args.config:
        config_obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(config_obj, dict):
            raise ValueError(f"{args.config}: estimator config must be a JSON object")
    seed = _env_seed(check_int("seed", config_obj.pop("seed", 0)))
    settings = settings_from_dict(args.method, config_obj)
    est, _ = run_method(args.method, load_dataset(args.data), settings, seed)

    text = json.dumps(est.to_dict(), indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"{est.method}: {est.point:.6g} [{est.ci_low:.6g}, {est.ci_high:.6g}]"
          f"{' *' if est.significant_5pct else ''}")
    return 0


def _cmd_bench(args) -> int:
    cfgs = [replace(cfg, seed=_env_seed(cfg.seed)) for cfg in load_scenario_configs(args.config)]
    report = run_scenarios(cfgs, jobs=args.jobs)
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(f"wrote report for {len(report.scenarios)} scenario(s) to {args.out}")
    return 0


def _cmd_report(args) -> int:
    obj = json.loads(Path(getattr(args, "in")).read_text(encoding="utf-8"))
    report = BenchReport.from_dict(obj)
    text = render_report(report, fmt=args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="interference-lab", description="Bipartite interference estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic experiment dataset directory")
    p.add_argument("--config", required=True, help="scenario config JSON path or preset name")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="run one estimator on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--method", required=True, choices=["basic", "network", "cmp"])
    p.add_argument("--config", help="estimator config JSON path")
    p.add_argument("--out", required=True, help="output estimate JSON path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bench", help="Monte Carlo comparison of all three estimators")
    p.add_argument("--config", required=True, help="scenario config JSON path or preset name")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--jobs", type=int, default=1, help="parallel replicate workers")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="render a bench report")
    p.add_argument("--in", required=True, help="report JSON path")
    p.add_argument("--format", default="markdown", choices=["json", "markdown"])
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_report)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Dispatch subcommands; 0 success, 1 validation failure, 2 runtime failure."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DataFormatError and JSONDecodeError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # numeric/runtime failures
        sys.stderr.write(f"runtime error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
