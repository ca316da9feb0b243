"""Golden-output gate: frozen bench reports for a tiny scenario in two
variants, the CLI `estimate` output of every method on one saved dataset,
and the `scenario_to_dict` form of every shipped preset.

Outputs are compared byte for byte. A change that only reorders
floating-point operations may move numbers by at most rtol 1e-9; anything
else is a change in results. Regenerate the files, only for an intended
change in results, with

    PYTHONPATH=src python tests/test_golden.py

which prints, per file, the largest relative change of each numeric field
before it overwrites the file.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest

from interference_lab.bench import run_scenario, scenario_from_dict, scenario_to_dict
from interference_lab.cli import PRESET_NAMES, cli_main, load_scenario_configs

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9
ATOL = 1e-12  # floor for values that round to about zero

# A short panel: T=6 gives cmp 6 transition rows for the 5 coefficients of its moment-order-2 map.
BASE = {
    "name": "golden_base",
    "graph": {"n_eligible": 40, "n_ineligible": 8, "n_connected": 60, "avg_degree": 2.0},
    "dgp": {"beta": 1.0, "gamma": 0.5, "rho": 0.2, "sigma": 0.3, "baseline_mean": 4.0, "baseline_sd": 1.0},
    "rollout": {"stage_boundaries": [1, 3], "stage_probabilities": [0.3, 0.6]},
    "T": 6,
    "seed": 101,
    "replicates": 3,
    "estimators": {
        "basic": {"learner": {"kind": "ridge", "lambda_grid": [1e-8]}, "n_bootstrap": 25},
        "network": {"learner": {"kind": "ridge", "lambda_grid": [1e-8]}, "n_bootstrap": 25},
        "cmp": {"learner": {"kind": "ridge", "lambda_grid": [1e-8, 1e-6]}, "n_bootstrap": 25, "n_subpopulations": 4},
    },
}

# The optional paths: cmp at moment order 1, network lambda CV and weighted exposures.
VARIANT = dict(
    BASE,
    name="golden_variant",
    graph=dict(BASE["graph"], weight_mode="lognormal", weight_mu=0.0, weight_sd=0.5),
    estimators={
        "basic": BASE["estimators"]["basic"],
        "network": {
            "learner": {"kind": "ridge", "lambda_grid": [1e-3, 3.0, 10.0]},
            "n_bootstrap": 25,
            "weighted_exposures": True,
        },
        "cmp": dict(BASE["estimators"]["cmp"], moment_order=1),
    },
)

SCENARIOS = {"base": BASE, "variant": VARIANT}


def bench_report(obj: dict) -> str:
    return run_scenario(scenario_from_dict(obj)).to_json()


def cli_estimates(workdir: Path) -> dict[str, str]:
    """`estimate` output per method on the base scenario's simulated dataset, with its estimator blocks."""
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps(BASE))
    data = workdir / "data"
    assert cli_main(["simulate", "--config", str(scenario), "--out", str(data)]) == 0
    out = {}
    for method, block in BASE["estimators"].items():
        config = workdir / f"{method}_config.json"
        config.write_text(json.dumps(dict(block, seed=BASE["seed"])))
        result = workdir / f"estimate_{method}.json"
        argv = ["estimate", "--data", str(data), "--method", method, "--config", str(config), "--out", str(result)]
        assert cli_main(argv) == 0
        out[result.name] = result.read_text(encoding="utf-8")
    return out


def presets_config() -> str:
    configs = {name: scenario_to_dict(cfg) for name in PRESET_NAMES for cfg in load_scenario_configs(name)}
    return json.dumps(configs, indent=2) + "\n"


def assert_close(got, want, path="$"):
    """Same JSON structure; floats within RTOL, everything else exactly equal."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


def numeric_fields(obj, path=()):
    """(path, value) of every number in a JSON value; bools are not numbers."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from numeric_fields(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from numeric_fields(value, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def largest_changes(old: dict, new: dict) -> dict[str, float]:
    """Largest relative change per field name (the last key of a number's path) between two JSON values.

    A field found on one side only is reported as `inf`; a zero that stays zero as 0.
    """
    old_values, new_values = dict(numeric_fields(old)), dict(numeric_fields(new))
    out: dict[str, float] = {}
    for path in old_values.keys() | new_values.keys():
        field = next((key for key in reversed(path) if isinstance(key, str)), "$")
        a, b = old_values.get(path), new_values.get(path)
        if a is None or b is None:
            change = math.inf
        else:
            change = abs(b - a) / abs(a) if a else (0.0 if b == a else math.inf)
        out[field] = max(out.get(field, 0.0), change)
    return out


def assert_matches_golden(text: str, name: str):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if text != want:
        assert_close(json.loads(text), json.loads(want), name)


@pytest.mark.parametrize("variant", sorted(SCENARIOS))
def test_bench_report_matches_golden(variant):
    assert_matches_golden(bench_report(SCENARIOS[variant]), f"report_{variant}.json")


def test_cli_estimates_match_golden(tmp_path):
    outputs = cli_estimates(tmp_path)
    assert sorted(outputs) == ["estimate_basic.json", "estimate_cmp.json", "estimate_network.json"]
    for name, text in outputs.items():
        assert_matches_golden(text, name)


def test_preset_configs_match_golden():
    assert presets_config() == (GOLDEN / "presets_config.json").read_text(encoding="utf-8")


def test_tolerance_admits_rounding_only():
    want = {"a": [1.0, 2.5e-3], "b": "x", "c": True}
    assert_close({"a": [1.0 + 1e-13, 2.5e-3 * (1 + 1e-10)], "b": "x", "c": True}, want)
    for bad in ({"a": [1.0 + 1e-6, 2.5e-3], "b": "x", "c": True},
                {"a": [1.0, 2.5e-3], "b": "y", "c": True},
                {"a": [1.0], "b": "x", "c": True},
                {"a": [1.0, 2.5e-3], "b": "x", "c": 1}):
        with pytest.raises(AssertionError):
            assert_close(bad, want)


def test_largest_changes_reports_each_numeric_field():
    old = {"truth": 2.0, "reps": [{"point": 1.0, "flag": True}, {"point": 4.0, "gone": 1}], "zero": 0.0}
    new = {"truth": 2.0, "reps": [{"point": 1.5, "flag": False}, {"point": 4.0}], "zero": 0.0, "added": 3}
    assert largest_changes(old, new) == {"truth": 0.0, "point": 0.5, "gone": math.inf, "zero": 0.0,
                                         "added": math.inf}


def write_golden():
    outputs = {f"report_{variant}.json": bench_report(obj) for variant, obj in SCENARIOS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        outputs.update(cli_estimates(Path(tmp)))
    outputs["presets_config.json"] = presets_config()
    GOLDEN.mkdir(exist_ok=True)
    for name, text in outputs.items():
        path = GOLDEN / name
        if not path.exists():
            print(f"{name}: new file")
        else:
            changes = largest_changes(json.loads(path.read_text(encoding="utf-8")), json.loads(text))
            moved = ", ".join(f"{field} {change:.2g}" for field, change in sorted(changes.items()) if change)
            print(f"{name}: largest relative change per field: {moved or 'none'}")
        path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    write_golden()
