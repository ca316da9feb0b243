"""Golden-output gate: frozen bench reports for a tiny scenario in two
variants, the CLI `estimate` output of every method on one saved dataset,
and the `scenario_to_dict` form of every shipped preset.

Outputs are compared byte for byte. A change that only reorders
floating-point operations may move numbers by at most rtol 1e-9; anything
else is a change in results. Regenerate the files, only for an intended
change in results, with

    PYTHONPATH=src python tests/test_golden.py
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

# T=6 gives 6 transition rows, fewer than cmp needs, so it pools subpopulations.
POOLED = {
    "name": "golden_pooled",
    "graph": {"n_eligible": 40, "n_ineligible": 8, "n_connected": 60, "avg_degree": 2.0},
    "dgp": {"beta": 1.0, "gamma": 0.5, "rho": 0.2, "sigma": 0.3, "baseline_mean": 4.0, "baseline_sd": 1.0},
    "rollout": {"stage_boundaries": [1, 3], "stage_probabilities": [0.3, 0.6]},
    "T": 6,
    "seed": 101,
    "replicates": 3,
    "truth_reps": 2,
    "estimators": {
        "basic": {"learner": {"kind": "ridge", "lambda_grid": [1e-8]}, "n_bootstrap": 25},
        "network": {"learner": {"kind": "ridge", "lambda_grid": [1e-8]}, "n_bootstrap": 25},
        "cmp": {"learner": {"kind": "ridge", "lambda_grid": [1e-8, 1e-6]}, "n_bootstrap": 25, "n_subpopulations": 4},
    },
}

# The optional paths: per-period cmp maps, network lambda CV, weighted and all-units exposures.
VARIANT = dict(
    POOLED,
    name="golden_variant",
    graph=dict(POOLED["graph"], weight_mode="lognormal", weight_mu=0.0, weight_sd=0.5),
    estimators={
        "basic": POOLED["estimators"]["basic"],
        "network": {
            "learner": {"kind": "ridge", "lambda_grid": [1e-3, 3.0, 10.0]},
            "n_bootstrap": 25,
            "weighted_exposures": True,
            "all_units_treated": True,
        },
        "cmp": dict(POOLED["estimators"]["cmp"], time_homogeneous=False),
    },
)

SCENARIOS = {"pooled": POOLED, "variant": VARIANT}


def bench_report(obj: dict) -> str:
    return run_scenario(scenario_from_dict(obj)).to_json()


def cli_estimates(workdir: Path) -> dict[str, str]:
    """`estimate` output per method on the pooled scenario's simulated dataset, with its estimator blocks."""
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps(POOLED))
    data = workdir / "data"
    assert cli_main(["simulate", "--config", str(scenario), "--out", str(data)]) == 0
    out = {}
    for method, block in POOLED["estimators"].items():
        config = workdir / f"{method}_config.json"
        config.write_text(json.dumps(dict(block, seed=POOLED["seed"])))
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


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    for variant, obj in SCENARIOS.items():
        (GOLDEN / f"report_{variant}.json").write_text(bench_report(obj), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in cli_estimates(Path(tmp)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
    (GOLDEN / "presets_config.json").write_text(presets_config(), encoding="utf-8")


if __name__ == "__main__":
    write_golden()
