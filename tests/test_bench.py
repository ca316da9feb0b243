import importlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import interference_lab.bench as bench
from interference_lab.bench import (
    BenchReport,
    REPORT_SCHEMA,
    ScenarioConfig,
    render_report,
    run_scenario,
    run_scenarios,
    scenario_from_dict,
    scenario_to_dict,
)
from interference_lab.core import METHODS
from interference_lab.est_cmp import estimate_tte_cmp
from interference_lab.regress import LearnerConfig
from interference_lab.sim import DgpParams, GraphParams, RolloutParams


def tiny_scenario(name="tiny", seed=101, replicates=3, **dgp_kwargs):
    dgp = dict(beta=1.0, gamma=0.5, rho=0.2, sigma=0.3, baseline_mean=4.0, baseline_sd=1.0)
    dgp.update(dgp_kwargs)
    return ScenarioConfig(
        name=name,
        graph=GraphParams(n_eligible=40, n_ineligible=8, n_connected=60, avg_degree=2.0),
        dgp=DgpParams(**dgp),
        rollout=RolloutParams((1, 3), (0.3, 0.6)),
        T=6,
        seed=seed,
        replicates=replicates,
        expected_bias_sign=None,
        basic=bench.BasicSettings(learner=LearnerConfig(lambda_grid=(1e-8,)), n_bootstrap=25),
        network=bench.NetworkSettings(learner=LearnerConfig(lambda_grid=(1e-8,)), n_bootstrap=25),
        cmp=bench.CmpSettings(
            learner=LearnerConfig(lambda_grid=(1e-8, 1e-6)), n_bootstrap=25, n_subpopulations=4
        ),
    )


def test_zero_effect_scenario_reports_zeros():
    cfg = tiny_scenario(replicates=1, beta=0.0, gamma=0.0, sigma=0.0, rho=0.0)
    sc = run_scenario(cfg).scenarios[0]
    assert sc["truth_mean"] == 0.0
    for m in METHODS:
        assert abs(sc["methods"][m]["estimate_mean"]) < 1e-6


def test_report_is_deterministic():
    cfg = tiny_scenario()
    a = run_scenario(cfg).to_json()
    b = run_scenario(cfg).to_json()
    assert a == b


def test_parallel_execution_matches_serial():
    cfg = tiny_scenario(replicates=2)
    serial = run_scenario(cfg, jobs=1).to_json()
    parallel = run_scenario(cfg, jobs=2).to_json()
    assert serial == parallel


def test_parallel_run_starts_no_more_workers_than_replicates(monkeypatch):
    started = []

    class SerialPool:  # records the pool size, runs the replicates in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    assert run_scenario(tiny_scenario(replicates=2), jobs=3).scenarios[0]["n_replicates"] == 2
    assert started == [2]


def test_report_validates_against_schema_after_round_trip():
    cfg = tiny_scenario(replicates=2)
    report = run_scenario(cfg)
    payload = json.loads(report.to_json())
    jsonschema.validate(payload, REPORT_SCHEMA)
    again = BenchReport.from_dict(payload)
    assert again.to_json() == report.to_json()


def test_sign_agreement_matrix_matches_replicate_log_recount():
    cfg = tiny_scenario(replicates=3)
    sc = run_scenario(cfg).scenarios[0]
    for a in METHODS:
        assert sc["sign_agreement"][a][a] == 1.0
        for b in METHODS:
            assert sc["sign_agreement"][a][b] == sc["sign_agreement"][b][a]
            recount = [
                np.sign(rec["estimates"][a]["point"]) == np.sign(rec["estimates"][b]["point"])
                for rec in sc["replicates"]
                if rec["estimates"][a] is not None and rec["estimates"][b] is not None
            ]
            assert sc["sign_agreement"][a][b] == pytest.approx(np.mean(recount))


def test_bias_direction_block():
    cfg = tiny_scenario(replicates=2, gamma=-1.5)
    cfg = ScenarioConfig(**{**cfg.__dict__, "expected_bias_sign": "positive"})
    sc = run_scenario(cfg).scenarios[0]
    bd = sc["bias_direction"]
    assert bd["expected"] == "positive"
    assert 0.0 <= bd["basic_match_rate"] <= 1.0
    assert isinstance(bd["verdict"], bool)


def test_estimator_failure_is_isolated(monkeypatch):
    cfg = tiny_scenario(replicates=2)

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(bench, "estimate_basic", explode)
    sc = run_scenario(cfg).scenarios[0]
    assert sc["methods"]["basic"]["n_failed"] == 2
    assert sc["methods"]["basic"]["n_ok"] == 0
    assert sc["methods"]["cmp"]["n_ok"] == 2
    assert all("synthetic failure" in rec["errors"]["basic"] for rec in sc["replicates"])
    assert sc["sign_agreement"]["basic"]["cmp"] is None


def test_simulation_failure_fails_every_method(monkeypatch):
    cfg = tiny_scenario(replicates=2)

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic simulation failure")

    monkeypatch.setattr(bench, "simulate_scenario_dataset", explode)
    report = run_scenario(cfg)
    sc = report.scenarios[0]
    for rec in sc["replicates"]:
        assert rec["truth"] is None
        assert rec["errors"] == {m: "simulation failed: synthetic simulation failure" for m in METHODS}
    assert sc["methods"] == {m: {"n_ok": 0, "n_failed": 2} for m in METHODS}
    assert sc["truth_mean"] is None
    assert render_report(report).count(" | failed (2) | - | - | - |") == 3


def markdown_rows(text: str) -> dict:
    """Table rows of a markdown report keyed by their first cell."""
    return {line.split(" | ")[0][2:]: line for line in text.splitlines() if line.startswith("| ")}


def test_render_markdown_shows_failed_method_and_expected_bias_match(monkeypatch):
    cfg = tiny_scenario(replicates=2, gamma=-1.5)
    cfg = ScenarioConfig(**{**cfg.__dict__, "expected_bias_sign": "positive"})

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(bench, "estimate_network", explode)
    report = run_scenario(cfg)
    bd = report.scenarios[0]["bias_direction"]
    rows = markdown_rows(render_report(report))
    assert rows["network_aware"] == "| network_aware | failed (2) | - | - | - |"
    verdict = "yes" if bd["verdict"] else "no"
    assert rows["basic"].endswith(f" | {verdict} ({100 * bd['basic_match_rate']:.1f}%) |")
    assert rows["cmp"].endswith(" | - |")


def test_render_markdown_has_three_method_rows():
    cfg = tiny_scenario(replicates=2)
    report = run_scenario(cfg)
    text = render_report(report, fmt="markdown")
    assert text.count("| basic |") == 1
    assert text.count("| network_aware |") == 1
    assert text.count("| cmp |") == 1
    assert "Sign agreement" in text


def test_render_empty_report_is_header_only():
    text = render_report(BenchReport(), fmt="markdown")
    assert text.splitlines()[0].startswith("# ")
    assert "| basic |" not in text


def test_render_json_round_trip():
    report = BenchReport()
    assert json.loads(render_report(report, fmt="json")) == {"schema": 1, "scenarios": []}
    with pytest.raises(ValueError, match="format"):
        render_report(report, fmt="yaml")


def test_scenario_config_dict_round_trip():
    cfg = tiny_scenario()
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg


def test_scenario_from_dict_validation():
    with pytest.raises(ValueError, match="missing keys"):
        scenario_from_dict({"name": "x"})
    good = scenario_to_dict(tiny_scenario())
    bad = dict(good, bogus=1)
    with pytest.raises(ValueError, match="unknown scenario config keys"):
        scenario_from_dict(bad)
    bad2 = dict(good, estimators={"magic": {}})
    with pytest.raises(ValueError, match="unknown estimator blocks"):
        scenario_from_dict(bad2)
    for block in ("basic", "network", "cmp"):
        stray = dict(good["estimators"][block], all_units_treated=False, weights=1)
        with pytest.raises(ValueError, match=rf"^unknown {block} settings keys: \['all_units_treated', 'weights'\]$"):
            scenario_from_dict(dict(good, estimators=dict(good["estimators"], **{block: stray})))


@pytest.mark.parametrize("seed", ["71", 71.5, True, None])
def test_scenario_from_dict_rejects_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        scenario_from_dict(dict(scenario_to_dict(tiny_scenario()), seed=seed))


def test_run_scenarios_concatenates():
    cfgs = [tiny_scenario(name="a", replicates=1), tiny_scenario(name="b", replicates=1, seed=55)]
    report = run_scenarios(cfgs)
    assert [sc["name"] for sc in report.scenarios] == ["a", "b"]


def test_presets_parse_and_declare_expectations():
    from interference_lab.cli import PRESET_NAMES, load_scenario_configs

    for name in PRESET_NAMES:
        (cfg,) = load_scenario_configs(name)
        assert cfg.name == name
        assert cfg.replicates == 200
        assert cfg.T == 20
    (upward,) = load_scenario_configs("upward_bias")
    assert upward.expected_bias_sign == "positive"
    assert upward.dgp.gamma < 0


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def benchmark_runner(monkeypatch):
    """The benchmark's runner module; it imports its `tracing` sibling from `benchmarks/`."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("runner")


def test_benchmark_traced_functions_resolve(monkeypatch):
    runner = benchmark_runner(monkeypatch)
    for module, names in runner.TRACED.items():
        owner = importlib.import_module(f"interference_lab.{module}")
        for name in names:
            assert callable(getattr(owner, name, None)), f"benchmark traces missing {module}.{name}"


def test_benchmark_cmp_calls_match_run_method(monkeypatch):
    runner = benchmark_runner(monkeypatch)
    cfg = tiny_scenario(replicates=1)
    d = bench.simulate_scenario_dataset(cfg, 1)
    obj = scenario_to_dict(cfg)
    seed = 5
    # the benchmark's own CmpConfig/BootstrapConfig on the cmp and cmp-boot streams
    direct = estimate_tte_cmp(d, *runner._cmp_args(obj["estimators"]["cmp"], seed))
    assert (direct, {}) == bench.run_method("cmp", d, cfg.cmp, seed)
    probes = runner._probes(d, obj)
    assert probes and all(math.isfinite(v) and v > 0 for v in probes.values())
