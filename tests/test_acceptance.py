"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The three shipped presets run once at full scale (R=200 replicates,
N=1000 eligible units, T=20) and the per-criterion checks read the
aggregated report; criterion 11 runs `upward_bias` once more on a short
panel. Expect a few minutes of wall time for this module.
"""

import dataclasses
import json
import sys
import time

import numpy as np
import pytest

from interference_lab.bench import run_scenario
from interference_lab.cli import cli_main, load_scenario_configs
from interference_lab.core import BootstrapConfig, METHODS
from interference_lab.est_cmp import CmpConfig, estimate_tte_cmp
from interference_lab.est_network import direct_exposure, indirect_exposure
from interference_lab.regress import (
    LearnerConfig,
    kernel_ridge_fit,
    predict,
    ridge_fit,
)
from interference_lab.sim import DgpParams, GraphParams, RolloutParams, generate_graph, simulate_experiment

from test_est_cmp import linear_map_dataset
from test_est_network import brute_force_exposures
from test_regress import ridge_oracle
from test_cli import TINY_SCENARIO

PRESETS = ("no_interference", "upward_bias", "sign_reversal")


def _report(criterion: int, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion:02d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def preset_runs():
    out = {}
    for name in PRESETS:
        (cfg,) = load_scenario_configs(name)
        start = time.perf_counter()
        out[name] = {"scenario": run_scenario(cfg, jobs=2).scenarios[0], "runtime": time.perf_counter() - start}
    return out


def test_criterion_01_oracle_recovery_without_interference(preset_runs):
    sc = preset_runs["no_interference"]["scenario"]
    runtime = preset_runs["no_interference"]["runtime"]
    details, ok = [], True
    for m in METHODS:
        s = sc["methods"][m]
        inside = abs(s["bias_mean"]) <= 3 * s["bias_se"]
        ok &= inside and s["n_failed"] == 0
        details.append(f"{m} bias {s['bias_mean']:+.4f} vs 3se {3 * s['bias_se']:.4f}")
    ok &= runtime < 600.0
    details.append(f"runtime {runtime:.0f}s < 600s")
    _report(1, ok, "; ".join(details))


def test_criterion_02_expected_bias_direction(preset_runs):
    sc = preset_runs["upward_bias"]["scenario"]
    basic = sc["methods"]["basic"]
    network = sc["methods"]["network_aware"]
    cmp_ = sc["methods"]["cmp"]
    ok = basic["exceeds_truth_rate"] >= 0.95
    ok &= network["abs_bias_mean"] < 0.5 * basic["abs_bias_mean"]
    ok &= cmp_["abs_bias_mean"] < 0.5 * basic["abs_bias_mean"]
    _report(
        2,
        ok,
        f"basic exceeds truth in {100 * basic['exceeds_truth_rate']:.1f}% of replicates; "
        f"abs bias basic {basic['abs_bias_mean']:.3f}, network {network['abs_bias_mean']:.3f}, "
        f"cmp {cmp_['abs_bias_mean']:.3f}",
    )


def test_criterion_03_sign_reversal(preset_runs):
    sc = preset_runs["sign_reversal"]["scenario"]
    basic_mean = sc["methods"]["basic"]["estimate_mean"]
    truth = sc["truth_mean"]
    ok = np.sign(basic_mean) * np.sign(truth) == -1
    net_rate = sc["methods"]["network_aware"]["sign_match_truth_rate"]
    cmp_rate = sc["methods"]["cmp"]["sign_match_truth_rate"]
    ok &= net_rate >= 0.90 and cmp_rate >= 0.90
    _report(
        3,
        ok,
        f"basic mean {basic_mean:+.3f} vs truth {truth:+.3f}; "
        f"sign match network {100 * net_rate:.1f}%, cmp {100 * cmp_rate:.1f}%",
    )


def test_criterion_04_method_agreement(preset_runs):
    rates = {name: preset_runs[name]["scenario"]["sign_agreement"]["cmp"]["network_aware"] for name in PRESETS}
    ok = all(rate is not None and rate >= 0.90 for rate in rates.values())
    _report(4, ok, "cmp/network sign agreement " + ", ".join(f"{k}={100 * v:.1f}%" for k, v in rates.items()))


def test_criterion_05_graph_blindness():
    d = simulate_experiment(
        GraphParams(n_eligible=150, n_ineligible=30, n_connected=220, avg_degree=2.5),
        DgpParams(beta=1.0, gamma=0.7, rho=0.2, sigma=0.5, baseline_mean=5.0, baseline_sd=1.5),
        RolloutParams((1, 4), (0.3, 0.6)),
        T=10,
        seed=77,
    )
    cfg = CmpConfig(n_subpopulations=6, learner=LearnerConfig(lambda_grid=(1e-8, 1e-6)), seed=5)
    bs = BootstrapConfig(100, seed=6)
    with_graph = estimate_tte_cmp(d, cfg, bs)
    without = estimate_tte_cmp(dataclasses.replace(d, graph=None), cfg, bs)
    scrambled = dataclasses.replace(
        d, graph=generate_graph(GraphParams(n_eligible=150, n_ineligible=10, n_connected=80, avg_degree=3.0), seed=123)
    )
    randomized = estimate_tte_cmp(scrambled, cfg, bs)
    ok = with_graph == without == randomized
    _report(5, ok, f"cmp estimate {with_graph.point:+.6f} identical across graph present/absent/randomized")


def test_criterion_06_exposure_oracle_equivalence():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(1000):
        n_elig = int(rng.integers(2, 41))
        n_inelig = int(rng.integers(0, min(10, 51 - n_elig)))
        n_connected = int(rng.integers(2, 31))
        gp = GraphParams(
            n_eligible=n_elig,
            n_ineligible=n_inelig,
            n_connected=n_connected,
            avg_degree=float(rng.uniform(1.0, min(3.0, n_connected))),
            weight_mode="lognormal" if trial % 3 == 0 else "unit",
        )
        g = generate_graph(gp, seed=trial)
        w_full = np.zeros(g.n_treatment_units)
        w_full[:n_elig] = rng.integers(0, 2, size=n_elig)
        weighted = trial % 2 == 1
        ref_dir, ref_ind = brute_force_exposures(g, w_full, weighted=weighted)
        if not np.array_equal(direct_exposure(g, w_full, weighted=weighted), ref_dir):
            _report(6, False, f"direct exposure mismatch on graph {trial}")
        if not np.array_equal(indirect_exposure(g, w_full, weighted=weighted), ref_ind):
            _report(6, False, f"indirect exposure mismatch on graph {trial}")
        checked += 1
    _report(6, checked == 1000, f"exact match with brute force on {checked} random graphs")


def test_criterion_07_regression_correctness():
    rng = np.random.default_rng(55)
    worst_ridge = 0.0
    for _ in range(50):
        X = rng.normal(size=(40, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=40)
        lam = float(rng.uniform(0.0, 5.0))
        model = ridge_fit(X, y, lam)
        coef, intercept = ridge_oracle(X, y, lam)
        worst_ridge = max(
            worst_ridge,
            float(np.max(np.abs(model.coefficients - coef))),
            abs(model.intercept - intercept),
        )
    worst_kernel = 0.0
    for kernel, bw in (("rbf", 0.8), ("linear", None)):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = kernel_ridge_fit(X, y, kernel=kernel, lam=0.4, bandwidth=bw)
        if kernel == "rbf":
            d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
            K = np.exp(-d2 / (2 * bw**2))
        else:
            K = X @ X.T
        direct = K @ np.linalg.solve(K + 0.4 * np.eye(30), y)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(predict(model, X) - direct))))
    ok = worst_ridge <= 1e-8 and worst_kernel <= 1e-8
    _report(7, ok, f"ridge max deviation {worst_ridge:.2e}, kernel ridge {worst_kernel:.2e} (tol 1e-8)")


def test_criterion_08_recursion_exactness():
    d, analytic = linear_map_dataset(n_units=40, T=30)
    est = estimate_tte_cmp(
        d,
        config=CmpConfig(n_subpopulations=4, learner=LearnerConfig(lambda_grid=(1e-8, 1e-6)), seed=1),
        bootstrap=BootstrapConfig(20, seed=2),
    )
    err = abs(est.point - analytic)
    _report(8, err <= 1e-3, f"analytic {analytic:.6f} vs estimated {est.point:.6f} (|err| {err:.2e} <= 1e-3)")


def test_criterion_09_cli_determinism(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(TINY_SCENARIO))

    def tree(path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}

    mismatches = []
    for tag in ("a", "b"):
        assert cli_main(["simulate", "--config", str(scenario), "--out", str(tmp_path / f"data_{tag}")]) == 0
    if tree(tmp_path / "data_a") != tree(tmp_path / "data_b"):
        mismatches.append("simulate")

    for method in ("basic", "network", "cmp"):
        for tag in ("a", "b"):
            assert cli_main([
                "estimate", "--data", str(tmp_path / "data_a"), "--method", method,
                "--out", str(tmp_path / f"est_{method}_{tag}.json"),
            ]) == 0
        if (tmp_path / f"est_{method}_a.json").read_bytes() != (tmp_path / f"est_{method}_b.json").read_bytes():
            mismatches.append(f"estimate/{method}")

    for tag in ("a", "b"):
        assert cli_main(["bench", "--config", str(scenario), "--out", str(tmp_path / f"report_{tag}.json")]) == 0
    if (tmp_path / "report_a.json").read_bytes() != (tmp_path / "report_b.json").read_bytes():
        mismatches.append("bench")

    for tag in ("a", "b"):
        assert cli_main([
            "report", "--in", str(tmp_path / "report_a.json"), "--format", "markdown",
            "--out", str(tmp_path / f"md_{tag}.txt"),
        ]) == 0
    if (tmp_path / "md_a.txt").read_bytes() != (tmp_path / "md_b.txt").read_bytes():
        mismatches.append("report")

    _report(9, not mismatches, "byte-identical reruns for simulate/estimate/bench/report"
            + (f" (mismatches: {mismatches})" if mismatches else ""))


def test_criterion_10_ci_coverage(preset_runs):
    sc = preset_runs["no_interference"]["scenario"]
    rates = {m: sc["methods"][m]["coverage_rate"] for m in METHODS}
    ok = all(rate >= 0.88 for rate in rates.values())
    _report(10, ok, "95% CI coverage " + ", ".join(f"{m}={100 * r:.1f}%" for m, r in rates.items()))


def test_criterion_11_short_panel():
    """cmp fits its map on a short panel's own rows: `upward_bias` at T=8 and moment order 1."""
    (cfg,) = load_scenario_configs("upward_bias")
    cfg = dataclasses.replace(cfg, T=8, cmp=dataclasses.replace(cfg.cmp, moment_order=1))
    s = run_scenario(cfg, jobs=2).scenarios[0]["methods"]["cmp"]
    ok = abs(s["bias_mean"]) <= 3 * s["bias_se"] and s["coverage_rate"] >= 0.88 and s["n_failed"] == 0
    _report(11, ok, f"cmp at T=8: bias {s['bias_mean']:+.4f} vs 3se {3 * s['bias_se']:.4f}, "
                    f"coverage {100 * s['coverage_rate']:.1f}%, {s['n_failed']} failed")
