import numpy as np
import pytest

from interference_lab.core import BipartiteGraph, BootstrapConfig
from interference_lab.est_basic import _pre_post_arrays, estimate_basic
from interference_lab.est_network import (
    OutcomeModel,
    counterfactual_exposures,
    direct_exposure,
    estimate_network,
    estimate_ptte,
    exposure_matrix,
    extrapolation_warnings,
    fit_psi,
    indirect_exposure,
)
from interference_lab.regress import DegenerateDesignError, LearnerConfig, RidgeModel, predict
from interference_lab.sim import (
    DgpParams,
    GraphParams,
    RolloutParams,
    generate_graph,
    ground_truth_tte,
    simulate_experiment,
)

from test_sim import line_graph

OLS = LearnerConfig(lambda_grid=(1e-8,))


def brute_force_exposures(g: BipartiteGraph, w_full, weighted=False):
    """Triple-loop evaluation of the exposure definitions, one unit at a time."""
    w = {int(uid): float(x) for uid, x in zip(g.treatment_ids, w_full)}
    edges = list(zip(g.edge_treatment.tolist(), g.edge_connected.tolist(), g.edge_weight.tolist()))
    e_dir, e_ind = [], []
    for j, elig in zip(g.treatment_ids.tolist(), g.eligible.tolist()):
        if not elig:
            continue
        connected = [(c, omega) for (t, c, omega) in edges if t == j]
        e_dir.append(w[j] * sum(omega if weighted else 1.0 for _, omega in connected))
        total = 0.0
        for c, omega in connected:
            co_servers = [t for (t, c2, _) in edges if c2 == c and t != j]
            count = sum(w[k] for k in co_servers)
            total += count * (omega if weighted else 1.0)
        e_ind.append(total)
    return np.asarray(e_dir), np.asarray(e_ind)


def test_direct_exposure_is_own_treatment_times_degree():
    g = line_graph([3, 2])
    np.testing.assert_allclose(direct_exposure(g, [1.0, 0.0]), [3.0, 0.0])
    np.testing.assert_allclose(direct_exposure(g, [0.0, 1.0]), [0.0, 2.0])


def test_indirect_exposure_counts_treated_co_servers():
    # units 1 and 2 share connected unit 1; unit 3 is isolated from them
    g = BipartiteGraph(
        treatment_ids=[1, 2, 3],
        eligible=[True, True, True],
        connected_ids=[1, 2],
        edge_treatment=[1, 2, 3],
        edge_connected=[1, 1, 2],
        edge_weight=[1.0, 1.0, 1.0],
    )
    np.testing.assert_allclose(indirect_exposure(g, [0.0, 1.0, 1.0]), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(indirect_exposure(g, [0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])


def test_all_control_assignment_zeroes_both_exposures():
    g = generate_graph(GraphParams(n_eligible=20, n_ineligible=5, n_connected=30, avg_degree=3.0), seed=2)
    e = exposure_matrix(g, np.zeros(20))
    assert np.all(e == 0.0)


@pytest.mark.parametrize("weighted", [False, True])
def test_exposures_match_brute_force_on_random_graphs(weighted):
    rng = np.random.default_rng(7)
    for trial in range(40):
        n_elig = int(rng.integers(2, 20))
        n_inelig = int(rng.integers(0, 5))
        gp = GraphParams(
            n_eligible=n_elig,
            n_ineligible=n_inelig,
            n_connected=int(rng.integers(2, 25)),
            avg_degree=float(rng.uniform(1.0, 2.0)),
            weight_mode="lognormal",
        )
        g = generate_graph(gp, seed=trial)
        w_full = np.zeros(g.n_treatment_units)
        w_full[:n_elig] = rng.integers(0, 2, size=n_elig)
        ref_dir, ref_ind = brute_force_exposures(g, w_full, weighted=weighted)
        np.testing.assert_allclose(direct_exposure(g, w_full, weighted=weighted), ref_dir, atol=1e-12)
        np.testing.assert_allclose(indirect_exposure(g, w_full, weighted=weighted), ref_ind, atol=1e-12)


def test_counterfactual_exposures_match_brute_force_all_eligible_treated():
    g = generate_graph(GraphParams(n_eligible=15, n_ineligible=6, n_connected=20, avg_degree=2.0), seed=9)
    cf = counterfactual_exposures(g)
    w_full = g.eligible.astype(float)
    ref_dir, ref_ind = brute_force_exposures(g, w_full)
    np.testing.assert_allclose(cf[:, 0], g.degrees()[g.eligible], atol=1e-12)
    np.testing.assert_allclose(cf[:, 1], ref_ind, atol=1e-12)


def test_fit_psi_interpolates_linear_exposure_response():
    rng = np.random.default_rng(1)
    e = np.column_stack([rng.integers(0, 4, 40), rng.integers(0, 6, 40)]).astype(float)
    y = e[:, 0] * 1.0 + 0.25 * e[:, 1] + 0.5
    om = fit_psi(e, None, y, OLS)
    np.testing.assert_allclose(predict(om.model, e), y, atol=1e-6)


def test_fit_psi_constant_outcomes_yield_constant_predictor():
    rng = np.random.default_rng(2)
    e = np.column_stack([rng.integers(0, 3, 30), rng.integers(0, 5, 30)]).astype(float)
    om = fit_psi(e, None, np.full(30, 2.5), LearnerConfig(lambda_grid=(1e-4,)))
    np.testing.assert_allclose(predict(om.model, np.array([[9.0, 9.0], [0.0, 0.0]])), [2.5, 2.5], atol=1e-6)


def test_fit_psi_rejects_identical_exposures():
    e = np.ones((10, 2))
    with pytest.raises(DegenerateDesignError):
        fit_psi(e, None, np.arange(10.0), OLS)


def test_fit_psi_held_out_r2_on_noiseless_simulator_data():
    gp = GraphParams(n_eligible=200, n_ineligible=40, n_connected=80, avg_degree=3.0)
    dgp = DgpParams(beta=1.0, gamma=-1.5, rho=0.0, sigma=0.0, baseline_mean=5.0, baseline_sd=1.0)
    d = simulate_experiment(gp, dgp, RolloutParams((1,), (0.5,)), T=6, seed=32, pre_period_end=0)
    delta, treated, _ = _pre_post_arrays(d)
    e = exposure_matrix(d.graph, treated.astype(float))
    train = np.arange(200) % 2 == 0
    om = fit_psi(e[train], None, delta[train], OLS)
    resid = delta[~train] - predict(om.model, e[~train])
    assert 1 - resid.var() / delta[~train].var() >= 0.9


def manual_outcome_model(g, coef, intercept, targets=None):
    treated = np.zeros(int(g.eligible.sum()))
    treated[0] = 1.0  # keep some exposure variation for the bootstrap refits
    design = exposure_matrix(g, treated)
    y = targets if targets is not None else predict(RidgeModel(coef, intercept, 0.0), design)
    return OutcomeModel(
        model=RidgeModel(np.asarray(coef, float), intercept, 0.0),
        learner=OLS,
        design=design,
        targets=y,
    )


def test_constant_model_gives_zero_ptte():
    g = line_graph([1, 2, 3])
    om = manual_outcome_model(g, [0.0, 0.0], 4.0)
    est = estimate_ptte(om, counterfactual_exposures(g), bootstrap=BootstrapConfig(20, seed=1))
    assert est.point == pytest.approx(0.0, abs=1e-10)
    assert not est.significant_5pct


def test_pure_direct_exposure_model_averages_degrees():
    g = line_graph([1, 2, 3])
    om = manual_outcome_model(g, [1.0, 0.0], 0.0)
    est = estimate_ptte(om, counterfactual_exposures(g), bootstrap=BootstrapConfig(10, seed=1))
    assert est.point == pytest.approx(2.0, abs=1e-9)


def test_network_estimate_tracks_oracle_while_basic_is_biased():
    gp = GraphParams(n_eligible=300, n_ineligible=50, n_connected=40, avg_degree=3.0)
    dgp = DgpParams(beta=1.0, gamma=-2.0, rho=0.0, sigma=0.3, baseline_mean=5.0, baseline_sd=1.0)
    d = simulate_experiment(gp, dgp, RolloutParams((1,), (0.5,)), T=8, seed=42, pre_period_end=0)
    truth = ground_truth_tte(d.graph, dgp, 8)
    est_n, _ = estimate_network(d, learner=OLS, bootstrap=BootstrapConfig(200, seed=2))
    est_b = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(200, seed=2))
    se_n = (est_n.ci_high - est_n.ci_low) / 3.92
    se_b = (est_b.ci_high - est_b.ci_low) / 3.92
    assert abs(est_n.point - truth) <= 3 * se_n
    assert abs(est_b.point - truth) > 10 * se_b
    assert est_n.method == "network_aware"


def test_agrees_with_basic_when_gamma_zero():
    gp = GraphParams(n_eligible=150, n_ineligible=20, n_connected=200, avg_degree=2.5)
    dgp = DgpParams(beta=1.0, gamma=0.0, rho=0.0, sigma=0.4, baseline_mean=5.0, baseline_sd=1.0)
    d = simulate_experiment(gp, dgp, RolloutParams((1, 2), (0.0, 0.6)), T=8, seed=17, pre_period_end=1)
    est_n, _ = estimate_network(d, learner=OLS, bootstrap=BootstrapConfig(150, seed=2))
    est_b = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(150, seed=2))
    se = np.hypot(
        (est_n.ci_high - est_n.ci_low) / 3.92, (est_b.ci_high - est_b.ci_low) / 3.92
    )
    assert abs(est_n.point - est_b.point) <= 3 * se


def test_requires_graph():
    import dataclasses

    gp = GraphParams(n_eligible=20, n_connected=30, avg_degree=2.0)
    d = simulate_experiment(gp, DgpParams(sigma=0.1), RolloutParams((1,), (0.5,)), T=4, seed=3)
    with pytest.raises(ValueError, match="graph"):
        estimate_network(dataclasses.replace(d, graph=None))


def test_extrapolation_warnings_flag_out_of_range_points():
    g = line_graph([1, 2, 3])
    om = manual_outcome_model(g, [1.0, 0.0], 0.0)
    # only unit 1 treated during training: all-treated direct exposures 2 and 3 exceed max 1
    warnings = extrapolation_warnings(om, counterfactual_exposures(g))
    assert any("direct" in w for w in warnings)


def test_estimate_ptte_deterministic():
    g = line_graph([1, 2, 3, 2, 1])
    rng = np.random.default_rng(0)
    treated = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    design = exposure_matrix(g, treated)
    y = design @ np.array([0.8, 0.1]) + rng.normal(0, 0.05, 5)
    om = fit_psi(design, None, y, OLS)
    cf = counterfactual_exposures(g)
    a = estimate_ptte(om, cf, bootstrap=BootstrapConfig(30, seed=5))
    b = estimate_ptte(om, cf, bootstrap=BootstrapConfig(30, seed=5))
    assert a == b
