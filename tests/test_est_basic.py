import dataclasses

import numpy as np
import pytest

from interference_lab.core import (
    BootstrapConfig,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
)
from interference_lab.est_basic import _has_variation, _pre_post_arrays, _varies_on, estimate_basic
from interference_lab.regress import LearnerConfig
from interference_lab.sim import (
    DgpParams,
    GraphParams,
    RolloutParams,
    ground_truth_tte,
    simulate_experiment,
)

OLS = LearnerConfig(lambda_grid=(0.0,))


def delta_dataset(deltas, treated, covariates=None):
    """Dataset with T=1 whose pre/post deltas are exactly `deltas`."""
    deltas = np.asarray(deltas, dtype=float)
    outcomes = np.column_stack([np.zeros_like(deltas), deltas])
    assignments = np.asarray(treated, dtype=np.int8)[:, None]
    return ExperimentDataset(
        outcomes=OutcomePanel(outcomes),
        treatments=TreatmentPanel(assignments, design_tag="fixed"),
        pre_period_end=0,
        covariates=None if covariates is None else UnitCovariates(covariates),
    )


def test_constant_outcomes_give_zero_delta():
    d = ExperimentDataset(
        outcomes=OutcomePanel(np.full((2, 5), 5.0)),
        treatments=TreatmentPanel(np.zeros((2, 4), dtype=np.int8)),
        pre_period_end=1,
    )
    delta, _, _ = _pre_post_arrays(d)
    assert np.all(delta == 0.0)


def test_pre_post_means():
    y = np.array([[1.0, 1.0, 3.0, 3.0]])
    d = ExperimentDataset(
        outcomes=OutcomePanel(y),
        treatments=TreatmentPanel(np.array([[0, 1, 1]], dtype=np.int8)),
        pre_period_end=0,
    )
    (delta,), (treated,), _ = _pre_post_arrays(d)
    assert delta == pytest.approx((1 + 3 + 3) / 3 - 1.0)
    assert treated


def test_simulator_single_edge_delta():
    # beta=2, treated from pre_period_end+1 onward, no carryover or noise
    d = simulate_experiment(
        GraphParams(n_eligible=1, n_connected=1, avg_degree=1.0),
        DgpParams(beta=2.0, gamma=0.0, rho=0.0, sigma=0.0, baseline_mean=1.0, baseline_sd=0.3),
        RolloutParams((2,), (1.0,)),
        T=6,
        seed=5,
        pre_period_end=1,
    )
    (delta,), _, _ = _pre_post_arrays(d)
    assert delta == pytest.approx(2.0, abs=1e-12)


def test_exact_difference_in_means_with_linear_learner():
    d = delta_dataset([2.0, 2.0, 0.0, 0.0], [1, 1, 0, 0])
    est = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(25, seed=1))
    assert est.point == pytest.approx(2.0, abs=1e-12)
    assert est.method == "basic"


def test_closed_form_matches_diff_in_means_on_random_data():
    rng = np.random.default_rng(8)
    for _ in range(10):
        deltas = rng.normal(size=30)
        treated = rng.integers(0, 2, size=30)
        if treated.all() or not treated.any():
            continue
        d = delta_dataset(deltas, treated)
        est = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(2, seed=0))
        dim = deltas[treated == 1].mean() - deltas[treated == 0].mean()
        assert est.point == pytest.approx(dim, abs=1e-10)


def test_identical_arms_not_significant():
    d = delta_dataset([1.0, 1.0, 1.0, 1.0], [1, 1, 0, 0])
    est = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(50, seed=2))
    assert est.point == pytest.approx(0.0, abs=1e-12)
    assert not est.significant_5pct
    assert est.ci_low <= 0.0 <= est.ci_high


def test_single_arm_rejected():
    with pytest.raises(ValueError, match="both treated and control"):
        estimate_basic(delta_dataset([1.0, 2.0], [1, 1]), learner=OLS)


def test_covariates_enter_the_fit():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 1))
    treated = (rng.uniform(size=60) < 0.5).astype(int)
    if treated.all() or not treated.any():
        treated[0] = 1 - treated[0]
    deltas = 1.5 * treated + 2.0 * x[:, 0] + 0.05 * rng.normal(size=60)
    d = delta_dataset(deltas, treated, covariates=x)
    est = estimate_basic(d, learner=LearnerConfig(lambda_grid=(1e-6,)), bootstrap=BootstrapConfig(30, seed=4))
    assert est.point == pytest.approx(1.5, abs=0.1)


def test_bootstrap_is_deterministic():
    d = delta_dataset([2.0, 1.0, 0.3, -0.2, 0.1, 0.9], [1, 1, 1, 0, 0, 0])
    a = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(40, seed=9))
    b = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(40, seed=9))
    assert a == b
    c = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(40, seed=10))
    assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)


def redraw_designs(rng, n=12):
    """(design, k) pairs: treatment columns z = design[:, :k] with tied rows, then covariates that vary."""
    x = rng.normal(size=(n, 2))
    signed_zero = rng.choice([0.0, -0.0, 1.0], size=(n, 1))
    yield np.hstack([rng.integers(0, 2, size=(n, 1)).astype(float), x]), 1
    yield np.hstack([rng.integers(0, 3, size=(n, 2)).astype(float), x]), 2
    yield np.hstack([signed_zero, x]), 1
    yield np.hstack([signed_zero, np.full((n, 1), 2.0), x]), 2
    yield np.hstack([rng.choice([0.0, -0.0], size=(n, 1)), x]), 1  # one class: no draw is valid
    yield np.hstack([np.repeat([[1.0, 4.0], [2.0, 4.0]], [n - 1, 1], axis=0), x]), 2  # one unit alone


def test_redraw_rule_agrees_with_gathering_the_drawn_rows():
    rng = np.random.default_rng(17)
    seen = []
    for design, k in redraw_designs(rng):
        valid = _varies_on(design[:, :k])
        n = len(design)
        z_class = np.unique(design[:, :k], axis=0, return_inverse=True)[1]
        rows = [np.bincount(rng.integers(0, n, size=rng.integers(1, n + 1)), minlength=n) for _ in range(200)]
        rows += [np.eye(n, dtype=np.int64)[i] for i in range(n)]  # a single drawn unit
        for c in np.unique(z_class):  # every draw in one class
            rows.append(np.where(z_class == c, rng.integers(1, 4, size=n), 0))
        for counts in rows:
            got = valid(counts)
            assert got == _has_variation(design[counts > 0, :k])
            seen.append(got)
    assert len(seen) >= 1000 and 0 < sum(seen) < len(seen)


SMALL_GRAPH = GraphParams(n_eligible=120, n_ineligible=20, n_connected=200, avg_degree=2.5)
SMALL_ROLLOUT = RolloutParams((1, 2), (0.0, 0.6))


def test_estimate_within_three_bootstrap_ses_of_truth_without_interference():
    dgp = DgpParams(beta=1.0, gamma=0.0, rho=0.0, sigma=0.5, baseline_mean=5.0, baseline_sd=1.0)
    d = simulate_experiment(SMALL_GRAPH, dgp, SMALL_ROLLOUT, T=8, seed=21, pre_period_end=1)
    truth = ground_truth_tte(d.graph, dgp, T=8)
    est = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(200, seed=3))
    se = (est.ci_high - est.ci_low) / 3.92
    assert abs(est.point - truth) <= 3 * se


def test_mean_bias_within_three_mc_ses_when_gamma_zero():
    dgp = DgpParams(beta=1.0, gamma=0.0, rho=0.0, sigma=0.5, baseline_mean=5.0, baseline_sd=1.0)
    bias = []
    for rep in range(200):
        d = simulate_experiment(SMALL_GRAPH, dgp, SMALL_ROLLOUT, T=8, seed=1000 + rep, pre_period_end=1)
        truth = ground_truth_tte(d.graph, dgp, T=8)
        est = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(1, seed=0))
        bias.append(est.point - truth)
    bias = np.asarray(bias)
    assert abs(bias.mean()) <= 3 * bias.std(ddof=1) / np.sqrt(len(bias))


def test_expectation_falls_below_truth_under_positive_spillover():
    # control units absorb positive spillover, shrinking the contrast
    dgp = DgpParams(beta=1.0, gamma=2.0, rho=0.0, sigma=0.2, baseline_mean=5.0, baseline_sd=1.0)
    bias = []
    for rep in range(60):
        d = simulate_experiment(SMALL_GRAPH, dgp, SMALL_ROLLOUT, T=8, seed=2000 + rep, pre_period_end=1)
        truth = ground_truth_tte(d.graph, dgp, T=8)
        est = estimate_basic(d, learner=OLS, bootstrap=BootstrapConfig(1, seed=0))
        bias.append(est.point - truth)
    bias = np.asarray(bias)
    assert bias.mean() < 0
    assert bias.mean() < -2 * bias.std(ddof=1) / np.sqrt(len(bias))
