import dataclasses

import numpy as np
import pytest

from interference_lab.core import (
    AllocationScenario,
    BootstrapConfig,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
    validate_dataset,
)
from interference_lab.est_cmp import (
    CmpConfig,
    StateEvolutionModel,
    StateFeatures,
    build_features,
    counterfactual_evolution,
    estimate_tte_cmp,
    fit_state_evolution,
    network_bootstrap,
    stack_features,
)
from interference_lab.regress import LearnerConfig, RidgeModel, predict
from interference_lab.rng import substream
from interference_lab.sim import DgpParams, GraphParams, RolloutParams, generate_graph, simulate_experiment

TINY = LearnerConfig(lambda_grid=(1e-8, 1e-6))


def panel_dataset(outcomes, assignments, design="free", pre_period_end=0):
    return ExperimentDataset(
        outcomes=OutcomePanel(outcomes),
        treatments=TreatmentPanel(np.asarray(assignments, dtype=np.int8), design_tag=design),
        pre_period_end=pre_period_end,
    )


def features_table(table, targets, baseline_mean, final_moments=(0.0, 0.0), moment_order=2, transitions=None):
    table = np.asarray(table, float)
    return StateFeatures(
        table=table,
        targets=np.asarray(targets, float),
        columns=("mean", "var", "p_next", "mean_x_p_next"),
        moment_order=moment_order,
        baseline_mean=baseline_mean,
        final_moments=np.asarray(final_moments, float),
        transition_index=np.arange(len(table)) if transitions is None else np.asarray(transitions, int),
    )


def test_build_features_constant_untreated_panel():
    d = panel_dataset(np.full((4, 4), 2.0), np.zeros((4, 3)))
    f = build_features(d)
    assert f.columns == ("mean", "var", "p_next", "mean_x_p_next")
    np.testing.assert_allclose(f.table[:, 0], 2.0)
    np.testing.assert_allclose(f.table[:, 1], 0.0)
    np.testing.assert_allclose(f.table[:, 2], 0.0)
    np.testing.assert_allclose(f.targets, 2.0)
    assert f.baseline_mean == 2.0


def test_build_features_two_unit_example():
    # outcomes {1, 3} at t=0, both units treated at t=1
    y = np.array([[1.0, 2.0, 2.0], [3.0, 4.0, 4.0]])
    w = np.array([[1, 1], [1, 1]])
    f = build_features(panel_dataset(y, w))
    assert f.table[0, 0] == pytest.approx(2.0)  # mean
    assert f.table[0, 1] == pytest.approx(1.0)  # population variance
    assert f.table[0, 2] == pytest.approx(1.0)  # treated fraction at t=1
    assert f.table[0, 3] == pytest.approx(2.0)  # interaction as stored
    assert f.targets[0] == pytest.approx(3.0)


def test_build_features_matches_column_mean_oracle():
    d = simulate_experiment(
        GraphParams(n_eligible=30, n_connected=50, avg_degree=2.0),
        DgpParams(beta=1.0, gamma=0.5, rho=0.2, sigma=0.4, baseline_mean=3.0, baseline_sd=1.0),
        RolloutParams((1, 3), (0.3, 0.7)),
        T=6,
        seed=13,
    )
    f = build_features(d)
    y = d.outcomes.outcomes
    np.testing.assert_allclose(f.table[:, 0], y[:, :-1].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(f.targets, y[:, 1:].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(f.table[:, 1], y[:, :-1].var(axis=0), atol=1e-12)


def test_build_features_requires_two_transitions():
    with pytest.raises(ValueError, match="transitions"):
        build_features(panel_dataset(np.zeros((3, 2)), np.zeros((3, 1))))


def test_moment_order_three_adds_column():
    d = panel_dataset(np.random.default_rng(0).normal(size=(6, 4)), np.zeros((6, 3)))
    f = build_features(d, moment_order=3)
    assert f.columns == ("mean", "var", "m3", "p_next", "mean_x_p_next")
    assert f.table.shape[1] == 5


def test_fit_recovers_known_linear_map():
    # m' = 0.5 m + 1.0 p over 20 transitions with rich p variation
    rng = np.random.default_rng(4)
    m, rows, targets = 1.0, [], []
    for _ in range(20):
        p = float(rng.uniform())
        nxt = 0.5 * m + 1.0 * p
        rows.append([m, 0.3, p, m * p])
        targets.append(nxt)
        m = nxt
    f = features_table(rows, targets, baseline_mean=1.0)
    model = fit_state_evolution(f, TINY)
    coef = model.model.coefficients
    assert coef[0] == pytest.approx(0.5, abs=1e-4)
    assert coef[2] == pytest.approx(1.0, abs=1e-4)
    assert abs(coef[3]) < 1e-4
    assert model.model.intercept == pytest.approx(0.0, abs=1e-4)


def test_zero_variance_target_gives_flat_model():
    rng = np.random.default_rng(5)
    rows = [[rng.uniform(0, 4), 0.2, rng.uniform(), 0.0] for _ in range(12)]
    f = features_table(rows, [3.0] * 12, baseline_mean=2.0)
    model = fit_state_evolution(f, TINY)
    np.testing.assert_allclose(model.model.coefficients, 0.0, atol=1e-6)
    assert model.model.intercept == pytest.approx(3.0, abs=1e-8)


def test_identity_dynamics_recovered():
    rng = np.random.default_rng(6)
    rows, targets = [], []
    for level in (1.0, 2.0, 5.0):
        for _ in range(8):
            p = float(rng.uniform())
            rows.append([level, 0.5, p, level * p])
            targets.append(level)
    f = features_table(rows, targets, baseline_mean=2.0)
    model = fit_state_evolution(f, TINY)
    coef = model.model.coefficients
    assert coef[0] == pytest.approx(1.0, abs=1e-4)
    assert abs(coef[2]) < 1e-4 and abs(coef[3]) < 1e-4


def manual_model(coefficients, intercept, center=0.0, context=(0.0, 0.0)):
    return StateEvolutionModel(
        model=RidgeModel(np.asarray(coefficients, float), intercept, 0.0),
        columns=("mean", "var", "p_next", "mean_x_p_next"),
        moment_order=2,
        lam=0.0,
        interaction_center=center,
        context_moments=np.asarray(context, float),
    )


def test_per_period_fit_recovers_time_varying_maps():
    # transition 0: m' = m + 1.0 p; transition 1: m' = m + 2.0 p
    rng = np.random.default_rng(9)
    rows, targets, transitions = [], [], []
    for t, slope in enumerate((1.0, 2.0)):
        for _ in range(10):
            m, p = float(rng.uniform(0, 4)), float(rng.uniform(0.2, 1.0))
            rows.append([m, 0.1, p, m * p])
            targets.append(m + slope * p)
            transitions.append(t)
    f = features_table(rows, targets, baseline_mean=2.0, transitions=transitions)
    model = fit_state_evolution(f, TINY, time_homogeneous=False)
    assert model.period_models is not None and len(model.period_models) == 2
    assert model.period_models[0].coefficients[2] == pytest.approx(1.0, abs=1e-3)
    assert model.period_models[1].coefficients[2] == pytest.approx(2.0, abs=1e-3)
    traj = counterfactual_evolution(model, 0.0, AllocationScenario.ALL_TREATED, T=2)
    assert traj.final_mean == pytest.approx(3.0, abs=1e-3)
    with pytest.raises(ValueError, match="cannot recurse"):
        counterfactual_evolution(model, 0.0, AllocationScenario.ALL_TREATED, T=3)


def test_per_period_fit_rejects_single_row_transitions():
    from interference_lab.regress import DegenerateDesignError

    rows = [[1.0, 0.1, 0.5, 0.5], [2.0, 0.1, 0.6, 1.2]]
    f = features_table(rows, [1.5, 2.5], baseline_mean=1.0, transitions=[0, 1])
    with pytest.raises(DegenerateDesignError, match="single-row"):
        fit_state_evolution(f, TINY, time_homogeneous=False)


def test_per_period_estimate_runs_end_to_end():
    d = simulate_experiment(
        GraphParams(n_eligible=60, n_connected=90, avg_degree=2.0),
        DgpParams(beta=1.0, gamma=0.0, rho=0.0, sigma=0.2, baseline_mean=4.0, baseline_sd=1.0),
        RolloutParams((1, 3), (0.3, 0.6)),
        T=6,
        seed=53,
    )
    cfg = CmpConfig(n_subpopulations=6, learner=TINY, time_homogeneous=False, seed=3)
    est = estimate_tte_cmp(d, cfg, BootstrapConfig(15, seed=4))
    assert np.isfinite(est.point)


def test_identity_model_is_fixed_point():
    model = manual_model([1.0, 0.0, 0.0, 0.0], 0.0)
    for allocation in AllocationScenario:
        traj = counterfactual_evolution(model, 3.7, allocation, T=9)
        np.testing.assert_allclose(traj.means, 3.7)


def test_additive_treatment_model_accumulates():
    # f(m, p) = m + 0.5 p from m0=0: all-treated reaches 2.0 at T=4
    model = manual_model([1.0, 0.0, 0.5, 0.0], 0.0)
    traj = counterfactual_evolution(model, 0.0, AllocationScenario.ALL_TREATED, T=4)
    assert traj.means.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert traj.final_mean == pytest.approx(2.0)
    zero = counterfactual_evolution(model, 0.0, AllocationScenario.ALL_CONTROL, T=4)
    np.testing.assert_allclose(zero.means, 0.0)


def test_divergent_recursion_reports_period():
    model = manual_model([1e300, 0.0, 0.0, 0.0], 0.0)
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="period 2"):
        counterfactual_evolution(model, 1.0, AllocationScenario.ALL_TREATED, T=5)


def linear_map_dataset(n_units=40, T=30, a=1.0, r=0.6, b=2.0, m0=5.0):
    """Identical units following m' = a + r m + b p with a rich treated-fraction path."""
    p_path = [((t * 7) % 11) / 10.0 for t in range(1, T + 1)]
    m = np.empty(T + 1)
    m[0] = m0
    for t in range(1, T + 1):
        m[t] = a + r * m[t - 1] + b * p_path[t - 1]
    outcomes = np.tile(m, (n_units, 1))
    w = np.zeros((n_units, T), dtype=np.int8)
    for t, p in enumerate(p_path):
        w[: int(round(p * n_units)), t] = 1
    return panel_dataset(outcomes, w), b * (1 - r**T) / (1 - r)


def test_linear_state_evolution_matches_analytic_tte():
    d, analytic = linear_map_dataset()
    assert validate_dataset(d) == []
    est = estimate_tte_cmp(
        d,
        config=CmpConfig(n_subpopulations=4, learner=TINY, seed=1),
        bootstrap=BootstrapConfig(20, seed=2),
    )
    assert est.point == pytest.approx(analytic, abs=1e-3)


def test_zero_effect_data_estimates_zero():
    d = simulate_experiment(
        GraphParams(n_eligible=60, n_connected=90, avg_degree=2.0),
        DgpParams(beta=0.0, gamma=0.0, rho=0.0, sigma=0.0, baseline_mean=4.0, baseline_sd=1.0),
        RolloutParams((1, 3), (0.3, 0.6)),
        T=6,
        seed=23,
    )
    est = estimate_tte_cmp(
        d, config=CmpConfig(n_subpopulations=5, learner=TINY, seed=3), bootstrap=BootstrapConfig(20, seed=4)
    )
    assert abs(est.point) < 1e-6


def test_graph_blindness_exact():
    d = simulate_experiment(
        GraphParams(n_eligible=40, n_ineligible=10, n_connected=60, avg_degree=2.0),
        DgpParams(beta=1.0, gamma=0.8, rho=0.2, sigma=0.5, baseline_mean=3.0, baseline_sd=1.0),
        RolloutParams((1, 3), (0.3, 0.6)),
        T=8,
        seed=29,
    )
    cfg = CmpConfig(n_subpopulations=5, learner=TINY, seed=7)
    bs = BootstrapConfig(30, seed=8)
    with_graph = estimate_tte_cmp(d, cfg, bs)
    without_graph = estimate_tte_cmp(dataclasses.replace(d, graph=None), cfg, bs)
    other = generate_graph(GraphParams(n_eligible=40, n_ineligible=3, n_connected=25, avg_degree=3.0), seed=99)
    random_graph = estimate_tte_cmp(dataclasses.replace(d, graph=other), cfg, bs)
    assert with_graph == without_graph == random_graph


def test_network_bootstrap_partitions_units():
    d = simulate_experiment(
        GraphParams(n_eligible=10, n_connected=15, avg_degree=2.0),
        DgpParams(sigma=0.3, baseline_sd=1.0),
        RolloutParams((1,), (0.5,)),
        T=4,
        seed=31,
    )
    subs = network_bootstrap(d, 2, seed=5)
    assert [s.n_units for s in subs] == [5, 5]
    pooled = np.vstack([s.outcomes.outcomes for s in subs])
    original = d.outcomes.outcomes
    order = np.lexsort(pooled.T)
    order_orig = np.lexsort(original.T)
    np.testing.assert_array_equal(pooled[order], original[order_orig])
    for s in subs:
        assert s.graph is None
        assert s.pre_period_end == d.pre_period_end
        assert s.n_periods == d.n_periods


def test_network_bootstrap_deterministic_per_seed():
    d = simulate_experiment(
        GraphParams(n_eligible=24, n_connected=30, avg_degree=2.0),
        DgpParams(sigma=0.5, baseline_sd=1.0),
        RolloutParams((1, 2), (0.3, 0.6)),
        T=4,
        seed=37,
    )
    a = network_bootstrap(d, 3, seed=11)
    b = network_bootstrap(d, 3, seed=11)
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s.outcomes.outcomes, t.outcomes.outcomes)
        np.testing.assert_array_equal(s.treatments.assignments, t.treatments.assignments)


def test_network_bootstrap_stratum_sizes_and_balance():
    d = simulate_experiment(
        GraphParams(n_eligible=203, n_connected=300, avg_degree=2.5),
        DgpParams(beta=1.0, sigma=0.5, baseline_mean=5.0, baseline_sd=2.0),
        RolloutParams((1, 3), (0.3, 0.6)),
        T=5,
        seed=41,
    )
    k = 4
    subs = network_bootstrap(d, k, seed=13)

    # reconstruct each row's stratum from the original dataset
    baseline = d.outcomes.outcomes[:, 0]
    ranks = np.empty(len(baseline), dtype=int)
    ranks[np.argsort(baseline, kind="stable")] = np.arange(len(baseline))
    quartile = (ranks * 4) // len(baseline)
    a = d.treatments.assignments
    stage = np.where(a.any(axis=1), a.argmax(axis=1) + 1, d.n_periods + 1)
    key_of = {}
    for i in range(d.n_units):
        key_of[tuple(d.outcomes.outcomes[i]) + tuple(a[i])] = (quartile[i], stage[i])

    counts = []
    for s in subs:
        from collections import Counter

        cnt = Counter(
            key_of[tuple(row) + tuple(wrow)]
            for row, wrow in zip(s.outcomes.outcomes, s.treatments.assignments)
        )
        counts.append(cnt)
    strata = set().union(*counts)
    for stratum in strata:
        per_sub = [c.get(stratum, 0) for c in counts]
        assert max(per_sub) - min(per_sub) <= 1

    pooled_sd = baseline.std()
    for s in subs:
        assert abs(s.outcomes.outcomes[:, 0].mean() - baseline.mean()) < 0.5 * pooled_sd


def test_network_bootstrap_preconditions():
    d = simulate_experiment(
        GraphParams(n_eligible=6, n_connected=8, avg_degree=2.0),
        DgpParams(sigma=0.1),
        RolloutParams((1,), (0.5,)),
        T=3,
        seed=43,
    )
    with pytest.raises(ValueError, match="at least 2"):
        network_bootstrap(d, 1, seed=0)
    with pytest.raises(ValueError, match="N >="):
        network_bootstrap(d, 4, seed=0)


@pytest.mark.parametrize("gamma", [-3.0, 0.0, 1.5])
def test_sign_agreement_with_network_across_spillover_signs(gamma):
    from interference_lab.est_network import estimate_network

    gp = GraphParams(n_eligible=300, n_ineligible=50, n_connected=450, avg_degree=3.0)
    dgp = DgpParams(beta=1.0, gamma=gamma, rho=0.2, sigma=0.5, baseline_mean=5.0, baseline_sd=1.5)
    rp = RolloutParams((2, 4), (0.3, 0.6))
    agree = []
    for rep in range(40):
        d = simulate_experiment(gp, dgp, rp, T=12, seed=6000 + rep, pre_period_end=1)
        cmp_pt = estimate_tte_cmp(
            d, CmpConfig(n_subpopulations=6, learner=TINY, seed=1), BootstrapConfig(1, seed=2)
        ).point
        net_est, _ = estimate_network(
            d, learner=LearnerConfig(lambda_grid=(1e-8,)), bootstrap=BootstrapConfig(1, seed=2)
        )
        net_pt = net_est.point
        agree.append(np.sign(cmp_pt) == np.sign(net_pt))
    assert np.mean(agree) >= 0.9


def test_estimate_tte_cmp_deterministic():
    d = simulate_experiment(
        GraphParams(n_eligible=30, n_connected=45, avg_degree=2.0),
        DgpParams(beta=1.0, gamma=0.5, rho=0.2, sigma=0.4, baseline_mean=3.0, baseline_sd=1.0),
        RolloutParams((1, 3), (0.3, 0.6)),
        T=8,
        seed=47,
    )
    cfg = CmpConfig(n_subpopulations=5, learner=TINY, seed=2)
    a = estimate_tte_cmp(d, cfg, BootstrapConfig(25, seed=3))
    b = estimate_tte_cmp(d, cfg, BootstrapConfig(25, seed=3))
    assert a == b
    assert a.method == "cmp"


def loop_partition(d, k, seed):
    """Reference for `network_bootstrap`: the per-stratum, per-unit round-robin deal."""
    n = d.n_units
    baseline = d.outcomes.outcomes[:, 0]
    ranks = np.empty(n, dtype=int)
    ranks[np.argsort(baseline, kind="stable")] = np.arange(n)
    quartile = (ranks * 4) // n
    a = d.treatments.assignments
    stage = np.where(a.any(axis=1), a.argmax(axis=1) + 1, d.n_periods + 1)
    members = [[] for _ in range(k)]
    pointer = int(substream(seed, "deal-start").integers(k))
    for key in sorted(set(zip(quartile.tolist(), stage.tolist()))):
        in_stratum = np.flatnonzero((quartile == key[0]) & (stage == key[1]))
        for unit in in_stratum[np.argsort(baseline[in_stratum], kind="stable")]:
            members[pointer % k].append(int(unit))
            pointer += 1
    return [sorted(m) for m in members]


@pytest.mark.parametrize("seed", range(6))
def test_network_bootstrap_matches_round_robin_loop(seed):
    d = simulate_experiment(
        GraphParams(n_eligible=97, n_connected=120, avg_degree=2.0),
        DgpParams(sigma=0.5, baseline_sd=1.0),
        RolloutParams((1, 3), (0.3, 0.6)),
        T=5,
        seed=60 + seed,
    )
    outcomes = d.outcomes.outcomes.copy()
    if seed % 2:  # coarse baselines, so ties within a stratum fall back to unit order
        outcomes[:, 0] = np.round(outcomes[:, 0])
    # the covariate column carries each unit's index through the subsetting
    d = dataclasses.replace(
        d, outcomes=OutcomePanel(outcomes), covariates=UnitCovariates(np.arange(d.n_units, dtype=float)[:, None])
    )
    for k in (2, 3, 10):
        subs = network_bootstrap(d, k, seed=seed)
        got = [s.covariates.values[:, 0].astype(int).tolist() for s in subs]
        assert got == loop_partition(d, k, seed)


def loop_moments(values, order):
    """Reference for `build_features`: the moments of one period's column."""
    out = [values.mean()]
    if order >= 2:
        centered = values - values.mean()
        out.extend(np.mean(centered**k) for k in range(2, order + 1))
    return np.asarray(out)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_build_features_matches_per_period_moments(order):
    d = simulate_experiment(
        GraphParams(n_eligible=150, n_connected=200, avg_degree=2.0),
        DgpParams(beta=1.0, gamma=0.5, rho=0.3, sigma=0.5, baseline_mean=4.0, baseline_sd=2.0),
        RolloutParams((1, 3), (0.3, 0.6)),
        T=7,
        seed=70 + order,
    )
    f = build_features(d, order)
    y = d.outcomes.outcomes
    rows = np.stack([loop_moments(y[:, t], order) for t in range(d.n_periods + 1)])
    np.testing.assert_allclose(f.table[:, :order], rows[:-1], rtol=1e-12)
    np.testing.assert_allclose(f.final_moments, rows[-1], rtol=1e-12)
    np.testing.assert_allclose(f.targets, rows[1:, 0], rtol=1e-12)
    assert f.baseline_mean == pytest.approx(rows[0, 0], rel=1e-12)


def loop_evolution(model, baseline_mean, p, T):
    """Reference for `counterfactual_evolution`: `predict` on each step's full feature row."""
    means = [baseline_mean]
    for t in range(T):
        m = means[-1]
        row = np.concatenate([[m], model.context_moments[1:], [p, (m - model.interaction_center) * p]])
        fitted = model.model if model.period_models is None else model.period_models[t]
        means.append(float(predict(fitted, row[None, :])[0]))
    return np.asarray(means)


@pytest.mark.parametrize("time_homogeneous", [True, False])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_counterfactual_evolution_matches_predict_loop(time_homogeneous, order):
    d = simulate_experiment(
        GraphParams(n_eligible=80, n_connected=120, avg_degree=2.0),
        DgpParams(beta=1.0, gamma=0.5, rho=0.3, sigma=0.3, baseline_mean=4.0, baseline_sd=1.0),
        RolloutParams((1, 3), (0.3, 0.6)),
        T=6,
        seed=80 + order,
    )
    parts = [build_features(s, order) for s in network_bootstrap(d, 6, seed=order)]
    full = build_features(d, order)
    features = dataclasses.replace(
        stack_features(parts), baseline_mean=full.baseline_mean, final_moments=full.final_moments
    )
    model = fit_state_evolution(features, TINY, seed=order, time_homogeneous=time_homogeneous)
    assert (model.period_models is None) == time_homogeneous
    for allocation, p in ((AllocationScenario.ALL_TREATED, 1.0), (AllocationScenario.ALL_CONTROL, 0.0)):
        traj = counterfactual_evolution(model, full.baseline_mean, allocation, d.n_periods)
        np.testing.assert_allclose(traj.means, loop_evolution(model, full.baseline_mean, p, d.n_periods), rtol=1e-12)
