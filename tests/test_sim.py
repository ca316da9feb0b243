import warnings

import numpy as np
import pytest

from interference_lab.core import BipartiteGraph, TreatmentPanel, validate_dataset
from interference_lab.sim import (
    DgpParams,
    GraphParams,
    RolloutParams,
    assign_staggered_rollout,
    generate_graph,
    ground_truth_tte,
    simulate_experiment,
    simulate_outcomes,
)
from reference_oracle import simulated_tte


def line_graph(degrees, n_ineligible=0, weights=None):
    """Hand-built graph where eligible unit i+1 has its own `degrees[i]` connected units."""
    edge_t, edge_c = [], []
    next_c = 1
    for i, deg in enumerate(degrees):
        for _ in range(deg):
            edge_t.append(i + 1)
            edge_c.append(next_c)
            next_c += 1
    n = len(degrees) + n_ineligible
    return BipartiteGraph(
        treatment_ids=np.arange(1, n + 1),
        eligible=np.arange(n) < len(degrees),
        connected_ids=np.arange(1, next_c),
        edge_treatment=edge_t,
        edge_connected=edge_c,
        edge_weight=np.ones(len(edge_t)) if weights is None else weights,
    )


def test_single_possible_topology():
    g = generate_graph(GraphParams(n_eligible=1, n_ineligible=0, n_connected=1, avg_degree=1.0), seed=0)
    assert g.edge_treatment.tolist() == [1]
    assert g.edge_connected.tolist() == [1]
    assert g.eligible.tolist() == [True]


def test_generated_graph_is_valid_and_deterministic():
    gp = GraphParams(n_eligible=40, n_ineligible=10, n_connected=60, avg_degree=3.0)
    a = generate_graph(gp, seed=5)
    b = generate_graph(gp, seed=5)
    assert np.array_equal(a.edge_treatment, b.edge_treatment)
    assert np.array_equal(a.edge_connected, b.edge_connected)
    assert np.array_equal(a.edge_weight, b.edge_weight)
    assert (a.degrees() >= 1).all()
    c = generate_graph(gp, seed=6)
    assert not np.array_equal(a.edge_connected, c.edge_connected)


def test_empirical_mean_degree_over_50_seeds():
    # Poisson(3) redrawn into [1, n_connected]; mean over seeds must sit in [2.4, 3.6]
    gp = GraphParams(n_eligible=100, n_ineligible=0, n_connected=500, avg_degree=3.0)
    means = [generate_graph(gp, seed=s).degrees().mean() for s in range(50)]
    assert 2.4 <= np.mean(means) <= 3.6


def test_lognormal_weights():
    gp = GraphParams(
        n_eligible=30, n_connected=50, avg_degree=2.0, weight_mode="lognormal", weight_mu=0.0, weight_sd=0.5
    )
    g = generate_graph(gp, seed=1)
    assert (g.edge_weight > 0).all()
    assert len(np.unique(g.edge_weight)) > 1


def test_rollout_all_zero_and_all_one():
    zeros = assign_staggered_rollout(5, 4, RolloutParams((1,), (0.0,)), seed=0)
    assert zeros.assignments.max() == 0
    ones = assign_staggered_rollout(5, 4, RolloutParams((1,), (1.0,)), seed=0)
    assert ones.assignments.min() == 1
    assert ones.design_tag == "staggered"


def test_rollout_two_stage_fractions():
    # binomial SE at n=10000 is 0.004-0.005; 0.02 is a 4+ sigma bound
    rp = RolloutParams((1, 5), (0.2, 0.5))
    panel = assign_staggered_rollout(10000, 8, rp, seed=3)
    frac = panel.assignments.mean(axis=0)
    assert abs(frac[0] - 0.2) < 0.02
    assert abs(frac[7] - 0.5) < 0.02
    assert np.all(np.diff(panel.assignments, axis=1) >= 0)


def test_rollout_boundaries_must_fit_horizon():
    with pytest.raises(ValueError, match="within 1..T"):
        assign_staggered_rollout(5, 3, RolloutParams((1, 4), (0.2, 0.5)), seed=0)


def test_rollout_params_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        RolloutParams((1, 2), (0.5, 0.2))
    with pytest.raises(ValueError, match="increasing"):
        RolloutParams((2, 2), (0.2, 0.5))


def test_constant_outcomes_when_all_effects_off():
    g = line_graph([1, 2])
    p = DgpParams(beta=0.0, gamma=0.0, rho=0.0, sigma=0.0, baseline_mean=4.0, baseline_sd=1.0)
    panel = TreatmentPanel(np.ones((2, 5), dtype=np.int8), design_tag="fixed")
    y = simulate_outcomes(g, panel, p, seed=2).outcomes
    for t in range(1, 6):
        np.testing.assert_allclose(y[:, t], y[:, 0], atol=1e-12)


def test_single_edge_direct_effect():
    g = line_graph([1])
    p = DgpParams(beta=2.0, gamma=0.0, rho=0.0, sigma=0.0, baseline_mean=1.0, baseline_sd=0.5)
    a = np.array([[0, 1, 1, 1]], dtype=np.int8)
    y = simulate_outcomes(g, TreatmentPanel(a), p, seed=4).outcomes[0]
    assert y[1] == pytest.approx(y[0])  # untreated at t=1
    for t in (2, 3, 4):
        assert y[t] == pytest.approx(y[0] + 2.0)


def test_interference_through_shared_connected_unit():
    # units 1 and 2 both serve connected unit 1; treating unit 2 moves unit 1 by gamma/2
    g = BipartiteGraph(
        treatment_ids=[1, 2],
        eligible=[True, True],
        connected_ids=[1],
        edge_treatment=[1, 2],
        edge_connected=[1, 1],
        edge_weight=[1.0, 1.0],
    )
    p = DgpParams(beta=0.0, gamma=1.0, rho=0.0, sigma=0.0, baseline_mean=3.0, baseline_sd=1.0)
    a = np.array([[0, 0, 0], [1, 1, 1]], dtype=np.int8)
    y = simulate_outcomes(g, TreatmentPanel(a, design_tag="fixed"), p, seed=9).outcomes
    assert y[0, 1] == pytest.approx(y[0, 0] + 0.5)
    assert y[0, 2] == pytest.approx(y[0, 0] + 0.5)


def test_connected_unit_without_edges_simulates_without_warning():
    # connected unit 3 has no edges, so its treated fraction would be 0/0
    g = BipartiteGraph(
        treatment_ids=[1, 2],
        eligible=[True, True],
        connected_ids=[1, 2, 3],
        edge_treatment=[1, 2],
        edge_connected=[1, 2],
        edge_weight=[1.0, 1.0],
    )
    p = DgpParams(beta=1.0, gamma=2.0, rho=0.3, sigma=0.5, baseline_mean=3.0, baseline_sd=1.0)
    a = np.array([[0, 1, 1], [0, 0, 1]], dtype=np.int8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = simulate_outcomes(g, TreatmentPanel(a), p, seed=5).outcomes
    assert y.shape == (2, 4)
    assert np.isfinite(y).all()


def test_no_interference_reduction_when_gamma_zero():
    g = generate_graph(GraphParams(n_eligible=8, n_connected=12, avg_degree=2.0), seed=1)
    p = DgpParams(beta=1.5, gamma=0.0, rho=0.4, sigma=0.7, baseline_mean=2.0, baseline_sd=1.0)
    a = np.zeros((8, 6), dtype=np.int8)
    a[0, 2:] = 1
    base = simulate_outcomes(g, TreatmentPanel(a), p, seed=11).outcomes
    b = a.copy()
    b[3, 1:] = 1  # toggle another unit's row
    toggled = simulate_outcomes(g, TreatmentPanel(b), p, seed=11).outcomes
    keep = np.arange(8) != 3
    np.testing.assert_array_equal(base[keep], toggled[keep])
    assert not np.array_equal(base[3], toggled[3])


def test_ineligible_rows_must_stay_control():
    g = line_graph([1, 1], n_ineligible=1)
    p = DgpParams()
    a = np.zeros((3, 3), dtype=np.int8)
    a[2, :] = 1  # ineligible unit treated
    with pytest.raises(ValueError, match="ineligible"):
        simulate_outcomes(g, TreatmentPanel(a, design_tag="fixed"), p, seed=0)


def test_unknown_edge_endpoint_raises_instead_of_simulating():
    # Treatment id 99 is no unit: clamped onto the last unit, its edge would add 1.0 to unit 2's outcome.
    g = BipartiteGraph(
        treatment_ids=[1, 2],
        eligible=[True, True],
        connected_ids=[1],
        edge_treatment=[1, 2, 99],
        edge_connected=[1, 1, 1],
        edge_weight=[1.0, 1.0, 1.0],
    )
    p = DgpParams(beta=1.0, sigma=0.0, baseline_sd=0.0)
    w = TreatmentPanel(np.array([[0], [1]], dtype=np.int8), design_tag="fixed")
    with pytest.raises(ValueError, match="graph has edges referencing unknown units"):
        simulate_outcomes(g, w, p, seed=0)
    with pytest.raises(ValueError, match="graph has edges referencing unknown units"):
        ground_truth_tte(g, p, T=1)
    with pytest.raises(ValueError, match="graph has edges referencing unknown units"):
        g.degrees()


def test_ground_truth_zero_when_no_effects():
    g = line_graph([1, 2, 3])
    p = DgpParams(beta=0.0, gamma=0.0, rho=0.0, sigma=0.0, baseline_mean=1.0, baseline_sd=1.0)
    assert ground_truth_tte(g, p, T=4) == 0.0


def test_ground_truth_equals_beta_times_mean_degree():
    g = line_graph([1, 2, 3])
    p = DgpParams(beta=1.5, gamma=0.0, rho=0.0, sigma=0.0, baseline_mean=1.0, baseline_sd=1.0)
    assert ground_truth_tte(g, p, T=6) == pytest.approx(1.5 * 2.0, abs=1e-12)


def test_ground_truth_geometric_accumulation():
    g = line_graph([1, 2, 3])
    rho, beta, T = 0.5, 2.0, 12
    p = DgpParams(beta=beta, gamma=0.0, rho=rho, sigma=0.0, baseline_mean=0.0, baseline_sd=1.0)
    expected = beta * 2.0 * (1 - rho**T) / (1 - rho)
    assert ground_truth_tte(g, p, T=T) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(beta * 2.0 / (1 - rho), rel=1e-3)  # near equilibrium


def test_ground_truth_exact_with_common_random_numbers_and_noise():
    g = line_graph([2, 2])
    p = DgpParams(beta=1.0, gamma=0.5, rho=0.2, sigma=1.0, baseline_mean=1.0, baseline_sd=1.0)
    a = ground_truth_tte(g, p, T=5)
    # noise cancels exactly under common random numbers for a linear recursion
    assert a == pytest.approx(simulated_tte(g, p, T=5, seed=7, n_reps=2), rel=1e-12)
    p0 = DgpParams(beta=1.0, gamma=0.5, rho=0.2, sigma=0.0, baseline_mean=1.0, baseline_sd=1.0)
    assert a == ground_truth_tte(g, p0, T=5)


def random_oracle_case(seed):
    """A small random graph and DGP; rho cycles through negative, zero and positive, T includes 1."""
    rg = np.random.default_rng(seed)
    n_connected = int(rg.integers(1, 15))
    gp = GraphParams(
        n_eligible=int(rg.integers(1, 12)),
        n_ineligible=int(rg.integers(0, 4)),
        n_connected=n_connected,
        avg_degree=float(rg.uniform(0.5, min(3.0, n_connected))),
        weight_mode=("unit", "lognormal")[seed % 2],
        weight_sd=0.7,
    )
    p = DgpParams(
        beta=float(rg.normal()),
        gamma=float(rg.normal(0.0, 2.0)),
        rho=(-0.6, 0.0, 0.45)[seed % 3],
        sigma=(0.0, 0.8)[seed % 4 // 2],
        baseline_mean=float(rg.normal(0.0, 3.0)),
        baseline_sd=1.0,
    )
    return generate_graph(gp, seed=seed), p, 1 + seed % 7


def test_closed_form_truth_matches_simulated_reference_on_random_graphs():
    ineligible = lognormal = 0
    for seed in range(240):
        g, p, T = random_oracle_case(seed)
        ineligible += not g.eligible.all()
        lognormal += not (g.edge_weight == 1).all()
        want = simulated_tte(g, p, T, seed=seed, n_reps=1)
        assert ground_truth_tte(g, p, T) == pytest.approx(want, rel=1e-12, abs=1e-13), seed
    assert ineligible > 50 and lognormal > 100


@pytest.mark.parametrize("T", [1, 2, 7])
@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.3])
def test_closed_form_truth_with_an_edgeless_connected_unit_and_an_ineligible_unit(T, rho):
    # connected unit 4 has no edges; unit 3 is ineligible but dilutes the spillover on connected unit 3
    g = BipartiteGraph(
        treatment_ids=[1, 2, 3],
        eligible=[True, True, False],
        connected_ids=[1, 2, 3, 4],
        edge_treatment=[1, 1, 2, 3],
        edge_connected=[1, 3, 2, 3],
        edge_weight=[0.5, 2.0, 1.5, 1.0],
    )
    p = DgpParams(beta=1.2, gamma=-0.7, rho=rho, sigma=0.4, baseline_mean=2.0, baseline_sd=1.0)
    want = simulated_tte(g, p, T, seed=3, n_reps=2)
    assert ground_truth_tte(g, p, T) == pytest.approx(want, rel=1e-12)
    growth = sum(rho**k for k in range(T))
    unit_1 = 0.5 * (1.2 - 0.7) + 2.0 * (1.2 - 0.7 * 0.5)
    unit_2 = 1.5 * (1.2 - 0.7)
    assert ground_truth_tte(g, p, T) == pytest.approx(growth * (unit_1 + unit_2) / 2, rel=1e-12)


def test_ground_truth_rejects_an_empty_horizon():
    g = line_graph([1, 2])
    for T in (0, -3):
        with pytest.raises(ValueError, match="T must be >= 1"):
            ground_truth_tte(g, DgpParams(beta=1.0), T=T)


def unit_targets(g):
    return np.split(g.edge_connected, np.cumsum(g.degrees().astype(int))[:-1])


@pytest.mark.parametrize("n_connected, avg_degree", [(1, 1.0), (3, 3.0), (6, 2.0), (40, 5.0)])
def test_graph_targets_are_distinct_connected_units(n_connected, avg_degree):
    gp = GraphParams(n_eligible=60, n_ineligible=15, n_connected=n_connected, avg_degree=avg_degree)
    for seed in range(5):
        g = generate_graph(gp, seed=seed)
        assert np.array_equal(g.edge_treatment, np.repeat(g.treatment_ids, g.degrees().astype(int)))
        for targets in unit_targets(g):
            assert 1 <= targets.size <= n_connected
            assert (np.diff(targets) > 0).all()  # sorted, hence distinct
            assert 1 <= targets[0] and targets[-1] <= n_connected


def test_full_degree_unit_takes_every_connected_unit():
    g = generate_graph(GraphParams(n_eligible=200, n_connected=4, avg_degree=3.5), seed=8)
    full = [targets for targets in unit_targets(g) if targets.size == 4]
    assert len(full) > 10
    for targets in full:
        assert targets.tolist() == [1, 2, 3, 4]


def test_degree_two_target_pairs_are_uniform():
    # 15 pairs of 6 connected units; 0.001 upper quantile of chi-square with 14 degrees of freedom
    gp = GraphParams(n_eligible=50, n_connected=6, avg_degree=2.0)
    counts = np.zeros((6, 6))
    for seed in range(100):
        for targets in unit_targets(generate_graph(gp, seed=seed)):
            if targets.size == 2:
                counts[targets[0] - 1, targets[1] - 1] += 1
    observed = counts[np.triu_indices(6, k=1)]
    expected = observed.sum() / 15
    assert observed.sum() > 1000
    assert ((observed - expected) ** 2 / expected).sum() < 36.12


def test_simulate_experiment_produces_valid_dataset():
    d = simulate_experiment(
        GraphParams(n_eligible=15, n_ineligible=5, n_connected=30, avg_degree=2.0),
        DgpParams(beta=1.0, sigma=0.2),
        RolloutParams((2, 4), (0.3, 0.6)),
        T=6,
        seed=3,
    )
    assert validate_dataset(d) == []
    assert d.pre_period_end == 1
    assert d.n_units == 15


def test_simulate_outcomes_deterministic():
    gp = GraphParams(n_eligible=10, n_connected=15, avg_degree=2.0)
    g = generate_graph(gp, seed=2)
    p = DgpParams(beta=1.0, gamma=0.3, rho=0.1, sigma=0.5, baseline_mean=0.0, baseline_sd=1.0)
    panel = assign_staggered_rollout(10, 5, RolloutParams((1,), (0.5,)), seed=4)
    y1 = simulate_outcomes(g, panel, p, seed=6).outcomes
    y2 = simulate_outcomes(g, panel, p, seed=6).outcomes
    np.testing.assert_array_equal(y1, y2)


def test_dgp_params_validation():
    with pytest.raises(ValueError, match="rho"):
        DgpParams(rho=1.0)
    with pytest.raises(ValueError, match="sigma"):
        DgpParams(sigma=-0.1)
    with pytest.raises(ValueError, match="avg_degree"):
        GraphParams(n_eligible=5, n_connected=3, avg_degree=4.0)
