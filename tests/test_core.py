import dataclasses

import numpy as np
import pytest

from interference_lab import core
from interference_lab.core import (
    MAX_RESAMPLE_TRIES,
    AllocationScenario,
    BipartiteGraph,
    BootstrapConfig,
    EffectEstimate,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    bootstrap_estimate,
    datasets_equal,
    row_classes,
    validate_dataset,
)
from interference_lab.rng import substreams

import reference_kernels as ref
from conftest import small_dataset, small_graph
from reference_oracle import constant_panel
from reference_rng import substream


def test_valid_dataset_has_no_violations(dataset):
    assert validate_dataset(dataset) == []


def test_arrays_are_read_only(dataset):
    with pytest.raises(ValueError):
        dataset.outcomes.outcomes[0, 0] = 99.0
    with pytest.raises(ValueError):
        dataset.graph.edge_weight[0] = 2.0


def test_graph_canonical_order():
    g = BipartiteGraph(
        treatment_ids=[2, 1],
        eligible=[True, True],
        connected_ids=[2, 1],
        edge_treatment=[2, 1],
        edge_connected=[1, 2],
        edge_weight=[0.5, 1.5],
    )
    assert g.treatment_ids.tolist() == [1, 2]
    assert g.connected_ids.tolist() == [1, 2]
    assert g.edge_treatment.tolist() == [1, 2]
    assert g.edge_weight.tolist() == [1.5, 0.5]


def test_degrees(dataset):
    assert dataset.graph.degrees().tolist() == [1.0, 2.0, 3.0, 1.0]


def test_staggered_monotonicity_violation_names_unit_and_period():
    # unit 3 (1-based) reverts to control at t=5
    a = np.zeros((3, 6), dtype=np.int8)
    a[2, :4] = 1
    panel = TreatmentPanel(a, design_tag="staggered")
    d = ExperimentDataset(
        outcomes=OutcomePanel(np.zeros((3, 7))), treatments=panel, pre_period_end=0
    )
    violations = validate_dataset(d)
    assert len(violations) == 1
    assert "monotone" in violations[0]
    assert "unit 3" in violations[0] and "t=5" in violations[0]


def test_fixed_design_must_be_constant():
    a = np.array([[0, 1], [1, 1]], dtype=np.int8)
    d = ExperimentDataset(
        outcomes=OutcomePanel(np.zeros((2, 3))),
        treatments=TreatmentPanel(a, design_tag="fixed"),
        pre_period_end=0,
    )
    assert any("constant" in v for v in validate_dataset(d))


def test_binary_entries_checked():
    a = np.array([[0, 2]], dtype=np.int8)
    d = ExperimentDataset(
        outcomes=OutcomePanel(np.zeros((1, 3))),
        treatments=TreatmentPanel(a, design_tag="free"),
        pre_period_end=0,
    )
    assert any("binary" in v for v in validate_dataset(d))


def test_nonfinite_outcome_flagged(dataset):
    y = dataset.outcomes.outcomes.copy()
    y[0, 2] = np.nan
    mutated = dataclasses.replace(dataset, outcomes=OutcomePanel(y))
    assert any("finite" in v and "t=2" in v for v in validate_dataset(mutated))


def test_graph_edge_with_unknown_connected_unit(dataset):
    g = dataset.graph
    bad = BipartiteGraph(
        treatment_ids=g.treatment_ids,
        eligible=g.eligible,
        connected_ids=g.connected_ids,
        edge_treatment=np.append(g.edge_treatment, 1),
        edge_connected=np.append(g.edge_connected, 99),
        edge_weight=np.append(g.edge_weight, 1.0),
    )
    violations = validate_dataset(dataclasses.replace(dataset, graph=bad))
    assert any("unknown_connected_unit" in v for v in violations)


def test_graph_edges_with_unknown_treatment_unit_each_reported(dataset):
    g = dataset.graph
    bad = BipartiteGraph(
        treatment_ids=g.treatment_ids,
        eligible=g.eligible,
        connected_ids=g.connected_ids,
        edge_treatment=np.append(g.edge_treatment, [98, 99]),
        edge_connected=np.append(g.edge_connected, [1, 2]),
        edge_weight=np.append(g.edge_weight, [1.0, 1.0]),
    )
    violations = validate_dataset(dataclasses.replace(dataset, graph=bad))
    unknown = [v for v in violations if v.startswith("graph.unknown_treatment_unit")]
    assert unknown == [
        f"graph.unknown_treatment_unit: edge {g.n_edges} references id 98",
        f"graph.unknown_treatment_unit: edge {g.n_edges + 1} references id 99",
    ]


def test_duplicate_edge_flagged(dataset):
    g = dataset.graph
    bad = BipartiteGraph(
        treatment_ids=g.treatment_ids,
        eligible=g.eligible,
        connected_ids=g.connected_ids,
        edge_treatment=np.append(g.edge_treatment, 1),
        edge_connected=np.append(g.edge_connected, 1),
        edge_weight=np.append(g.edge_weight, 1.0),
    )
    violations = validate_dataset(dataclasses.replace(dataset, graph=bad))
    assert any("duplicate_edge" in v and "(1, 1)" in v for v in violations)


def unique_graph_violations(g):
    """The id and duplicate-edge messages as `np.unique` finds them, on the graph's canonical arrays."""
    out = []
    if len(np.unique(g.treatment_ids)) != g.n_treatment_units:
        out.append("graph.unit_ids: duplicate treatment unit ids")
    if len(np.unique(g.connected_ids)) != g.n_connected_units:
        out.append("graph.unit_ids: duplicate connected unit ids")
    if g.n_edges:
        pairs = np.stack([g.edge_treatment, g.edge_connected], axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        for (tid, cid), cnt in zip(uniq[counts > 1], counts[counts > 1]):
            out.append(f"graph.duplicate_edge: ({tid}, {cid}) appears {cnt} times")
    return out


@pytest.mark.parametrize("seed", range(20))
def test_duplicate_ids_and_edges_match_the_unique_formulation(seed):
    """Shuffled edge lists with repeated edges, and sometimes repeated unit ids, give the messages, in the
    order, that `np.unique` over the (treatment, connected) pairs gives."""
    rng = np.random.default_rng(seed)
    n_t, n_c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    treatment_ids = rng.permutation(np.arange(-3, n_t - 3).repeat(rng.integers(1, 3 if seed % 2 else 2, n_t)))
    connected_ids = rng.permutation(np.arange(n_c).repeat(rng.integers(1, 3 if seed % 3 else 2, n_c)))
    m = int(rng.integers(0, 30))
    et, ec = rng.choice(treatment_ids, m), rng.choice(connected_ids, m)
    g = BipartiteGraph(treatment_ids=treatment_ids, eligible=np.ones(len(treatment_ids), dtype=bool),
                       connected_ids=connected_ids, edge_treatment=et, edge_connected=ec, edge_weight=rng.random(m))
    expected = unique_graph_violations(g)
    got = [v for v in core._graph_violations(g) if v.startswith(("graph.unit_ids", "graph.duplicate_edge"))]
    assert got == expected


GRAPH_INPUTS = ("treatment_ids", "eligible", "connected_ids", "edge_treatment", "edge_connected", "edge_weight")


@pytest.mark.parametrize("seed", range(30))
def test_graph_sorts_shuffled_input_and_keeps_canonical_input(seed):
    """Edge lists with repeated edges, repeated unit ids and ids no unit has, shuffled or one adjacent swap away
    from canonical order: the graph holds the stable sorts of its input, and built again from those canonical
    arrays, which it does not re-sort, it has equal arrays and equal `_graph_violations` messages."""
    rng = np.random.default_rng(seed)
    n_t, n_c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    tid = rng.permutation(np.arange(n_t).repeat(rng.integers(1, 3, n_t)))
    cid = rng.permutation(np.arange(n_c).repeat(rng.integers(1, 3, n_c)))
    m = int(rng.integers(0, 30))
    et, ec = rng.integers(-1, n_t + 1, m), rng.integers(-1, n_c + 1, m)
    elig, ew = rng.random(len(tid)) < 0.7, rng.random(m) - 0.1
    if seed % 3 == 0 and m > 1:  # canonical but for one adjacent pair
        order = np.lexsort((ec, et))
        et, ec, ew = et[order], ec[order], ew[order]
        e = int(rng.integers(m - 1))
        for a in (et, ec, ew):
            a[[e, e + 1]] = a[[e + 1, e]]
    shuffled = BipartiteGraph(tid, elig, cid, et, ec, ew)
    unit_order, edge_order = np.argsort(tid, kind="stable"), np.lexsort((ec, et))
    want = (tid[unit_order], elig[unit_order], np.sort(cid), et[edge_order], ec[edge_order], ew[edge_order])
    for name, w in zip(GRAPH_INPUTS, want):
        np.testing.assert_array_equal(getattr(shuffled, name), w)
    canonical = BipartiteGraph(*(getattr(shuffled, name) for name in GRAPH_INPUTS))
    for name in GRAPH_INPUTS + ("edge_treatment_pos", "edge_treatment_found", "edge_connected_pos",
                                "edge_connected_found"):
        np.testing.assert_array_equal(getattr(canonical, name), getattr(shuffled, name))
    assert core._graph_violations(canonical) == core._graph_violations(shuffled)


def row_class_cases(rng):
    """2-d arrays with repeated rows: floats with -0.0 beside 0.0, int8 treatment panels, one column, one row."""
    signed = rng.choice([0.0, -0.0, 1.5, -2.0], size=(60, 3))
    yield signed
    yield signed[:, :1]
    yield signed[:1]
    yield np.hstack([rng.choice([0.0, -0.0], size=(30, 1)), np.full((30, 1), 2.0)])  # one class
    yield rng.integers(0, 2, size=(80, 6)).astype(np.int8)
    yield (np.arange(1, 21) >= rng.choice([3, 8, 21], size=300)[:, None]).astype(np.int8)
    yield rng.integers(-3, 4, size=(50, 2)).astype(float)


@pytest.mark.parametrize("seed", range(5))
def test_row_classes_match_unique_labels(seed):
    for rows in row_class_cases(np.random.default_rng(seed)):
        labels, n_classes = row_classes(rows)
        want_labels, want_classes = ref.unique_row_labels(rows)
        np.testing.assert_array_equal(labels, want_labels)
        assert n_classes == want_classes


MUTATIONS = {
    "pre_period_end_too_large": lambda d: dataclasses.replace(d, pre_period_end=4),
    "pre_period_end_negative": lambda d: dataclasses.replace(d, pre_period_end=-1),
    "outcome_rows_mismatch": lambda d: dataclasses.replace(
        d, outcomes=OutcomePanel(np.zeros((2, 5)))
    ),
    "missing_baseline_period": lambda d: dataclasses.replace(
        d, outcomes=OutcomePanel(d.outcomes.outcomes[:, :4])
    ),
    "no_eligible_units": lambda d: dataclasses.replace(
        d,
        graph=BipartiteGraph(
            treatment_ids=d.graph.treatment_ids,
            eligible=np.zeros(4, dtype=bool),
            connected_ids=d.graph.connected_ids,
            edge_treatment=d.graph.edge_treatment,
            edge_connected=d.graph.edge_connected,
            edge_weight=d.graph.edge_weight,
        ),
    ),
    "negative_edge_weight": lambda d: dataclasses.replace(
        d,
        graph=BipartiteGraph(
            treatment_ids=d.graph.treatment_ids,
            eligible=d.graph.eligible,
            connected_ids=d.graph.connected_ids,
            edge_treatment=d.graph.edge_treatment,
            edge_connected=d.graph.edge_connected,
            edge_weight=np.append(d.graph.edge_weight[:-1], -1.0),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_single_field_mutation_is_caught(name):
    d = small_dataset()
    assert validate_dataset(d) == []
    assert validate_dataset(MUTATIONS[name](d)) != []


def test_eligible_ids_must_match_panel_rows(dataset):
    shrunk = dataclasses.replace(
        dataset,
        outcomes=OutcomePanel(dataset.outcomes.outcomes[:2]),
        treatments=TreatmentPanel(dataset.treatments.assignments[:2], design_tag="staggered"),
    )
    assert any("eligible_ids" in v for v in validate_dataset(shrunk))


def test_allocation_scenarios_expand_to_constant_panels():
    ones = constant_panel(AllocationScenario.ALL_TREATED, 3, 4)
    zeros = constant_panel(AllocationScenario.ALL_CONTROL, 3, 4)
    assert ones.assignments.min() == 1 and ones.design_tag == "fixed"
    assert zeros.assignments.max() == 0
    assert validate_dataset(
        ExperimentDataset(outcomes=OutcomePanel(np.zeros((3, 5))), treatments=ones, pre_period_end=0)
    ) == []


def test_effect_estimate_invariants():
    est = EffectEstimate("basic", 1.0, 0.5, 1.5, True, 100)
    assert est.significant_5pct
    with pytest.raises(ValueError):
        EffectEstimate("basic", 2.0, 0.5, 1.5, True, 100)  # point outside CI
    with pytest.raises(ValueError):
        EffectEstimate("basic", 1.0, 0.5, 1.5, False, 100)  # flag contradicts CI
    with pytest.raises(ValueError):
        EffectEstimate("bogus", 1.0, 0.5, 1.5, True, 100)


def test_datasets_equal(dataset):
    assert datasets_equal(dataset, small_dataset())
    other = dataclasses.replace(dataset, pre_period_end=0)
    assert not datasets_equal(dataset, other)
    assert not datasets_equal(dataset, small_dataset(with_graph=False))


def test_bootstrap_gives_up_after_max_tries_naming_the_estimator():
    tries = []
    with pytest.raises(RuntimeError, match="^network_aware: no valid bootstrap resample in 100 draws$"):
        bootstrap_estimate("network_aware", 0.0, BootstrapConfig(3, seed=5), "network-boot", 10,
                           lambda counts, draws: np.zeros(len(draws)),
                           valid=lambda counts: tries.append(counts.copy()) and False)
    assert MAX_RESAMPLE_TRIES == 100
    assert len(tries) == MAX_RESAMPLE_TRIES


@pytest.mark.parametrize("k", [1, 4])
def test_bootstrap_redraws_stay_on_the_draws_own_stream(k):
    seed, stream, n, B = 11, "basic-boot", 9, 3
    rejections, accepted = [0], {}

    def valid(counts):  # reject the first k draws of every replicate (replicates are drawn in order)
        rejections[0] += 1
        if rejections[0] > k:
            rejections[0] = 0
            return True
        return False

    def statistic(counts, draws):
        for row, b in zip(counts, draws):
            accepted[b] = np.repeat(np.arange(n), row)
        return counts @ np.arange(n) / n

    est = bootstrap_estimate("basic", 4.0, BootstrapConfig(B, seed=seed), stream, n, statistic, valid=valid)
    assert est.n_bootstrap == B
    for b in range(B):
        rg = substream(seed, stream, b)
        draws = [np.sort(rg.integers(0, n, size=n)) for _ in range(k + 1)]
        np.testing.assert_array_equal(accepted[b], draws[k])


def test_bootstrap_without_valid_takes_one_draw_per_replicate(monkeypatch):
    class CountingGenerator:
        def __init__(self, rg):
            self.rg, self.calls = rg, 0

        def integers(self, *args, **kwargs):
            self.calls += 1
            return self.rg.integers(*args, **kwargs)

    streams = []

    def counting_substreams(*path):
        new = [CountingGenerator(rg) for rg in substreams(*path)]
        streams.extend(new)
        return new

    monkeypatch.setattr(core, "substreams", counting_substreams)
    seen = {}

    def statistic(counts, draws):
        for row, b in zip(counts, draws):
            seen.setdefault(b, np.repeat(np.arange(6), row))
        return counts @ np.arange(6) / 6.0

    est = bootstrap_estimate("cmp", 0.5, BootstrapConfig(4, seed=2), "cmp-boot", 6, statistic)
    assert [g.calls for g in streams] == [1, 1, 1, 1]
    assert est.n_bootstrap == 4
    for b in range(4):
        np.testing.assert_array_equal(seen[b], np.sort(substream(2, "cmp-boot", b).integers(0, 6, size=6)))
