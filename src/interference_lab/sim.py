"""Synthetic bipartite experiment generator with a ground-truth oracle.

The data-generating process evolves edge-level outcomes with AR(1) carryover,
a direct effect of the treatment-side endpoint's assignment, and a spillover
term driven by the fraction of the connected unit's treatment-side neighbors
currently treated:

    y[e, 0] = b[c(e)]
    y[e, t] = (1 - rho) * b[c(e)] + rho * y[e, t-1]
              + beta * w[j(e), t] + gamma * tau[c(e), t] + eps[e, t]

where b[c] ~ Normal(baseline_mean, baseline_sd) per connected unit,
eps ~ Normal(0, sigma^2) per edge and period, and tau[c, t] is the treated
fraction of c's treatment-side neighbors at period t. Unit outcomes aggregate
edges to the treatment side: Y[j, t] = sum over the unit's edges of
weight[e] * y[e, t]. Ineligible treatment units are simulated (their edges
shape tau) but never treated and never appear in estimator inputs.

Baseline and noise draws are consumed before any assignment-dependent
computation, so two simulations with the same seed share identical draws
regardless of the treatment panel: this gives common random numbers to the
ground-truth oracle and makes the gamma=0 no-interference reduction exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AllocationScenario,
    BipartiteGraph,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    check_count,
    check_int,
    check_real,
)
from .rng import child_seed, substream


@dataclass(frozen=True)
class DgpParams:
    """Free parameters of the outcome process."""

    beta: float = 1.0
    gamma: float = 0.0
    rho: float = 0.0
    sigma: float = 0.0
    baseline_mean: float = 0.0
    baseline_sd: float = 1.0

    def __post_init__(self):
        for name in ("beta", "gamma", "rho", "sigma", "baseline_mean"):
            check_real(name, getattr(self, name))
        check_real("baseline_sd", self.baseline_sd, minimum=0)
        if not abs(self.rho) < 1:
            raise ValueError("|rho| < 1 required for stable dynamics")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class GraphParams:
    """Sparse random bipartite graph settings (truncated-Poisson degrees)."""

    n_eligible: int
    n_ineligible: int = 0
    n_connected: int = 1
    avg_degree: float = 1.0
    weight_mode: str = "unit"
    weight_mu: float = 0.0
    weight_sd: float = 1.0

    def __post_init__(self):
        check_count("n_eligible", self.n_eligible, 1)
        check_count("n_ineligible", self.n_ineligible, 0)
        check_count("n_connected", self.n_connected, 1)
        check_real("avg_degree", self.avg_degree)
        check_real("weight_mu", self.weight_mu)
        check_real("weight_sd", self.weight_sd, minimum=0)
        if not 0 < self.avg_degree <= self.n_connected:
            raise ValueError("avg_degree must be positive and at most n_connected")
        if self.weight_mode not in ("unit", "lognormal"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")


@dataclass(frozen=True)
class RolloutParams:
    """Staggered rollout stages: at stage s, unit i is treated iff u_i < probability[s]."""

    stage_boundaries: tuple[int, ...]
    stage_probabilities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "stage_boundaries",
                           tuple(int(check_int("stage_boundaries", b)) for b in self.stage_boundaries))
        object.__setattr__(self, "stage_probabilities",
                           tuple(float(check_real("stage_probabilities", p)) for p in self.stage_probabilities))
        if len(self.stage_boundaries) != len(self.stage_probabilities):
            raise ValueError("one probability per stage boundary")
        if not self.stage_boundaries:
            raise ValueError("at least one stage required")
        if any(b2 <= b1 for b1, b2 in zip(self.stage_boundaries, self.stage_boundaries[1:])):
            raise ValueError("stage boundaries must be strictly increasing")
        if self.stage_boundaries[0] < 1:
            raise ValueError("stage boundaries start at period 1")
        probs = self.stage_probabilities
        if any(not 0 <= p <= 1 for p in probs):
            raise ValueError("stage probabilities must lie in [0, 1]")
        if any(p2 < p1 for p1, p2 in zip(probs, probs[1:])):
            raise ValueError("stage probabilities must be nondecreasing")


def generate_graph(gp: GraphParams, seed: int) -> BipartiteGraph:
    """Random sparse bipartite graph; deterministic for a given seed.

    Treatment-unit degrees are Poisson(avg_degree) redrawn into [1, n_connected];
    each unit's connected endpoints are drawn uniformly without replacement.
    Eligible units get ids 1..n_eligible, ineligible units follow.
    """
    rg = substream(seed, "graph")
    n_treat = gp.n_eligible + gp.n_ineligible
    degrees = rg.poisson(gp.avg_degree, size=n_treat)
    bad = (degrees < 1) | (degrees > gp.n_connected)
    while bad.any():
        degrees[bad] = rg.poisson(gp.avg_degree, size=int(bad.sum()))
        bad = (degrees < 1) | (degrees > gp.n_connected)

    edge_treatment, edge_connected = [], []
    pool = np.arange(1, gp.n_connected + 1)
    for i in range(n_treat):
        targets = np.sort(rg.choice(pool, size=degrees[i], replace=False))
        edge_treatment.append(np.full(degrees[i], i + 1, dtype=np.int64))
        edge_connected.append(targets)
    edge_treatment = np.concatenate(edge_treatment)
    edge_connected = np.concatenate(edge_connected)

    if gp.weight_mode == "unit":
        weights = np.ones(edge_treatment.size)
    else:
        weights = rg.lognormal(gp.weight_mu, gp.weight_sd, size=edge_treatment.size)

    return BipartiteGraph(
        treatment_ids=np.arange(1, n_treat + 1),
        eligible=np.arange(n_treat) < gp.n_eligible,
        connected_ids=np.unique(edge_connected),
        edge_treatment=edge_treatment,
        edge_connected=edge_connected,
        edge_weight=weights,
    )


def assign_staggered_rollout(n_units: int, T: int, rp: RolloutParams, seed: int) -> TreatmentPanel:
    """One uniform draw per unit; nondecreasing stage probabilities keep rows monotone."""
    if rp.stage_boundaries[-1] > T:
        raise ValueError("stage boundaries must lie within 1..T")
    u = substream(seed, "rollout").uniform(size=n_units)
    prob_at = np.zeros(T + 1)
    for boundary, prob in zip(rp.stage_boundaries, rp.stage_probabilities):
        prob_at[boundary:] = prob
    assignments = (u[:, None] < prob_at[None, 1:]).astype(np.int8)
    return TreatmentPanel(assignments, design_tag="staggered")


def simulate_outcomes(g: BipartiteGraph, w: TreatmentPanel, p: DgpParams, seed: int) -> OutcomePanel:
    """Run the edge-level recursion; returns the eligible-unit outcome panel."""
    w_full = g.zero_extend(w.assignments)
    if np.any(w_full[~g.eligible]):
        raise ValueError("ineligible treatment units must stay at control")
    T = w.n_periods
    rg = substream(seed, "outcomes")
    baselines = rg.normal(p.baseline_mean, p.baseline_sd, size=g.n_connected_units)
    noise = rg.normal(0.0, p.sigma, size=(g.n_edges, T)) if p.sigma > 0 else None

    t_idx, c_idx = g.edge_positions()
    neighbor_count = np.bincount(c_idx, minlength=g.n_connected_units).astype(float)

    eligible_pos = np.flatnonzero(g.eligible)
    omega = g.edge_weight

    def aggregate(y_edge):
        totals = np.bincount(t_idx, weights=omega * y_edge, minlength=g.n_treatment_units)
        return totals[eligible_pos]

    b_edge = baselines[c_idx]
    y_edge = b_edge.copy()
    Y = np.empty((eligible_pos.size, T + 1))
    Y[:, 0] = aggregate(y_edge)
    for t in range(1, T + 1):
        w_t = w_full[:, t - 1]
        treated_neighbors = np.bincount(c_idx, weights=w_t[t_idx], minlength=g.n_connected_units)
        # A connected unit with no edges has no neighbours to be treated: its tau is 0, not 0/0.
        tau = np.divide(treated_neighbors, neighbor_count, out=np.zeros_like(treated_neighbors),
                        where=neighbor_count > 0)
        y_edge = (1 - p.rho) * b_edge + p.rho * y_edge + p.beta * w_t[t_idx] + p.gamma * tau[c_idx]
        if noise is not None:
            y_edge = y_edge + noise[:, t - 1]
        Y[:, t] = aggregate(y_edge)
    return OutcomePanel(Y)


def ground_truth_tte(g: BipartiteGraph, p: DgpParams, T: int, seed: int, n_reps: int) -> float:
    """Simulated value of the final-period all-treated vs all-control contrast.

    Each replicate runs both allocations under common random numbers, averages
    the final-period outcome over eligible units, and takes the difference;
    replicates are averaged. This is the oracle estimators are judged against.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    n_elig = int(g.eligible.sum())
    treated = AllocationScenario.ALL_TREATED.expand(n_elig, T)
    control = AllocationScenario.ALL_CONTROL.expand(n_elig, T)
    diffs = np.empty(n_reps)
    for r in range(n_reps):
        rep_seed = child_seed(seed, "truth-rep", r)
        y1 = simulate_outcomes(g, treated, p, rep_seed)
        y0 = simulate_outcomes(g, control, p, rep_seed)
        diffs[r] = float(np.mean(y1.outcomes[:, T] - y0.outcomes[:, T]))
    return float(diffs.mean())


def simulate_experiment(
    gp: GraphParams,
    dgp: DgpParams,
    rp: RolloutParams,
    T: int,
    seed: int,
    pre_period_end: int | None = None,
) -> ExperimentDataset:
    """Full synthetic experiment: graph, staggered rollout, outcomes.

    pre_period_end defaults to the period just before the first stage boundary,
    so the pre window is exactly the treatment-free prefix.
    """
    graph = generate_graph(gp, child_seed(seed, "generate-graph"))
    panel = assign_staggered_rollout(gp.n_eligible, T, rp, child_seed(seed, "assign"))
    outcomes = simulate_outcomes(graph, panel, dgp, child_seed(seed, "simulate"))
    if pre_period_end is None:
        pre_period_end = rp.stage_boundaries[0] - 1
    return ExperimentDataset(
        outcomes=outcomes,
        treatments=panel,
        pre_period_end=pre_period_end,
        graph=graph,
    )
