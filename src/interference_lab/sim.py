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
regardless of the treatment panel: this makes the gamma=0 no-interference
reduction exact, and b and eps cancel from the oracle's closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BipartiteGraph,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    check_count,
    check_int,
    check_real,
)
from .rng import child_seed, substream

# Edges per noise block in `simulate_outcomes`: a block of T = 20 periods is 640 KiB of float64.
NOISE_BLOCK_EDGES = 4096


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
    each unit's connected endpoints are drawn uniformly without replacement
    (Floyd's algorithm, vectorised over units). Ids: eligible 1..n_eligible, then ineligible.
    """
    rg = substream(seed, "graph")
    n_treat, n = gp.n_eligible + gp.n_ineligible, gp.n_connected
    degrees = rg.poisson(gp.avg_degree, size=n_treat)
    bad = (degrees < 1) | (degrees > n)
    while bad.any():
        degrees[bad] = rg.poisson(gp.avg_degree, size=int(bad.sum()))
        bad = (degrees < 1) | (degrees > n)

    # Column j of a unit of degree d draws from 0..n-d+j; a value the unit already
    # holds is replaced by n-d+j itself, which no earlier column can hold.
    targets = np.full((n_treat, degrees.max()), n)
    for j in range(targets.shape[1]):
        rows = np.flatnonzero(degrees > j)
        hi = n - degrees[rows] + j
        draw = rg.integers(0, hi + 1)
        taken = (targets[rows, :j] == draw[:, None]).any(axis=1)
        targets[rows, j] = np.where(taken, hi, draw)
    targets.sort(axis=1)
    edge_treatment = np.repeat(np.arange(1, n_treat + 1), degrees)
    edge_connected = targets[np.arange(targets.shape[1]) < degrees[:, None]] + 1

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


def _treated_share(c_idx: np.ndarray, treated_edge: np.ndarray, n_connected: int) -> np.ndarray:
    """tau per connected unit: the treated share of its edges; 0, not 0/0, for a unit without edges."""
    neighbors = np.bincount(c_idx, minlength=n_connected).astype(float)
    treated = np.bincount(c_idx, weights=treated_edge, minlength=n_connected)
    return np.divide(treated, neighbors, out=np.zeros_like(treated), where=neighbors > 0)


def _edge_noise(rg: np.random.Generator, sigma: float, n_edges: int, T: int) -> np.ndarray:
    """Noise eps[e, t] read period-major, (T, n_edges), holding the values of one edge-major
    `normal(0, sigma, (n_edges, T))` draw: consecutive `normal` calls continue one stream, so blocks of
    NOISE_BLOCK_EDGES edges are drawn in turn and each is written transposed, never a full (n_edges, T) copy."""
    noise = np.empty((T, n_edges))
    for lo in range(0, n_edges, NOISE_BLOCK_EDGES):
        block = rg.normal(0.0, sigma, size=(min(NOISE_BLOCK_EDGES, n_edges - lo), T))
        noise[:, lo:lo + len(block)] = block.T
    return noise


def simulate_outcomes(g: BipartiteGraph, w: TreatmentPanel, p: DgpParams, seed: int) -> OutcomePanel:
    """Run the edge-level recursion; returns the eligible-unit outcome panel.

    The drive terms beta * w[j(e), t] and gamma * tau[c(e), t] depend on period t's assignment column alone,
    so they are recomputed only in a period whose column differs from the previous period's (a staggered
    rollout changes it only at its stage boundaries); (1 - rho) * b[c(e)] is computed once. Each period sums
    ((carry + rho * y) + direct) + spillover, then adds its noise.
    """
    w_full = g.zero_extend(w.assignments)
    if np.any(w_full[~g.eligible]):
        raise ValueError("ineligible treatment units must stay at control")
    T = w.n_periods
    rg = substream(seed, "outcomes")
    baselines = rg.normal(p.baseline_mean, p.baseline_sd, size=g.n_connected_units)
    noise = _edge_noise(rg, p.sigma, g.n_edges, T) if p.sigma > 0 else None

    t_idx, c_idx = g.edge_positions()

    eligible_pos = np.flatnonzero(g.eligible)
    omega = g.edge_weight

    def aggregate(y_edge):
        totals = np.bincount(t_idx, weights=omega * y_edge, minlength=g.n_treatment_units)
        return totals[eligible_pos]

    b_edge = baselines[c_idx]
    carry = (1 - p.rho) * b_edge
    y_edge = b_edge.copy()
    Y = np.empty((eligible_pos.size, T + 1))
    Y[:, 0] = aggregate(y_edge)
    for t in range(1, T + 1):
        w_t = w_full[:, t - 1]
        if t == 1 or not np.array_equal(w_t, w_full[:, t - 2]):
            treated_edge = w_t[t_idx]
            direct = p.beta * treated_edge
            spill = p.gamma * _treated_share(c_idx, treated_edge, g.n_connected_units)[c_idx]
        y_edge = carry + p.rho * y_edge + direct + spill
        if noise is not None:
            y_edge += noise[t - 1]
        Y[:, t] = aggregate(y_edge)
    return OutcomePanel(Y)


def ground_truth_tte(g: BipartiteGraph, p: DgpParams, T: int) -> float:
    """The oracle: final-period all-treated vs all-control contrast, averaged over eligible units.

    Both arms share b and eps, so in this linear recursion edge e's contrast is exactly
    (beta * 1[j(e) eligible] + gamma * tau1[c(e)]) * (1 - rho^T) / (1 - rho), tau1[c] being
    the eligible share of c's neighbours; a unit sums weight[e] times it over its edges.
    This holds for this DGP only: a change to `simulate_outcomes` needs its own oracle.
    """
    check_count("T", T, 1)
    t_idx, c_idx = g.edge_positions()
    direct = g.eligible[t_idx].astype(float)
    tau = _treated_share(c_idx, direct, g.n_connected_units)
    edge = (p.beta * direct + p.gamma * tau[c_idx]) * ((1 - p.rho**T) / (1 - p.rho))
    unit = np.bincount(t_idx, weights=g.edge_weight * edge, minlength=g.n_treatment_units)
    return float(unit[g.eligible].mean())


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
