"""Network-aware estimator: graph exposures, outcome-model fit, and the
all-treated vs no-treatment counterfactual contrast over eligible units.

Exposures follow the unweighted counting definitions by default
(direct = own treatment times number of connected units; indirect = number
of treated co-serving treatment units summed over connected units); the
`weighted` flag multiplies each connected unit's contribution by the edge
weight instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BipartiteGraph, BootstrapConfig, EffectEstimate, ExperimentDataset
from .est_basic import _contrast_estimate, _has_variation, _pre_post_arrays
from .regress import DegenerateDesignError, LearnerConfig, fit_learner


def direct_exposure(g: BipartiteGraph, w, weighted: bool = False) -> np.ndarray:
    """Own treatment times connected-unit count (or total edge weight), per eligible unit."""
    w_full = g.zero_extend(w)
    e_dir = w_full * g.degrees(weighted=weighted)
    return e_dir[g.eligible]


def indirect_exposure(g: BipartiteGraph, w, weighted: bool = False) -> np.ndarray:
    """Treated co-serving treatment units summed over each eligible unit's connected units."""
    w_full = g.zero_extend(w)
    t_idx, c_idx = g.edge_positions()
    treated_per_connected = np.bincount(c_idx, weights=w_full[t_idx], minlength=g.n_connected_units)
    contrib = treated_per_connected[c_idx] - w_full[t_idx]
    if weighted:
        contrib = contrib * g.edge_weight
    e_ind = np.bincount(t_idx, weights=contrib, minlength=g.n_treatment_units)
    return e_ind[g.eligible]


def exposure_matrix(g: BipartiteGraph, w, weighted: bool = False) -> np.ndarray:
    """(N, 2) matrix of (direct, indirect) exposures over eligible units."""
    return np.column_stack([direct_exposure(g, w, weighted), indirect_exposure(g, w, weighted)])


def counterfactual_exposures(g: BipartiteGraph, weighted: bool = False) -> np.ndarray:
    """Exposure pairs under the all-treated allocation: every *eligible* unit is treated and ineligible
    units stay at control, the allocation the oracle contrasts."""
    return exposure_matrix(g, g.eligible.astype(float), weighted)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Fitted exposure-response model plus the training data needed to refit."""

    model: object
    learner: LearnerConfig
    design: np.ndarray
    targets: np.ndarray


def fit_psi(
    exposures: np.ndarray,
    covariates: np.ndarray | None,
    outcomes: np.ndarray,
    learner: LearnerConfig | None = None,
    seed: int = 0,
) -> OutcomeModel:
    """Fit unit outcome (pre/post delta) on the exposure pair plus covariates."""
    learner = learner or LearnerConfig()
    exposures = np.asarray(exposures, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)
    if exposures.ndim != 2 or exposures.shape[1] != 2:
        raise ValueError("exposures must be an (N, 2) matrix")
    if not _has_variation(exposures):
        raise DegenerateDesignError("all exposure points identical; outcome model unidentified")
    design = exposures if covariates is None else np.hstack([exposures, covariates])
    model = fit_learner(design, outcomes, learner, seed=seed)
    return OutcomeModel(model=model, learner=learner, design=design, targets=outcomes)


def estimate_ptte(om: OutcomeModel, cf: np.ndarray, bootstrap: BootstrapConfig | None = None) -> EffectEstimate:
    """Average the fitted model's all-treated (`cf` exposures) vs zero-exposure contrast over eligible units.

    The CI refits the outcome model per unit-level resample and re-evaluates
    the contrast over the resampled units.
    """
    bootstrap = bootstrap or BootstrapConfig()
    if len(cf) != len(om.design):
        raise ValueError("graph eligible units do not match the fitted model's training rows")
    return _contrast_estimate("network_aware", "network-boot", om.model, om.design, om.targets, cf, om.learner,
                              bootstrap)


def extrapolation_warnings(om: OutcomeModel, cf: np.ndarray) -> list[str]:
    """Flag all-treated (`cf`) and zero exposure points outside the observed training range."""
    observed = om.design[:, :2]
    out = []
    for dim, name in enumerate(("direct", "indirect")):
        lo, hi = observed[:, dim].min(), observed[:, dim].max()
        above = int(np.sum(cf[:, dim] > hi))
        if above:
            out.append(
                f"{name} exposure: {above} all-treated points exceed the observed max {hi:g}"
            )
        if lo > 0:
            out.append(f"{name} exposure: zero-exposure point below the observed min {lo:g}")
    return out


def estimate_network(
    d: ExperimentDataset,
    learner: LearnerConfig | None = None,
    bootstrap: BootstrapConfig | None = None,
    weighted_exposures: bool = False,
    seed: int = 0,
) -> tuple[EffectEstimate, dict]:
    """End-to-end network-aware estimate from a dataset with a graph, plus
    `{"network_extrapolation": bool}`, set when `extrapolation_warnings` has any.

    `seed` drives the outcome model's lambda cross-validation.
    """
    if d.graph is None:
        raise ValueError("the network-aware method requires the dataset's bipartite graph")
    delta, treated, x = _pre_post_arrays(d)
    exposures = exposure_matrix(d.graph, treated.astype(float), weighted=weighted_exposures)
    cf = counterfactual_exposures(d.graph, weighted=weighted_exposures)
    om = fit_psi(exposures, x, delta, learner, seed=seed)
    est = estimate_ptte(om, cf, bootstrap=bootstrap)
    return est, {"network_extrapolation": bool(extrapolation_warnings(om, cf))}
