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
from .est_basic import _pre_post_arrays
from .regress import DegenerateDesignError, LearnerConfig, fit_learner, predict
from .rng import child_seed, substream


def _full_assignment_vector(g: BipartiteGraph, w) -> np.ndarray:
    """Final-period assignment per treatment unit, zero-extended over ineligible units."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError("assignment must be a 1-d vector")
    n_elig = int(g.eligible.sum())
    if w.size == g.n_treatment_units:
        return w
    if w.size != n_elig:
        raise ValueError(
            f"assignment covers {w.size} units; expected {n_elig} (eligible) or "
            f"{g.n_treatment_units} (all treatment units)"
        )
    full = np.zeros(g.n_treatment_units)
    full[g.eligible] = w
    return full


def _edge_indices(g: BipartiteGraph):
    from .core import _locate

    t_idx, found_t = _locate(g.edge_treatment, g.treatment_ids)
    c_idx, found_c = _locate(g.edge_connected, g.connected_ids)
    if not (found_t.all() and found_c.all()):
        raise ValueError("graph has edges referencing unknown units")
    return t_idx, c_idx


def direct_exposure(g: BipartiteGraph, w, weighted: bool = False) -> np.ndarray:
    """Own treatment times connected-unit count (or total edge weight), per eligible unit."""
    w_full = _full_assignment_vector(g, w)
    e_dir = w_full * g.degrees(weighted=weighted)
    return e_dir[g.eligible]


def indirect_exposure(g: BipartiteGraph, w, weighted: bool = False) -> np.ndarray:
    """Treated co-serving treatment units summed over each eligible unit's connected units."""
    w_full = _full_assignment_vector(g, w)
    t_idx, c_idx = _edge_indices(g)
    treated_per_connected = np.bincount(c_idx, weights=w_full[t_idx], minlength=g.n_connected_units)
    contrib = treated_per_connected[c_idx] - w_full[t_idx]
    if weighted:
        contrib = contrib * g.edge_weight
    e_ind = np.bincount(t_idx, weights=contrib, minlength=g.n_treatment_units)
    return e_ind[g.eligible]


def exposure_matrix(g: BipartiteGraph, w, weighted: bool = False) -> np.ndarray:
    """(N, 2) matrix of (direct, indirect) exposures over eligible units."""
    return np.column_stack([direct_exposure(g, w, weighted), indirect_exposure(g, w, weighted)])


def counterfactual_exposures(
    g: BipartiteGraph, all_units_treated: bool = False, weighted: bool = False
) -> np.ndarray:
    """Exposure pairs under the all-treated allocation.

    By default every *eligible* unit is treated and ineligible units stay at
    control; `all_units_treated` switches to the every-unit reading.
    """
    w_full = np.ones(g.n_treatment_units) if all_units_treated else g.eligible.astype(float)
    return exposure_matrix(g, w_full, weighted)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Fitted exposure-response model plus the training data needed to refit."""

    model: object
    learner: LearnerConfig
    lam: float
    design: np.ndarray
    targets: np.ndarray
    n_covariates: int
    weighted: bool
    residual_scale: float

    @property
    def exposure_ranges(self) -> np.ndarray:
        """(2, 2) observed [min, max] per exposure dimension."""
        e = self.design[:, :2]
        return np.stack([e.min(axis=0), e.max(axis=0)], axis=1)


def _has_variation(rows: np.ndarray) -> bool:
    """True unless the rows are all identical (or there are none)."""
    return len(rows) > 0 and bool(np.ptp(rows, axis=0).any())


def fit_psi(
    exposures: np.ndarray,
    covariates: np.ndarray | None,
    outcomes: np.ndarray,
    learner: LearnerConfig | None = None,
    seed: int = 0,
    weighted: bool = False,
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
    model, lam = fit_learner(design, outcomes, learner, seed=seed)
    resid = outcomes - predict(model, design)
    return OutcomeModel(
        model=model,
        learner=learner,
        lam=lam,
        design=design,
        targets=outcomes,
        n_covariates=0 if covariates is None else covariates.shape[1],
        weighted=weighted,
        residual_scale=float(resid.std()),
    )


def _resample_identified(rg, design: np.ndarray, max_tries: int = 100) -> np.ndarray:
    """Unit resample redrawn until the exposure rows are not all identical."""
    n = len(design)
    for _ in range(max_tries):
        idx = np.sort(rg.integers(0, n, size=n))
        if _has_variation(design[idx, :2]):
            return idx
    raise RuntimeError("could not draw a bootstrap resample with exposure variation")


def _contrast_points(om: OutcomeModel, cf_exposures: np.ndarray):
    x = om.design[:, 2:]
    design_1 = np.hstack([cf_exposures, x])
    design_0 = np.hstack([np.zeros_like(cf_exposures), x])
    return design_1, design_0


def estimate_ptte(
    om: OutcomeModel,
    g: BipartiteGraph,
    bootstrap: BootstrapConfig | None = None,
    all_units_treated: bool = False,
) -> EffectEstimate:
    """Average the fitted model's all-treated vs zero-exposure contrast over eligible units.

    The CI refits the outcome model per unit-level resample and re-evaluates
    the contrast over the resampled units.
    """
    bootstrap = bootstrap or BootstrapConfig()
    cf = counterfactual_exposures(g, all_units_treated=all_units_treated, weighted=om.weighted)
    if len(cf) != len(om.design):
        raise ValueError("graph eligible units do not match the fitted model's training rows")
    design_1, design_0 = _contrast_points(om, cf)
    point = float(np.mean(predict(om.model, design_1) - predict(om.model, design_0)))

    boot = np.empty(bootstrap.n_replicates)
    for b in range(bootstrap.n_replicates):
        rg = substream(bootstrap.seed, "network-boot", b)
        idx = _resample_identified(rg, om.design)
        refit, _ = fit_learner(
            om.design[idx], om.targets[idx], om.learner, seed=child_seed(bootstrap.seed, "boot-fit", b)
        )
        boot[b] = float(np.mean(predict(refit, design_1[idx]) - predict(refit, design_0[idx])))
    return EffectEstimate.from_bootstrap("network_aware", point, boot)


def extrapolation_warnings(om: OutcomeModel, g: BipartiteGraph, all_units_treated: bool = False) -> list[str]:
    """Flag counterfactual exposure points outside the observed training range."""
    cf = counterfactual_exposures(g, all_units_treated=all_units_treated, weighted=om.weighted)
    ranges = om.exposure_ranges
    names = ("direct", "indirect")
    out = []
    for dim, name in enumerate(names):
        lo, hi = ranges[dim]
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
    all_units_treated: bool = False,
    seed: int = 0,
) -> tuple[EffectEstimate, OutcomeModel]:
    """End-to-end network-aware estimate from a dataset with a graph, plus the fitted model.

    `seed` drives the outcome model's lambda cross-validation.
    """
    if d.graph is None:
        raise ValueError("the network-aware method requires the dataset's bipartite graph")
    delta, treated, x = _pre_post_arrays(d)
    exposures = exposure_matrix(d.graph, treated.astype(float), weighted=weighted_exposures)
    om = fit_psi(exposures, x, delta, learner, seed=seed, weighted=weighted_exposures)
    return estimate_ptte(om, d.graph, bootstrap=bootstrap, all_units_treated=all_units_treated), om
