"""SUTVA-based baseline: pre/post aggregation plus an ML-adjusted
difference-in-differences estimate that deliberately ignores interference.

With no covariates and a linear learner at lam ~ 0 the estimate reduces
exactly to the difference in mean pre/post deltas between arms.
"""

from __future__ import annotations

import numpy as np

from .core import BootstrapConfig, EffectEstimate, ExperimentDataset
from .regress import LearnerConfig, fit_learner, predict
from .rng import child_seed, substream


def _pre_post_arrays(d: ExperimentDataset):
    """Per-unit delta = post-window mean minus pre-window mean, the final-period
    treated flag (the stable classification for staggered designs), and covariates."""
    p = d.pre_period_end
    T = d.n_periods
    if not 0 <= p < T:
        raise ValueError(f"pre_period_end {p} leaves an empty pre or post window")
    y = d.outcomes.outcomes
    delta = y[:, p + 1 :].mean(axis=1) - y[:, : p + 1].mean(axis=1)
    treated = d.treatments.assignments[:, -1].astype(bool)
    x = d.covariates.values if d.covariates is not None else None
    return delta, treated, x


def _design(treated: np.ndarray, x: np.ndarray | None) -> np.ndarray:
    cols = [treated.astype(float)[:, None]]
    if x is not None:
        cols.append(x)
    return np.hstack(cols)


def _contrast(delta, treated, x, idx, learner: LearnerConfig, seed: int) -> float:
    """Refit on the index multiset and average prediction(treated) - prediction(control)."""
    sub_t = treated[idx]
    model, _ = fit_learner(_design(sub_t, None if x is None else x[idx]), delta[idx], learner, seed=seed)
    x_sub = None if x is None else x[idx]
    design_1 = _design(np.ones(len(idx)), x_sub)
    design_0 = _design(np.zeros(len(idx)), x_sub)
    return float(np.mean(predict(model, design_1) - predict(model, design_0)))


def _resample_two_arms(rg, treated: np.ndarray, max_tries: int = 100) -> np.ndarray:
    """Unit resample with replacement, redrawn until both arms are present."""
    n = len(treated)
    for _ in range(max_tries):
        idx = np.sort(rg.integers(0, n, size=n))
        picked = treated[idx]
        if picked.any() and not picked.all():
            return idx
    raise RuntimeError("could not draw a bootstrap resample containing both arms")


def estimate_basic(
    d: ExperimentDataset,
    learner: LearnerConfig | None = None,
    bootstrap: BootstrapConfig | None = None,
) -> EffectEstimate:
    """Difference-in-differences with an ML adjustment, no interference correction.

    Fits delta on (treated indicator, covariates), averages the unit-level
    treated-vs-control prediction contrast, and builds the CI by unit-level
    nonparametric bootstrap (percentile, 2.5/97.5).
    """
    learner = learner or LearnerConfig()
    bootstrap = bootstrap or BootstrapConfig()
    delta, treated, x = _pre_post_arrays(d)
    if treated.all() or not treated.any():
        raise ValueError("estimate_basic needs both treated and control units")

    all_idx = np.arange(d.n_units)
    point = _contrast(delta, treated, x, all_idx, learner, seed=child_seed(bootstrap.seed, "fit"))

    boot = np.empty(bootstrap.n_replicates)
    for b in range(bootstrap.n_replicates):
        rg = substream(bootstrap.seed, "basic-boot", b)
        idx = _resample_two_arms(rg, treated)
        boot[b] = _contrast(delta, treated, x, idx, learner, seed=child_seed(bootstrap.seed, "boot-fit", b))
    return EffectEstimate.from_bootstrap("basic", point, boot)
