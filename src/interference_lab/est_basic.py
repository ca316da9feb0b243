"""SUTVA-based baseline: pre/post aggregation plus an ML-adjusted
difference-in-differences estimate that deliberately ignores interference.

With no covariates and a linear learner at lam ~ 0 the estimate reduces
exactly to the difference in mean pre/post deltas between arms.
"""

from __future__ import annotations

import numpy as np

from .core import BootstrapConfig, EffectEstimate, ExperimentDataset, bootstrap_estimate, row_classes
from .regress import LearnerConfig, cv_lambdas, fit_learner, learner_folds, predict, ridge_rows, weighted_ridge
from .rng import child_seed, child_seeds


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


def _has_variation(rows: np.ndarray) -> bool:
    """True unless the rows are all identical (or there are none)."""
    return len(rows) > 0 and bool((rows != rows[0]).any())


def _varies_on(z: np.ndarray):
    """The redraw rule `valid(counts)` for rows z: whether a count row draws units of two or more
    distinct rows of z, as `_has_variation(z[counts > 0])` decides, without gathering the rows."""
    z_class, n_classes = row_classes(z)

    def valid(counts) -> bool:
        return np.count_nonzero(np.bincount(z_class, weights=counts, minlength=n_classes)) > 1

    return valid


def _contrast_estimate(method: str, stream: str, model, design: np.ndarray, delta: np.ndarray,
                      z_treated: np.ndarray, learner: LearnerConfig, bootstrap: BootstrapConfig) -> EffectEstimate:
    """Mean predicted delta with the treatment columns at their all-treated values minus at zero.

    `design` is [treatment columns z, covariates] and `z_treated` holds z's all-treated values.
    The point uses the fitted `model`; each bootstrap draw refits delta on the resampled design
    rows, redrawing until z varies on the resample. A ridge model's contrast is linear in its
    z coefficients, so every draw of a chunk is fit at once by weighting cross-product rows built
    once per estimate; kernel ridge refits each draw on its resampled rows. With several grid values,
    draw b's CV seed is `child_seed(bootstrap.seed, "boot-fit", b)`, derived for all draws at once.
    """
    n, k = design.shape[0], z_treated.shape[1]
    units = np.arange(n)
    multi_grid = len(learner.lambda_grid) > 1
    fit_seeds = child_seeds(bootstrap.seed, "boot-fit", range(bootstrap.n_replicates)) if multi_grid else None
    valid = _varies_on(design[:, :k])
    if learner.kind == "kernel_ridge":
        design_1 = np.hstack([z_treated, design[:, k:]])
        design_0 = np.hstack([np.zeros_like(z_treated), design[:, k:]])

        def contrast(fit, idx) -> float:
            return float(np.mean(predict(fit, design_1[idx]) - predict(fit, design_0[idx])))

        def statistic(counts, draws) -> np.ndarray:
            out = []
            for row, b in zip(counts, draws):
                idx = np.repeat(units, row)
                seed = int(fit_seeds[b]) if multi_grid else 0
                out.append(contrast(fit_learner(design[idx], delta[idx], learner, seed=seed), idx))
            return np.asarray(out)

        point = contrast(model, units)
    else:
        rows = ridge_rows(design, delta)

        def contrast(weights, coef) -> np.ndarray:
            z_mean = np.einsum("bi,ij->bj", weights, z_treated) / n
            return np.einsum("bj,bj->b", z_mean, coef[:, :k])

        def statistic(counts, draws) -> np.ndarray:
            lams = learner.lambda_grid[0]
            if multi_grid:
                idx = np.repeat(np.tile(units, len(counts)), counts.ravel()).reshape(counts.shape)
                folds = learner_folds(learner, n, fit_seeds[draws.start:draws.stop])
                lams = cv_lambdas(ridge_rows(design[idx], delta[idx]), learner, folds)[:, None]
            # float weights: einsum casts int64 counts inside a slow buffered loop
            weights = counts.astype(float)
            coef, _ = weighted_ridge(rows, weights, lams)
            return contrast(weights, coef[:, 0])

        point = float(contrast(np.ones((1, n)), model.coefficients[None])[0])
    return bootstrap_estimate(method, point, bootstrap, stream, n, statistic, valid=valid)


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

    z = treated.astype(float)[:, None]
    design = z if x is None else np.hstack([z, x])
    model = fit_learner(design, delta, learner, seed=child_seed(bootstrap.seed, "fit"))
    return _contrast_estimate("basic", "basic-boot", model, design, delta, np.ones_like(z), learner, bootstrap)
