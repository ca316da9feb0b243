"""The per-draw bootstrap that `core.bootstrap_estimate`'s count-row engine replaced.

Kept as the reference the engine is checked against: same point, same
interval ends within rounding, and the same error for the same failing
input. Every draw is a sorted index resample; the estimator is refit on the
resampled rows, with the per-dataset ridge, cross-validation, moment and
recursion code the estimators ran before. cmp's resample moments are the
exception: they follow the package's count-weighted definition, computed per
draw from that draw's count row over the dataset's rows (`count_features`).
The single-problem `ridge_fit` likewise solves
the normal equations the package's way, from summed row outer products.
Kernel ridge, exposures and pre/post arrays come from the package unchanged;
every stream, seed and fold comes from numpy's own SeedSequence
(`reference_rng`).
"""

from __future__ import annotations

import math

import numpy as np

from interference_lab.core import AllocationScenario, EffectEstimate, MAX_RESAMPLE_TRIES
from interference_lab.est_basic import _has_variation, _pre_post_arrays
from interference_lab.est_cmp import StateEvolutionModel, StateFeatures
from interference_lab.est_network import counterfactual_exposures, exposure_matrix
from interference_lab.regress import (
    DegenerateDesignError,
    RidgeModel,
    kernel_ridge_fit,
    median_bandwidth,
    predict,
)

from reference_rng import child_seed, fold_assignments, substream


def bootstrap_estimate(method, point, bootstrap, stream, n, statistic, valid=None) -> EffectEstimate:
    boot = np.empty(bootstrap.n_replicates)
    for b in range(bootstrap.n_replicates):
        rg = substream(bootstrap.seed, stream, b)
        for _ in range(MAX_RESAMPLE_TRIES):
            idx = np.sort(rg.integers(0, n, size=n))
            if valid is None or valid(idx):
                break
        else:
            raise RuntimeError(f"{method}: no valid bootstrap resample in {MAX_RESAMPLE_TRIES} draws")
        boot[b] = statistic(idx, b)
    return EffectEstimate.from_bootstrap(method, point, boot)


# --- regression -----------------------------------------------------------------------------------------


def ridge_fit(X, y, lam) -> RidgeModel:
    """The package's normal equations: the sum over rows of the outer products of a = [1, x - x̄, y - ȳ]
    gives the cross-products of the shifted data, which are then centered on their own (rounding-sized)
    means. cmp's no_interference fits have condition numbers near 2e16, so the same arithmetic, not the
    same algebra by another route such as `Xc.T @ Xc`, is what keeps them within rounding."""
    X = np.asarray(X, dtype=float)
    X = X[:, None] if X.ndim == 1 else X
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n < 1:
        raise ValueError("need at least one training row")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    a = np.column_stack([np.ones(n), X - x_mean, y - y_mean])
    M = (a[:, :, None] * a[:, None, :]).sum(axis=0)
    shift_x, shift_y = M[0, 1:-1] / n, M[0, -1] / n
    A = M[1:-1, 1:-1] - n * np.outer(shift_x, shift_x)
    r = M[1:-1, -1] - n * shift_x * shift_y
    if lam == 0:
        Xc = X - X.mean(axis=0)
        if np.linalg.matrix_rank(Xc.T @ Xc) < d:
            raise DegenerateDesignError("rank-deficient design with lam=0; increase lam or drop columns")
    coef = np.linalg.solve(A + lam * np.eye(d), r)
    intercept = (y_mean + shift_y) - float((x_mean + shift_x) @ coef)
    return RidgeModel(coefficients=coef, intercept=intercept, lam=float(lam))


def _ridge_cv_errors(X, y, grid, folds, k_folds):
    if grid[0] < 0:
        raise ValueError("lam must be nonnegative")
    d = X.shape[1]
    test = (folds == np.arange(k_folds)[:, None]).astype(float)
    train = 1.0 - test
    n_train = train.sum(axis=1)
    x_mean = (train @ X) / n_train[:, None]
    y_mean = (train @ y) / n_train
    Xc = (X - x_mean[:, None, :]) * train[:, :, None]
    yc = (y - y_mean[:, None]) * train
    Xc_t = np.swapaxes(Xc, 1, 2)
    gram = Xc_t @ Xc
    if grid[0] == 0 and (np.linalg.matrix_rank(gram) < d).any():
        raise DegenerateDesignError("rank-deficient design with lam=0; increase lam or drop columns")
    lams = np.asarray(grid)
    A = gram[:, None] + lams[:, None, None] * np.eye(d)
    coef = np.linalg.solve(A, (Xc_t @ yc[:, :, None])[:, None])[..., 0]
    intercept = y_mean[:, None] - np.einsum("ki,kli->kl", x_mean, coef)
    pred = np.einsum("ni,nli->nl", X, coef[folds]) + intercept[folds]
    fold_errs = (test @ (pred - y[:, None]) ** 2) / test.sum(axis=1)[:, None]
    return fold_errs.mean(axis=0)


def cross_validate(X, y, lambda_grid, k_folds, seed, learner, kernel, bandwidth) -> float:
    grid = sorted(float(v) for v in lambda_grid)
    folds = fold_assignments(len(X), k_folds, seed)
    if learner == "ridge":
        errs = _ridge_cv_errors(X, y, grid, folds, k_folds)
    else:
        if kernel == "rbf" and bandwidth is None:
            bandwidth = median_bandwidth(X)
        errs = []
        for lam in grid:
            fold_errs = []
            for j in range(k_folds):
                train, test = folds != j, folds == j
                model = kernel_ridge_fit(X[train], y[train], kernel=kernel, lam=lam, bandwidth=bandwidth)
                fold_errs.append(float(np.mean((predict(model, X[test]) - y[test]) ** 2)))
            errs.append(float(np.mean(fold_errs)))
    best_lam, best_err = grid[0], np.inf
    for lam, err in zip(grid, errs):
        if err <= best_err:
            best_lam, best_err = lam, err
    return best_lam


def fit_learner(X, y, config, seed=0):
    X = np.asarray(X, dtype=float)
    X = X[:, None] if X.ndim == 1 else X
    y = np.asarray(y, dtype=float)
    if len(config.lambda_grid) == 1:
        lam = config.lambda_grid[0]
    else:
        lam = cross_validate(X, y, config.lambda_grid, min(config.cv_folds, len(X)), seed, config.kind,
                             config.kernel, config.bandwidth)
    if config.kind == "ridge":
        return ridge_fit(X, y, lam)
    return kernel_ridge_fit(X, y, kernel=config.kernel, lam=lam, bandwidth=config.bandwidth)


# --- basic and network_aware ----------------------------------------------------------------------------


def contrast_estimate(method, stream, model, design, delta, z_treated, learner, bootstrap) -> EffectEstimate:
    k = z_treated.shape[1]
    design_1 = np.hstack([z_treated, design[:, k:]])
    design_0 = np.hstack([np.zeros_like(z_treated), design[:, k:]])

    def contrast(fit, idx) -> float:
        return float(np.mean(predict(fit, design_1[idx]) - predict(fit, design_0[idx])))

    def refit(idx, b) -> float:
        fit = fit_learner(design[idx], delta[idx], learner, seed=child_seed(bootstrap.seed, "boot-fit", b))
        return contrast(fit, idx)

    point = contrast(model, slice(None))
    return bootstrap_estimate(method, point, bootstrap, stream, len(design), refit,
                              valid=lambda idx: _has_variation(design[idx, :k]))


def estimate_basic(d, learner, bootstrap) -> EffectEstimate:
    delta, treated, x = _pre_post_arrays(d)
    z = treated.astype(float)[:, None]
    design = z if x is None else np.hstack([z, x])
    model = fit_learner(design, delta, learner, seed=child_seed(bootstrap.seed, "fit"))
    return contrast_estimate("basic", "basic-boot", model, design, delta, np.ones_like(z), learner, bootstrap)


def estimate_network(d, learner, bootstrap, weighted_exposures=False, seed=0) -> EffectEstimate:
    delta, treated, x = _pre_post_arrays(d)
    exposures = exposure_matrix(d.graph, treated.astype(float), weighted=weighted_exposures)
    cf = counterfactual_exposures(d.graph, weighted=weighted_exposures)
    if not _has_variation(exposures):
        raise DegenerateDesignError("all exposure points identical; outcome model unidentified")
    design = exposures if x is None else np.hstack([exposures, x])
    model = fit_learner(design, delta, learner, seed=seed)
    return contrast_estimate("network_aware", "network-boot", model, design, delta, cf, learner, bootstrap)


# --- cmp ------------------------------------------------------------------------------------------------


def count_features(d, counts, moment_order) -> StateFeatures:
    """The moments of the resample that draws unit i `counts[i]` times, as count-weighted sums over d's rows.

    Per period, r_k is the count-weighted mean of (y - ybar)^k about d's own mean ybar; the resample's mean
    is ybar + r_1 and its k-th central moment sum_j C(k, j) r_j (-r_1)^(k-j), with r_0 = 1, an even one held
    at 0 or above.
    """
    T, n = d.n_periods, d.n_units
    if T < 2:
        raise ValueError(f"need at least 2 transitions, got T={T}")
    by_period = np.ascontiguousarray(d.outcomes.outcomes.T)
    ybar = by_period.mean(axis=1)
    w = counts.astype(float)[None]

    def weighted_mean(rows):
        return np.einsum("gn,jn->gj", w, rows)[0] / n

    deviation = by_period - ybar[:, None]
    power = deviation
    r = [np.ones(T + 1), weighted_mean(power)]
    for _ in range(2, moment_order + 1):
        power = power * deviation
        r.append(weighted_mean(power))
    moments = [ybar + r[1]]
    for k in range(2, moment_order + 1):
        central = sum(math.comb(k, j) * r[j] * (-r[1]) ** (k - j) for j in range(k + 1))
        moments.append(np.maximum(central, 0.0) if k % 2 == 0 else central)
    treated = weighted_mean(np.ascontiguousarray(d.treatments.assignments.T))
    return _features(np.column_stack(moments), treated)


def _features(moment_rows, p_next) -> StateFeatures:
    means = moment_rows[:, 0]
    table = np.column_stack([moment_rows[:-1], p_next])
    return StateFeatures(table=table, targets=means[1:], baseline_mean=float(means[0]),
                         final_moments=moment_rows[-1])


def fit_state_evolution(features, learner, seed) -> StateEvolutionModel:
    table = features.table
    if len(table) < table.shape[1] + 2:
        order = table.shape[1] - 1
        raise ValueError(f"cmp needs T >= {order + 3} transitions to fit its {order + 2} coefficients at moment "
                         f"order {order}, got T={len(table)}")
    model = fit_learner(table, features.targets, learner, seed=seed)
    return StateEvolutionModel(model=model, context_moments=features.final_moments)


def counterfactual_evolution(model, baseline_mean, allocation, T) -> np.ndarray:
    p = 1.0 if allocation is AllocationScenario.ALL_TREATED else 0.0
    coef, intercept = model.model.coefficients, model.model.intercept
    slope = float(coef[0])
    offset = float(intercept + coef[1:-1] @ model.context_moments[1:] + p * coef[-1])
    means = [float(baseline_mean)]
    for t in range(1, T + 1):
        means.append(slope * means[-1] + offset)
        if not math.isfinite(means[-1]):
            raise RuntimeError(f"counterfactual recursion diverged at period {t}")
    return np.array(means)


def _cmp_point(d, rows, config, fit_seed) -> float:
    """The cmp contrast of the resample `rows` (sorted unit indices) of d."""
    features = count_features(d, np.bincount(rows, minlength=d.n_units), config.moment_order)
    model = fit_state_evolution(features, config.learner, fit_seed)
    T = d.n_periods
    treated = counterfactual_evolution(model, features.baseline_mean, AllocationScenario.ALL_TREATED, T)
    control = counterfactual_evolution(model, features.baseline_mean, AllocationScenario.ALL_CONTROL, T)
    return float(treated[-1]) - float(control[-1])


def estimate_tte_cmp(d, config, bootstrap) -> EffectEstimate:
    point = _cmp_point(d, np.arange(d.n_units), config, child_seed(config.seed, "fit"))

    def resampled_point(rows, b) -> float:
        return _cmp_point(d, rows, config, child_seed(bootstrap.seed, "fit", b))

    return bootstrap_estimate("cmp", point, bootstrap, "cmp-boot", d.n_units, resampled_point)
