"""Ridge and kernel ridge regression with k-fold cross-validation.

Everything here is a small dense problem (at most a few thousand rows), so
fits use direct factorizations. Ridge solves the centered normal equations

    (Xc' Xc + lam * I) beta = Xc' y_c,   intercept = mean(y) - mean(X) @ beta

and kernel ridge solves (K + lam * I) alpha = y on the raw Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .core import check_count, check_real
from .rng import substreams

# Log-spaced default grid; bench preset files restate it so it stays visible.
DEFAULT_LAMBDA_GRID = tuple(float(x) for x in np.logspace(-6, 3, 10))


class DegenerateDesignError(RuntimeError):
    """Singular unpenalized system (rank-deficient X at lam=0, or constant design)."""


@dataclass(frozen=True)
class RidgeModel:
    coefficients: np.ndarray
    intercept: float
    lam: float

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=float)
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)


@dataclass(frozen=True)
class KernelRidgeModel:
    dual_coefficients: np.ndarray
    kernel: str
    bandwidth: float | None
    lam: float
    x_train: np.ndarray

    def __post_init__(self):
        for name in ("dual_coefficients", "x_train"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def ridge_fit(X, y, lam: float) -> RidgeModel:
    """Penalized least squares with an intercept, on internally centered data."""
    X = _as_matrix(X)
    if len(X) < 1:
        raise ValueError("need at least one training row")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    coef, intercept = weighted_ridge(ridge_rows(X, y), np.ones((1, len(X))), lam)
    return RidgeModel(coefficients=coef[0, 0], intercept=float(intercept[0, 0]), lam=float(lam))


class RidgeRows(NamedTuple):
    """The weight-free part of `weighted_ridge` for rows X (..., n, d), y (..., n).

    `sx` (..., d) and `sy` (...) are the row means, and `outer` (..., n, (d+2)²) holds each row's outer product
    of [1, x - sx, y - sy]. Every array is read-only, so one set serves every weight row of a bootstrap and
    every fold of a cross-validation.
    """

    X: np.ndarray
    y: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    outer: np.ndarray


def ridge_rows(X, y) -> RidgeRows:
    """Prepare rows X (..., n, d), y (..., n) for any number of `weighted_ridge` calls."""
    # views: marking them read-only leaves the caller's arrays writable
    X = np.asarray(X, dtype=float).view()
    y = np.asarray(y, dtype=float).view()
    sx = X.mean(axis=-2)
    sy = np.asarray(y.mean(axis=-1))
    a = np.concatenate([np.ones(y.shape + (1,)), X - sx[..., None, :], (y - sy[..., None])[..., None]], axis=-1)
    outer = (a[..., :, None] * a[..., None, :]).reshape(a.shape[:-1] + (-1,))
    for arr in (X, y, sx, sy, outer):
        arr.setflags(write=False)
    return RidgeRows(X, y, sx, sy, outer)


def weighted_ridge(rows: RidgeRows, w, lams) -> tuple[np.ndarray, np.ndarray]:
    """Weighted ridge fits of the prepared `rows`: coefficients (..., W, L, d) and intercepts (..., W, L).

    w (..., W, n) holds one nonnegative weight row per fit (a bootstrap count row, a fold's training
    indicator, all ones for a plain fit); `lams` broadcasts against (..., W, L). Each fit solves the ridge
    normal equations of the rows repeated by their weights, centered on the weighted means.
    The weighted cross-products are einsum sums over the prepared outer products, so a sum over units never
    goes to a (multithreaded) BLAS call and no weighted copy of the rows is built.
    """
    X, _, sx, sy, outer = rows
    w = np.asarray(w, dtype=float)
    d = X.shape[-1]
    M = np.einsum("...wi,...ij->...wj", w, outer)
    M = M.reshape(M.shape[:-1] + (d + 2, d + 2))
    # center on the weighted means of the shifted data
    n = M[..., 0, 0]
    mx, my = M[..., 0, 1:-1] / n[..., None], M[..., 0, -1] / n
    A = M[..., 1:-1, 1:-1] - n[..., None, None] * mx[..., :, None] * mx[..., None, :]
    r = M[..., 1:-1, -1] - n[..., None] * mx * my[..., None]
    lams = np.asarray(lams, dtype=float)
    A = A[..., None, :, :] + lams[..., None, None] * np.eye(d)
    unpenalized = np.broadcast_to(lams == 0, A.shape[:-2]).any(axis=-1)
    if unpenalized.any():
        # Rank is decided on data centered on each fit's own weighted mean: a column constant on a
        # resample then gives an exactly, not nearly, zero row.
        w_mean = np.einsum("...wi,...ij->...wj", w, X) / w.sum(axis=-1)[..., None]
        Xc = X[..., None, :, :] - w_mean[..., None, :]
        gram = np.einsum("...wi,...wij,...wik->...wjk", w, Xc, Xc)
        if (np.linalg.matrix_rank(gram[unpenalized]) < d).any():
            raise DegenerateDesignError("rank-deficient design with lam=0; increase lam or drop columns")
    r = np.broadcast_to(r[..., None, :], A.shape[:-1])
    coef = np.linalg.solve(A, r[..., None])[..., 0]
    shift = sx[..., None, :] + mx  # (..., W, d): the weighted means
    intercept = (sy[..., None] + my)[..., None] - np.einsum("...wj,...wlj->...wl", shift, coef)
    return coef, intercept


def median_bandwidth(X) -> float:
    """Median pairwise Euclidean distance; falls back to 1.0 on degenerate data."""
    X = _as_matrix(X)
    sq = np.sum(X * X, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X @ X.T), 0.0)
    upper = d2[np.triu_indices(len(X), k=1)]
    if upper.size == 0:
        return 1.0
    med = float(np.median(np.sqrt(upper)))
    return med if med > 0 else 1.0


def gram_matrix(X, Z, kernel: str, bandwidth: float | None = None) -> np.ndarray:
    X, Z = _as_matrix(X), _as_matrix(Z)
    if kernel == "linear":
        return X @ Z.T
    if kernel == "rbf":
        if bandwidth is None or bandwidth <= 0:
            raise ValueError("rbf kernel requires a positive bandwidth")
        sq_x = np.sum(X * X, axis=1)
        sq_z = np.sum(Z * Z, axis=1)
        d2 = np.maximum(sq_x[:, None] + sq_z[None, :] - 2.0 * (X @ Z.T), 0.0)
        return np.exp(-d2 / (2.0 * bandwidth**2))
    raise ValueError(f"unknown kernel {kernel!r}")


def kernel_ridge_fit(X, y, kernel: str = "rbf", lam: float = 1.0, bandwidth: float | None = None) -> KernelRidgeModel:
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if lam <= 0:
        raise ValueError("kernel ridge requires lam > 0")
    if kernel == "rbf" and bandwidth is None:
        bandwidth = median_bandwidth(X)
    K = gram_matrix(X, X, kernel, bandwidth)
    if not np.all(np.isfinite(K)):
        raise ValueError("non-finite kernel values")
    alpha = np.linalg.solve(K + lam * np.eye(len(X)), y)
    return KernelRidgeModel(
        dual_coefficients=alpha,
        kernel=kernel,
        bandwidth=None if kernel == "linear" else float(bandwidth),
        lam=float(lam),
        x_train=X,
    )


def predict(model: RidgeModel | KernelRidgeModel, X_new) -> np.ndarray:
    X_new = _as_matrix(X_new)
    if isinstance(model, RidgeModel):
        if X_new.shape[1] != model.coefficients.shape[0]:
            raise ValueError(
                f"feature dimension {X_new.shape[1]} does not match training dimension "
                f"{model.coefficients.shape[0]}"
            )
        return X_new @ model.coefficients + model.intercept
    if X_new.shape[1] != model.x_train.shape[1]:
        raise ValueError(
            f"feature dimension {X_new.shape[1]} does not match training dimension "
            f"{model.x_train.shape[1]}"
        )
    return gram_matrix(X_new, model.x_train, model.kernel, model.bandwidth) @ model.dual_coefficients


def fold_assignments(n: int, k_folds: int, seeds) -> np.ndarray:
    """Deterministic balanced fold index per row (len(seeds), n), one row per seed, each a permutation drawn
    from the seed's "cv-folds" stream; the streams of all seeds are derived in one batch."""
    folds = np.empty((len(seeds), n), dtype=int)
    for row, rg in zip(folds, substreams(seeds, "cv-folds")):
        row[rg.permutation(n)] = np.arange(n) % k_folds
    return folds


def learner_folds(config: "LearnerConfig", n: int, seeds) -> np.ndarray | None:
    """The folds `fit_learner` cross-validates n rows on, one row per seed; None when the grid has one value,
    which needs no CV."""
    return fold_assignments(n, min(config.cv_folds, n), seeds) if len(config.lambda_grid) > 1 else None


def cross_validate(
    X,
    y,
    lambda_grid,
    k_folds: int = 5,
    seed: int = 0,
    learner: str = "ridge",
    kernel: str = "rbf",
    bandwidth: float | None = None,
    folds: np.ndarray | None = None,
) -> float:
    """Grid value minimizing mean held-out squared error; exact ties go to the larger lam."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    grid = sorted(float(v) for v in lambda_grid)
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    n = len(X)
    if folds is None:
        folds = fold_assignments(n, k_folds, [seed])[0]
    if min(np.bincount(folds, minlength=k_folds)) < 1:
        raise ValueError("every fold needs at least one sample")

    if learner == "ridge":
        errs = _ridge_cv_errors(ridge_rows(X, y), grid, folds, k_folds)
    elif learner == "kernel_ridge":
        if kernel == "rbf" and bandwidth is None:
            bandwidth = median_bandwidth(X)
        errs = []
        for lam in grid:
            fold_errs = []
            for j in range(k_folds):
                train, test = folds != j, folds == j
                model = kernel_ridge_fit(X[train], y[train], kernel=kernel, lam=lam, bandwidth=bandwidth)
                resid = predict(model, X[test]) - y[test]
                fold_errs.append(float(np.mean(resid**2)))
            errs.append(float(np.mean(fold_errs)))
    else:
        raise ValueError(f"unknown learner {learner!r}")

    return grid[int(_best_lambda_index(np.asarray(errs)))]


def _best_lambda_index(errs: np.ndarray) -> np.ndarray:
    """Grid index chosen from errors (..., L) over the ascending grid: the last minimum, so exact ties go
    to the larger lam; a NaN error never wins, and an all-NaN row picks the first value."""
    finite = ~np.isnan(errs)
    hit = finite & (errs <= np.where(finite, errs, np.inf).min(axis=-1, keepdims=True))
    last = errs.shape[-1] - 1 - np.argmax(hit[..., ::-1], axis=-1)
    return np.where(hit.any(axis=-1), last, 0)


def _ridge_cv_errors(rows: RidgeRows, grid: list[float], folds: np.ndarray, k_folds: int) -> np.ndarray:
    """Mean held-out squared error per grid value (..., L), as `ridge_fit` on each fold's training rows
    would give it, for the prepared rows of problems X (..., n, d), y (..., n) with folds (..., n), from one
    stacked solve."""
    if grid[0] < 0:
        raise ValueError("lam must be nonnegative")
    X, y = rows.X, rows.y
    test = folds[..., None, :] == np.arange(k_folds)[:, None]  # (..., k, n) fold indicators
    coef, intercept = weighted_ridge(rows, ~test, np.asarray(grid))  # (..., k, L, d), (..., k, L)
    # each row predicted by the models of the fold that holds it out
    held_out_coef = np.take_along_axis(coef, folds[..., None, None], axis=-3)
    held_out_intercept = np.take_along_axis(intercept, folds[..., None], axis=-2)
    pred = np.einsum("...ni,...nli->...nl", X, held_out_coef) + held_out_intercept
    sq_err = (pred - y[..., None]) ** 2
    fold_errs = np.einsum("...kn,...nl->...kl", test.astype(float), sq_err) / test.sum(axis=-1)[..., None]
    return fold_errs.mean(axis=-2)


def cv_lambdas(rows: RidgeRows, config: "LearnerConfig", folds: np.ndarray) -> np.ndarray:
    """The lam `fit_learner` picks for each ridge problem of the prepared rows (X[b] (n, d), y[b]) when the
    grid has several values: cross-validated on `folds[b]` (`learner_folds` of b's seed), in one stacked
    solve over problems, folds and grid."""
    k_folds = min(config.cv_folds, rows.X.shape[-2])
    grid = sorted(config.lambda_grid)
    return np.asarray(grid)[_best_lambda_index(_ridge_cv_errors(rows, grid, folds, k_folds))]


@dataclass(frozen=True)
class LearnerConfig:
    """Supervised learner settings shared by the estimators."""

    kind: str = "ridge"
    lambda_grid: tuple[float, ...] = field(default=DEFAULT_LAMBDA_GRID)
    cv_folds: int = 5
    kernel: str = "rbf"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("ridge", "kernel_ridge"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if not self.lambda_grid:
            raise ValueError("lambda_grid must be nonempty")
        object.__setattr__(self, "lambda_grid",
                           tuple(float(check_real("lambda_grid values", v)) for v in self.lambda_grid))
        if min(self.lambda_grid) < 0:
            raise ValueError(f"lambda_grid values must be >= 0, got {min(self.lambda_grid)}")
        # cross_validate needs two folds whenever the grid has a choice to make
        check_count("cv_folds", self.cv_folds, 2 if len(self.lambda_grid) > 1 else 1)
        if self.kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.bandwidth is not None and not check_real("bandwidth", self.bandwidth) > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    @classmethod
    def from_dict(cls, obj: dict) -> "LearnerConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"learner config must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown learner config keys: {sorted(unknown)}")
        try:
            return cls(**{k: (tuple(v) if k == "lambda_grid" else v) for k, v in obj.items()})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"learner config: {exc}") from None


def fit_learner(X, y, config: LearnerConfig, seed: int = 0):
    """Select lam on the config grid (CV if more than one value), then fit; the model records it as `lam`."""
    X = _as_matrix(X)
    if len(config.lambda_grid) == 1:
        lam = config.lambda_grid[0]
    else:
        lam = cross_validate(
            X,
            y,
            config.lambda_grid,
            k_folds=min(config.cv_folds, len(X)),
            seed=seed,
            learner=config.kind,
            kernel=config.kernel,
            bandwidth=config.bandwidth,
        )
    if config.kind == "ridge":
        return ridge_fit(X, y, lam)
    return kernel_ridge_fit(X, y, kernel=config.kernel, lam=lam, bandwidth=config.bandwidth)
