"""Ridge and kernel ridge regression with k-fold cross-validation.

Everything here is a small dense problem (at most a few thousand rows), so
fits use direct factorizations. Ridge solves the centered normal equations

    (Xc' Xc + lam * I) beta = Xc' y_c,   intercept = mean(y) - mean(X) @ beta

and kernel ridge solves (K + lam * I) alpha = y on the raw Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import check_count, check_flag
from .rng import substream

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


def ridge_fit(X, y, lam: float, center: bool = True) -> RidgeModel:
    """Penalized least squares on (internally centered) data."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n < 1:
        raise ValueError("need at least one training row")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if center:
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
    else:
        x_mean = np.zeros(d)
        y_mean = 0.0
    Xc = X - x_mean
    A = Xc.T @ Xc + lam * np.eye(d)
    if lam == 0 and np.linalg.matrix_rank(A) < d:
        raise DegenerateDesignError("rank-deficient design with lam=0; increase lam or drop columns")
    coef = np.linalg.solve(A, Xc.T @ (y - y_mean))
    return RidgeModel(coefficients=coef, intercept=y_mean - float(x_mean @ coef), lam=float(lam))


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


def fold_assignments(n: int, k_folds: int, seed: int) -> np.ndarray:
    """Deterministic balanced fold index per row, derived from the seed."""
    perm = substream(seed, "cv-folds").permutation(n)
    folds = np.empty(n, dtype=int)
    folds[perm] = np.arange(n) % k_folds
    return folds


def cross_validate(
    X,
    y,
    lambda_grid,
    k_folds: int = 5,
    seed: int = 0,
    learner: str = "ridge",
    kernel: str = "rbf",
    bandwidth: float | None = None,
    center: bool = True,
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
        folds = fold_assignments(n, k_folds, seed)
    if min(np.bincount(folds, minlength=k_folds)) < 1:
        raise ValueError("every fold needs at least one sample")

    if learner == "ridge":
        errs = _ridge_cv_errors(X, y, grid, folds, k_folds, center)
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

    best_lam, best_err = grid[0], np.inf
    for lam, err in zip(grid, errs):
        if err <= best_err:
            best_lam, best_err = lam, err
    return best_lam


def _ridge_cv_errors(X, y, grid: list[float], folds: np.ndarray, k_folds: int, center: bool) -> np.ndarray:
    """Mean held-out squared error per grid value, as `ridge_fit` on each fold's
    training rows would give it, from one stacked solve over folds x grid."""
    if grid[0] < 0:
        raise ValueError("lam must be nonnegative")
    d = X.shape[1]
    test = (folds == np.arange(k_folds)[:, None]).astype(float)  # (k, n) fold indicators
    train = 1.0 - test
    if center:
        n_train = train.sum(axis=1)
        x_mean = (train @ X) / n_train[:, None]
        y_mean = (train @ y) / n_train
    else:
        x_mean = np.zeros((k_folds, d))
        y_mean = np.zeros(k_folds)
    Xc = (X - x_mean[:, None, :]) * train[:, :, None]  # (k, n, d), held-out rows zeroed
    yc = (y - y_mean[:, None]) * train
    Xc_t = np.swapaxes(Xc, 1, 2)
    gram = Xc_t @ Xc
    if grid[0] == 0 and (np.linalg.matrix_rank(gram) < d).any():
        raise DegenerateDesignError("rank-deficient design with lam=0; increase lam or drop columns")
    lams = np.asarray(grid)
    A = gram[:, None] + lams[:, None, None] * np.eye(d)  # (k, L, d, d)
    coef = np.linalg.solve(A, (Xc_t @ yc[:, :, None])[:, None])[..., 0]  # (k, L, d)
    intercept = y_mean[:, None] - np.einsum("ki,kli->kl", x_mean, coef)
    # each row predicted by the models of the fold that holds it out
    pred = np.einsum("ni,nli->nl", X, coef[folds]) + intercept[folds]
    fold_errs = (test @ (pred - y[:, None]) ** 2) / test.sum(axis=1)[:, None]
    return fold_errs.mean(axis=0)


@dataclass(frozen=True)
class LearnerConfig:
    """Supervised learner settings shared by the estimators."""

    kind: str = "ridge"
    lambda_grid: tuple[float, ...] = field(default=DEFAULT_LAMBDA_GRID)
    cv_folds: int = 5
    kernel: str = "rbf"
    bandwidth: float | None = None
    center: bool = True

    def __post_init__(self):
        if self.kind not in ("ridge", "kernel_ridge"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if not self.lambda_grid:
            raise ValueError("lambda_grid must be nonempty")
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        if min(self.lambda_grid) < 0:
            raise ValueError(f"lambda_grid values must be >= 0, got {min(self.lambda_grid)}")
        # cross_validate needs two folds whenever the grid has a choice to make
        check_count("cv_folds", self.cv_folds, 2 if len(self.lambda_grid) > 1 else 1)
        if self.kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        check_flag("center", self.center)

    @classmethod
    def from_dict(cls, obj: dict) -> "LearnerConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"learner config must be a JSON object, got {type(obj).__name__}")
        known = {"kind", "lambda_grid", "cv_folds", "kernel", "bandwidth", "center"}
        unknown = set(obj) - known
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
            center=config.center,
        )
    if config.kind == "ridge":
        return ridge_fit(X, y, lam, center=config.center)
    return kernel_ridge_fit(X, y, kernel=config.kernel, lam=lam, bandwidth=config.bandwidth)
