import numpy as np
import pytest

from interference_lab.regress import (
    DegenerateDesignError,
    _ridge_cv_errors,
    LearnerConfig,
    cross_validate,
    fit_learner,
    fold_assignments,
    gram_matrix,
    kernel_ridge_fit,
    median_bandwidth,
    predict,
    ridge_fit,
)


def ridge_oracle(X, y, lam, center=True):
    """Independent route: least squares on the lam-augmented system."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    if center:
        xm, ym = X.mean(axis=0), y.mean()
    else:
        xm, ym = np.zeros(X.shape[1]), 0.0
    aug_X = np.vstack([X - xm, np.sqrt(lam) * np.eye(X.shape[1])])
    aug_y = np.concatenate([y - ym, np.zeros(X.shape[1])])
    coef, *_ = np.linalg.lstsq(aug_X, aug_y, rcond=None)
    return coef, ym - xm @ coef


def test_identity_interpolation_without_centering():
    model = ridge_fit(np.eye(2), [1.0, 2.0], lam=0.0, center=False)
    np.testing.assert_allclose(model.coefficients, [1.0, 2.0], atol=1e-12)
    assert model.intercept == 0.0


def test_identity_shrinkage():
    model = ridge_fit(np.eye(2), [1.0, 2.0], lam=1.0, center=False)
    np.testing.assert_allclose(model.coefficients, [0.5, 1.0], atol=1e-12)


def test_matches_normal_equation_oracle():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    for lam in (0.0, 0.1, 10.0):
        model = ridge_fit(X, y, lam)
        coef, intercept = ridge_oracle(X, y, lam)
        np.testing.assert_allclose(model.coefficients, coef, atol=1e-8)
        assert abs(model.intercept - intercept) < 1e-8


def test_oracle_property_over_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=30)
        lam = float(rng.uniform(0.01, 5.0))
        model = ridge_fit(X, y, lam)
        coef, _ = ridge_oracle(X, y, lam)
        np.testing.assert_allclose(model.coefficients, coef, atol=1e-8)


def test_monotone_shrinkage():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    norms = [
        np.linalg.norm(ridge_fit(X, y, lam).coefficients)
        for lam in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_degenerate_unpenalized_system_reported():
    X = np.ones((5, 2))  # rank 1 after centering
    with pytest.raises(DegenerateDesignError):
        ridge_fit(X, np.arange(5.0), lam=0.0)


def test_gram_matrix_symmetric_psd():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 3))
    for kernel, bw in (("rbf", 1.3), ("linear", None)):
        K = gram_matrix(X, X, kernel, bw)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-10


def test_single_point_rbf_shrinks_by_one_plus_lam():
    model = kernel_ridge_fit(np.array([[0.7]]), np.array([2.0]), kernel="rbf", lam=0.5, bandwidth=1.0)
    np.testing.assert_allclose(predict(model, [[0.7]]), [2.0 / 1.5], atol=1e-12)


def test_linear_kernel_small_lam_matches_uncentered_ridge():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=20)
    kr = kernel_ridge_fit(X, y, kernel="linear", lam=1e-8)
    ridge = ridge_fit(X, y, lam=0.0, center=False)
    np.testing.assert_allclose(predict(kr, X), predict(ridge, X), atol=1e-4)


def test_kernel_ridge_training_predictions_match_gram_product():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    model = kernel_ridge_fit(X, y, kernel="rbf", lam=0.3, bandwidth=0.9)
    K = np.exp(-((X[:, None, :] - X[None, :, :]) ** 2).sum(-1) / (2 * 0.9**2))
    alpha = np.linalg.solve(K + 0.3 * np.eye(5), y)
    np.testing.assert_allclose(predict(model, X), K @ alpha, atol=1e-10)


def test_large_lam_predictions_shrink_toward_zero():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10) + 3.0
    preds = predict(kernel_ridge_fit(X, y, kernel="rbf", lam=1e6), X)
    assert np.max(np.abs(preds)) < 1e-2


def test_median_bandwidth_fallbacks():
    assert median_bandwidth(np.zeros((4, 2))) == 1.0
    assert median_bandwidth(np.array([[1.0]])) == 1.0


def test_predict_dimension_mismatch():
    model = ridge_fit(np.eye(3), np.arange(3.0), lam=0.1)
    with pytest.raises(ValueError, match="dimension"):
        predict(model, np.zeros((2, 2)))


def test_cross_validate_single_value_grid():
    assert cross_validate(np.eye(4), np.arange(4.0), [0.7], k_folds=2) == 0.7


def test_cross_validate_prefers_tiny_lam_on_noiseless_linear_data():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(40, 2))
    y = X @ np.array([2.0, -1.0])
    assert cross_validate(X, y, [1e-8, 10.0], k_folds=5, seed=1) == 1e-8


def test_cross_validate_exact_tie_goes_to_larger_lam():
    X = np.arange(8.0).reshape(-1, 1)
    y = np.zeros(8)  # every lam fits exactly, all errors identical
    assert cross_validate(X, y, [0.1, 1.0, 10.0], k_folds=4, seed=2) == 10.0


def test_cross_validate_permutation_stability():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, 0.5, -0.5]) + rng.normal(size=30)
    folds = fold_assignments(30, 5, seed=4)
    grid = [1e-6, 1e-3, 1.0]
    baseline = cross_validate(X, y, grid, k_folds=5, folds=folds)
    perm = rng.permutation(30)
    permuted = cross_validate(X[perm], y[perm], grid, k_folds=5, folds=folds[perm])
    assert baseline == permuted


def test_cross_validate_rejects_empty_folds():
    with pytest.raises(ValueError, match="fold"):
        cross_validate(np.eye(3), np.arange(3.0), [0.1], k_folds=4)


def test_fit_learner_kernel_ridge():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(25, 2))
    y = np.sin(X[:, 0]) + 0.01 * rng.normal(size=25)
    cfg = LearnerConfig(kind="kernel_ridge", lambda_grid=(1e-4, 1e-2, 1.0), kernel="rbf")
    model, lam = fit_learner(X, y, cfg, seed=0)
    assert lam in cfg.lambda_grid
    assert np.mean((predict(model, X) - y) ** 2) < 0.05


def test_learner_config_round_trip_and_validation():
    cfg = LearnerConfig(kind="ridge", lambda_grid=(1e-8,), cv_folds=3)
    assert LearnerConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown learner config"):
        LearnerConfig.from_dict({"kind": "ridge", "bogus": 1})
    with pytest.raises(ValueError):
        LearnerConfig(kind="forest")


def loop_cv_errors(X, y, grid, folds, center=True):
    """Reference for the batched ridge CV: one `ridge_fit` per fold and grid value."""
    k = int(folds.max()) + 1
    errs = []
    for lam in grid:
        fold_errs = []
        for j in range(k):
            train, test = folds != j, folds == j
            model = ridge_fit(X[train], y[train], lam, center=center)
            fold_errs.append(float(np.mean((predict(model, X[test]) - y[test]) ** 2)))
        errs.append(float(np.mean(fold_errs)))
    return errs


def fold_condition(X, grid, folds, center=True):
    """Largest condition number of the fold systems, per grid value."""
    conds = []
    for lam in grid:
        worst = 1.0
        for j in range(int(folds.max()) + 1):
            Xt = X[folds != j]
            Xc = Xt - Xt.mean(axis=0) if center else Xt
            worst = max(worst, np.linalg.cond(Xc.T @ Xc + lam * np.eye(X.shape[1])))
        conds.append(worst)
    return np.asarray(conds)


def loop_cv_choice(grid, errs):
    best_lam, best_err = None, np.inf
    for lam, err in zip(grid, errs):
        if err <= best_err:
            best_lam, best_err = lam, err
    return best_lam


@pytest.mark.parametrize("center", [True, False])
def test_batched_cross_validate_matches_ridge_fit_loop(center):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(10, 60)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        if d > 1 and seed % 3 == 0:  # near-collinear columns, as in cmp's interaction feature
            X[:, -1] = X[:, 0] + 1e-3 * rng.normal(size=n)
        y = X @ rng.normal(size=d) + rng.uniform(0.0, 2.0) * rng.normal(size=n) + rng.normal()
        grid = sorted(float(v) for v in np.logspace(-8, 3, int(rng.integers(2, 11))))
        folds = fold_assignments(n, k, seed)
        want = loop_cv_errors(X, y, grid, folds, center=center)
        got = _ridge_cv_errors(X, y, grid, folds, k, center)
        # the two routes round differently; a solve's relative error grows with the condition number
        rtol = 1e3 * np.finfo(float).eps * fold_condition(X, grid, folds, center)
        assert np.all(np.abs(got - want) <= rtol * np.abs(want))
        chosen = cross_validate(X, y, grid, k_folds=k, seed=seed, center=center)
        assert chosen == loop_cv_choice(grid, want)


@pytest.mark.parametrize("center", [True, False])
def test_batched_cross_validate_exact_tie_matches_loop(center):
    X = np.arange(12.0).reshape(-1, 2)
    y = np.zeros(6)  # every lam predicts zero exactly: all errors tie
    grid = [1e-3, 0.1, 1.0, 10.0]
    folds = fold_assignments(6, 3, seed=5)
    errs = _ridge_cv_errors(X, y, grid, folds, 3, center)
    assert errs.tolist() == loop_cv_errors(X, y, grid, folds, center=center)
    assert len(set(errs.tolist())) == 1
    assert cross_validate(X, y, grid, k_folds=3, seed=5, center=center) == 10.0


def test_batched_cross_validate_rank_deficient_lam_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 1))
    X = np.hstack([x, 2.0 * x])  # duplicate direction: singular at lam=0
    y = rng.normal(size=20)
    folds = fold_assignments(20, 4, seed=1)
    with pytest.raises(DegenerateDesignError, match="rank-deficient"):
        loop_cv_errors(X, y, [0.0, 1.0], folds)
    with pytest.raises(DegenerateDesignError, match="rank-deficient"):
        cross_validate(X, y, [1.0, 0.0], k_folds=4, seed=1)
    assert cross_validate(X, y, [0.1, 1.0], k_folds=4, seed=1) in (0.1, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        cross_validate(X, y, [-1.0, 1.0], k_folds=4, seed=1)
