import dataclasses

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
    learner_folds,
    median_bandwidth,
    predict,
    ridge_fit,
    ridge_rows,
    weighted_ridge,
)

import reference_rng


def ridge_oracle(X, y, lam):
    """Independent route: least squares on the lam-augmented system."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    xm, ym = X.mean(axis=0), y.mean()
    aug_X = np.vstack([X - xm, np.sqrt(lam) * np.eye(X.shape[1])])
    aug_y = np.concatenate([y - ym, np.zeros(X.shape[1])])
    coef, *_ = np.linalg.lstsq(aug_X, aug_y, rcond=None)
    return coef, ym - xm @ coef


# Mean-zero columns with X'X = 2I and a mean-zero y = X @ [1, 2]: centering changes nothing.
CENTERED_X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
CENTERED_Y = np.array([1.0, -1.0, 2.0, -2.0])


def test_identity_interpolation_without_centering():
    model = ridge_fit(CENTERED_X, CENTERED_Y, lam=0.0)
    np.testing.assert_allclose(model.coefficients, [1.0, 2.0], atol=1e-12)
    assert model.intercept == 0.0


def test_identity_shrinkage():
    model = ridge_fit(CENTERED_X, CENTERED_Y, lam=2.0)
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
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)  # least squares without an intercept
    np.testing.assert_allclose(predict(kr, X), X @ coef, atol=1e-4)


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
    folds = reference_rng.fold_assignments(30, 5, 4)
    grid = [1e-6, 1e-3, 1.0]
    baseline = cross_validate(X, y, grid, k_folds=5, folds=folds)
    perm = rng.permutation(30)
    permuted = cross_validate(X[perm], y[perm], grid, k_folds=5, folds=folds[perm])
    assert baseline == permuted


@pytest.mark.parametrize("n_seeds", [0, 1, 3, 40])
def test_fold_assignments_batch_matches_one_seed_folds(n_seeds):
    seeds = [-1, 0, 2**32, 2**64 - 1] + list(range(5, 5 + n_seeds))
    seeds = seeds[:n_seeds]
    folds = fold_assignments(13, 4, np.array(seeds, dtype=object))
    assert folds.shape == (n_seeds, 13)
    for row, seed in zip(folds, seeds):
        np.testing.assert_array_equal(row, reference_rng.fold_assignments(13, 4, seed))
    np.testing.assert_array_equal(learner_folds(LearnerConfig(cv_folds=20), 13, seeds), fold_assignments(13, 13, seeds))
    assert learner_folds(LearnerConfig(lambda_grid=(1.0,)), 13, seeds) is None  # one grid value: no CV


def test_cross_validate_uses_the_seed_folds():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 2))
    y = X @ np.array([1.0, -2.0]) + rng.normal(size=25)
    grid = list(np.logspace(-6, 2, 9))
    for seed in (0, 7, -3):
        folds = reference_rng.fold_assignments(25, 5, seed)
        assert cross_validate(X, y, grid, k_folds=5, seed=seed) == cross_validate(X, y, grid, k_folds=5, folds=folds)


def test_cross_validate_rejects_empty_folds():
    with pytest.raises(ValueError, match="fold"):
        cross_validate(np.eye(3), np.arange(3.0), [0.1], k_folds=4)


def test_fit_learner_kernel_ridge():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(25, 2))
    y = np.sin(X[:, 0]) + 0.01 * rng.normal(size=25)
    cfg = LearnerConfig(kind="kernel_ridge", lambda_grid=(1e-4, 1e-2, 1.0), kernel="rbf")
    model = fit_learner(X, y, cfg, seed=0)
    assert model.lam in cfg.lambda_grid
    assert np.mean((predict(model, X) - y) ** 2) < 0.05


def test_learner_config_round_trip_and_validation():
    cfg = LearnerConfig(kind="ridge", lambda_grid=(1e-8,), cv_folds=3)
    assert LearnerConfig.from_dict(dataclasses.asdict(cfg)) == cfg
    with pytest.raises(ValueError, match="unknown learner config"):
        LearnerConfig.from_dict({"kind": "ridge", "bogus": 1})
    with pytest.raises(ValueError):
        LearnerConfig(kind="forest")


def loop_cv_errors(X, y, grid, folds):
    """Reference for the batched ridge CV: one `ridge_fit` per fold and grid value."""
    k = int(folds.max()) + 1
    errs = []
    for lam in grid:
        fold_errs = []
        for j in range(k):
            train, test = folds != j, folds == j
            model = ridge_fit(X[train], y[train], lam)
            fold_errs.append(float(np.mean((predict(model, X[test]) - y[test]) ** 2)))
        errs.append(float(np.mean(fold_errs)))
    return errs


def fold_condition(X, grid, folds):
    """Largest condition number of the fold systems, per grid value."""
    conds = []
    for lam in grid:
        worst = 1.0
        for j in range(int(folds.max()) + 1):
            Xt = X[folds != j]
            Xc = Xt - Xt.mean(axis=0)
            worst = max(worst, np.linalg.cond(Xc.T @ Xc + lam * np.eye(X.shape[1])))
        conds.append(worst)
    return np.asarray(conds)


def loop_cv_choice(grid, errs):
    best_lam, best_err = None, np.inf
    for lam, err in zip(grid, errs):
        if err <= best_err:
            best_lam, best_err = lam, err
    return best_lam


# Rows moved far from the origin: each fit centers first on the rows' own means, then on its weighted means.
SHIFT = 100.0


@pytest.mark.parametrize("shifted", [True, False])
def test_batched_cross_validate_matches_ridge_fit_loop(shifted):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(10, 60)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        if d > 1 and seed % 3 == 0:  # near-collinear columns
            X[:, -1] = X[:, 0] + 1e-3 * rng.normal(size=n)
        y = X @ rng.normal(size=d) + rng.uniform(0.0, 2.0) * rng.normal(size=n) + rng.normal()
        if shifted:
            X, y = X + SHIFT, y + SHIFT
        grid = sorted(float(v) for v in np.logspace(-8, 3, int(rng.integers(2, 11))))
        folds = reference_rng.fold_assignments(n, k, seed)
        want = loop_cv_errors(X, y, grid, folds)
        got = _ridge_cv_errors(ridge_rows(X, y), grid, folds, k)
        # the two routes round differently; a solve's relative error grows with the condition number
        rtol = 1e3 * np.finfo(float).eps * fold_condition(X, grid, folds)
        assert np.all(np.abs(got - want) <= rtol * np.abs(want))
        chosen = cross_validate(X, y, grid, k_folds=k, seed=seed)
        assert chosen == loop_cv_choice(grid, want)


@pytest.mark.parametrize("shifted", [True, False])
def test_batched_cross_validate_exact_tie_matches_loop(shifted):
    X = np.arange(12.0).reshape(-1, 2) + (SHIFT if shifted else 0.0)
    y = np.full(6, SHIFT if shifted else 0.0)  # every lam predicts y exactly: all errors tie
    grid = [1e-3, 0.1, 1.0, 10.0]
    folds = reference_rng.fold_assignments(6, 3, 5)
    errs = _ridge_cv_errors(ridge_rows(X, y), grid, folds, 3)
    assert errs.tolist() == loop_cv_errors(X, y, grid, folds)
    assert len(set(errs.tolist())) == 1
    assert cross_validate(X, y, grid, k_folds=3, seed=5) == 10.0


def test_batched_cross_validate_rank_deficient_lam_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 1))
    X = np.hstack([x, 2.0 * x])  # duplicate direction: singular at lam=0
    y = rng.normal(size=20)
    folds = reference_rng.fold_assignments(20, 4, 1)
    with pytest.raises(DegenerateDesignError, match="rank-deficient"):
        loop_cv_errors(X, y, [0.0, 1.0], folds)
    with pytest.raises(DegenerateDesignError, match="rank-deficient"):
        cross_validate(X, y, [1.0, 0.0], k_folds=4, seed=1)
    assert cross_validate(X, y, [0.1, 1.0], k_folds=4, seed=1) in (0.1, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        cross_validate(X, y, [-1.0, 1.0], k_folds=4, seed=1)


def weighted_problem(batch, seed=0, n=30, d=3, n_weights=5, shifted=False):
    """Rows X (*batch, n, d), y (*batch, n) and count-like weights (*batch, n_weights, n); the first weight
    row is zero on a third of the units. `shifted` moves X and y by SHIFT."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=batch + (n, d)) * rng.uniform(0.1, 10.0, size=d)
    y = X @ rng.normal(size=d) + rng.normal(size=batch + (n,))
    w = rng.integers(0, 4, size=batch + (n_weights, n))
    w[..., 0, : n // 3] = 0
    offset = SHIFT if shifted else 0.0
    return X + offset, y + offset, w


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("shifted", [True, False])
def test_weighted_ridge_fits_a_stack_of_weight_rows_as_each_row_alone(shifted, batch):
    X, y, w = weighted_problem(batch, shifted=shifted)
    rows = ridge_rows(X, y)
    lams = np.array([1e-3, 1.0, 30.0])
    coef, intercept = weighted_ridge(rows, w, lams)
    assert coef.shape == batch + (w.shape[-2], 3, X.shape[-1]) and intercept.shape == coef.shape[:-1]
    for i in range(w.shape[-2]):
        one_coef, one_intercept = weighted_ridge(rows, w[..., i:i + 1, :], lams)
        np.testing.assert_array_equal(coef[..., i:i + 1, :, :], one_coef)
        np.testing.assert_array_equal(intercept[..., i:i + 1, :], one_intercept)


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("shifted", [True, False])
def test_prepared_rows_reused_over_weight_chunks_equal_fresh_ones(shifted, batch):
    X, y, w = weighted_problem(batch, seed=1, n_weights=6, shifted=shifted)
    rows = ridge_rows(X, y)
    for chunk in np.split(w, [1, 4], axis=-2):
        for lams in (0.5, np.array([[0.0], [1e-6], [2.0]])[: chunk.shape[-2]]):
            got = weighted_ridge(rows, chunk, lams)
            want = weighted_ridge(ridge_rows(X.copy(), y.copy()), chunk, lams)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


def test_weighted_ridge_at_lam_zero_rejects_a_rank_deficient_resample():
    X, y, w = weighted_problem((), seed=2)
    X[:10, 1] = 2.0 * X[:10, 0]  # collinear on the units the first weight row draws, not on the rest
    w[0, :10], w[0, 10:] = 1, 0
    rows = ridge_rows(X, y)
    weighted_ridge(rows, w[1:], 0.0)
    weighted_ridge(rows, w, 0.1)
    with pytest.raises(DegenerateDesignError, match="rank-deficient"):
        weighted_ridge(rows, w, 0.0)
    X[:10, 1] = 5.0  # constant on the resample: singular once centered on the resample's mean
    with pytest.raises(DegenerateDesignError, match="rank-deficient"):
        weighted_ridge(ridge_rows(X, y), w[:1], 0.0)
    weighted_ridge(ridge_rows(X, y), w[1:], 0.0)


def test_prepared_rows_are_read_only_and_leave_the_inputs_writable():
    X, y, _ = weighted_problem(())
    rows = ridge_rows(X, y)
    for arr in (rows.X, rows.y, rows.sx, rows.sy, rows.outer):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    X[0, 0] = y[0] = 1.0
