"""Causal message passing: temporal feature construction, state-evolution
fitting, counterfactual recursion, and the stratified network bootstrap
partition. Uses outcome and treatment panels only; the dataset's graph field
is never read, so results are identical whether a graph is present, absent,
or replaced.

The state-evolution model is one additive map, shared by every transition of
the panel's own T rows, from population summary statistics at period t
(mean, central moments 2 up to the configured order, and the next-period
treated fraction) to the mean outcome at t+1. Counterfactual trajectories
recurse that map with the treated fraction pinned at 1 or 0; higher-moment
features are held at the last observed values, so only the mean path is
propagated.

Every step works on a batch of count rows (how often each unit is drawn):
the estimate is the batch of one all-ones row, and the bootstrap scores a
chunk of resamples at once. A resample's moments come from rows built once
per estimate, the powers of each outcome's deviation from its period's
full-sample mean, weighted by the resample's counts. Its treated fractions
come from its count per treatment history (the distinct rows of the
assignments, also labelled once per estimate) times those histories. Each
draw's features, fit and recursion are the same whichever chunk holds it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .core import (
    AllocationScenario,
    BootstrapConfig,
    EffectEstimate,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
    bootstrap_estimate,
    check_count,
    row_classes,
)
from .regress import LearnerConfig, RidgeModel, cv_lambdas, learner_folds, ridge_rows, weighted_ridge
from .rng import child_seeds, substream

N_BASELINE_BINS = 4


@dataclass(frozen=True, eq=False)
class StateFeatures:
    """One row per transition t -> t+1 over the observed panel."""

    table: np.ndarray
    targets: np.ndarray
    baseline_mean: float
    final_moments: np.ndarray

    def __post_init__(self):
        for name in ("table", "targets", "final_moments"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class _Panel:
    """What the moments read of a dataset.

    `period_means` holds each period's full-sample mean ȳ (T + 1,) and `sum_rows` the read-only
    (order * (T + 1), n) block whose count-weighted sums give every power sum: (y - ȳ)^k for k = 1..order.
    `history` labels each unit by its treatment history (its row of the assignments) and `patterns` holds the
    (classes, T) distinct histories, so a resample's treated counts are its count per class times `patterns`.
    """

    moment_order: int
    period_means: np.ndarray
    sum_rows: np.ndarray
    history: np.ndarray
    patterns: np.ndarray

    @property
    def n_periods(self) -> int:
        return len(self.period_means) - 1


def _panel(d: ExperimentDataset, moment_order: int) -> _Panel:
    if moment_order < 1:
        raise ValueError("moment_order must be >= 1")
    T = d.n_periods
    if T < 2:
        raise ValueError(f"need at least 2 transitions, got T={T}")
    outcomes = np.ascontiguousarray(d.outcomes.outcomes.T)
    period_means = outcomes.mean(axis=1)
    sum_rows = np.empty((moment_order, T + 1, d.n_units))
    np.subtract(outcomes, period_means[:, None], out=sum_rows[0])
    for k in range(1, moment_order):
        np.multiply(sum_rows[k - 1], sum_rows[0], out=sum_rows[k])
    sum_rows = sum_rows.reshape(-1, d.n_units)
    assignments = d.treatments.assignments
    history, n_classes = row_classes(assignments)
    patterns = np.empty((n_classes, T))
    patterns[history] = assignments
    for a in (sum_rows, history, patterns):
        a.setflags(write=False)
    return _Panel(moment_order=moment_order, period_means=period_means, sum_rows=sum_rows, history=history,
                  patterns=patterns)


def _count_features(panel: _Panel, counts: np.ndarray):
    """(table (m, T, order + 1), targets (m, T), baseline mean (m,), final moments (m, order)) of each count
    row's resample (m, n), which is never built: one einsum weights `sum_rows` by the counts, and each row's
    count per treatment history times `patterns` gives its treated counts. Those are sums of integers, exact in
    any order, so they equal the count-weighted sums of the treatment rows bit for bit.

    Per period, the weighted mean holds the power sums r_k, the resample's mean of (y - ȳ)^k, and the treated
    fraction. The mean is ȳ + r_1 and the central moments are the binomial expansion about that shift,
    E[(y - ȳ - r_1)^k] = Σ_j C(k, j) r_j (-r_1)^(k-j) with r_0 = 1; an even one that rounds below 0 (a
    resample with no spread in a period) is 0. A row's values do not depend on the other rows.
    """
    weights = counts.astype(float)
    n = counts.shape[1]
    sums = np.einsum("gn,jn->gj", weights, panel.sum_rows) / n
    r = sums.reshape(len(sums), panel.moment_order, -1).swapaxes(1, 2)  # (m, T + 1, order): r_1..r_order
    per_class = np.empty((len(weights), len(panel.patterns)))
    for i, row in enumerate(weights):
        per_class[i] = np.bincount(panel.history, weights=row, minlength=len(panel.patterns))
    treated = np.einsum("mk,kt->mt", per_class, panel.patterns) / n
    minus_r1 = -r[..., 0]
    moments = np.empty_like(r)
    moments[..., 0] = panel.period_means - minus_r1
    for k in range(2, panel.moment_order + 1):
        central = minus_r1**k
        for j in range(1, k + 1):
            central = central + math.comb(k, j) * r[..., j - 1] * minus_r1 ** (k - j)
        moments[..., k - 1] = np.maximum(central, 0.0) if k % 2 == 0 else central
    means = moments[..., 0]
    table = np.concatenate([moments[:, :-1], treated[..., None]], axis=-1)
    return table, means[:, 1:], means[:, 0], moments[:, -1]


def build_features(d: ExperimentDataset, moment_order: int = 2) -> StateFeatures:
    """Summary-statistic rows for every transition; reads panels only, never the graph."""
    panel = _panel(d, moment_order)
    table, targets, baseline, final = _count_features(panel, np.ones((1, d.n_units)))
    return StateFeatures(table=table[0], targets=targets[0], baseline_mean=float(baseline[0]), final_moments=final[0])


def check_ridge_learner(learner: LearnerConfig) -> None:
    """The state evolution is linear: `counterfactual_evolution` recurses its ridge coefficients."""
    if learner.kind != "ridge":
        raise ValueError("state evolution uses the ridge learner")


@dataclass(frozen=True, eq=False)
class StateEvolutionModel:
    """Fitted one-step map from state features to the next-period mean outcome, shared by every transition."""

    model: RidgeModel
    context_moments: np.ndarray

    def __post_init__(self):
        a = np.array(self.context_moments, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "context_moments", a)


def _fit_maps(table, targets, learner: LearnerConfig, folds):
    """Each problem's state-evolution map: coefficients (m, d), intercepts (m,) and lam (m,), from tables
    (m, T, d); `folds` (m, T) are the CV folds, from `learner_folds`. The lambda CV and the fit share one set of
    ridge rows."""
    m, T, d = table.shape
    if T < d + 2:
        raise ValueError(f"cmp needs T >= {d + 2} transitions to fit its {d + 1} coefficients at moment order "
                         f"{d - 1}, got T={T}")
    rows = ridge_rows(table, targets)
    if folds is not None:
        lam = cv_lambdas(rows, learner, folds)
    else:
        lam = np.full(m, learner.lambda_grid[0])
    coef, intercept = weighted_ridge(rows, np.ones((m, 1, T)), lam[:, None, None])  # (m, 1, 1, d), (m, 1, 1)
    return coef[:, 0, 0], intercept[:, 0, 0], lam


def fit_state_evolution(
    features: StateFeatures,
    learner: LearnerConfig | None = None,
    seed: int = 0,
) -> StateEvolutionModel:
    """Ridge fit of one additive map shared by every transition row."""
    learner = learner or LearnerConfig()
    check_ridge_learner(learner)
    coef, intercept, lam = _fit_maps(
        features.table[None], features.targets[None], learner, learner_folds(learner, len(features.table), [seed]),
    )
    return StateEvolutionModel(
        model=RidgeModel(coef[0], float(intercept[0]), float(lam[0])), context_moments=features.final_moments,
    )


def _evolve(coef, intercept, context, baseline, p: float, T: int) -> np.ndarray:
    """Mean-outcome paths (m, T + 1) from the baselines: each problem's map (coefficients (m, d), intercepts
    (m,)) recursed with the treated fraction pinned at p."""
    # The feature row [mean, context[1:], p] is affine in the mean, so the map is the scalar step
    # mean <- a * mean + b.
    slope = coef[:, 0]
    offset = intercept + np.einsum("mj,mj->m", coef[:, 1:-1], context[:, 1:]) + p * coef[:, -1]
    means = np.empty((len(coef), T + 1))
    means[:, 0] = baseline
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged path is reported below
        for t in range(T):
            means[:, t + 1] = slope * means[:, t] + offset
    diverged = np.argwhere(~np.isfinite(means[:, 1:]))
    if diverged.size:
        raise RuntimeError(f"counterfactual recursion diverged at period {diverged[0, 1] + 1}")
    return means


def counterfactual_evolution(
    model: StateEvolutionModel,
    baseline_mean: float,
    allocation: AllocationScenario,
    T: int,
) -> np.ndarray:
    """Read-only mean-outcome path for periods 0..T under a constant allocation, from the observed
    baseline: the fitted map recursed with the treated fraction pinned at 1 or 0."""
    path = _evolve(
        model.model.coefficients[None], np.array([model.model.intercept]), model.context_moments[None],
        baseline_mean, 1.0 if allocation is AllocationScenario.ALL_TREATED else 0.0, T,
    )[0]
    path.setflags(write=False)
    return path


def _adoption_stage(assignments: np.ndarray) -> np.ndarray:
    """First treated period per unit; never-treated units get T+1."""
    n, T = assignments.shape
    treated_any = assignments.any(axis=1)
    first = np.where(treated_any, assignments.argmax(axis=1) + 1, T + 1)
    return first


def network_bootstrap(d: ExperimentDataset, n_subpopulations: int, seed: int) -> list[ExperimentDataset]:
    """Partition units into representative subpopulations (disjoint, exhaustive).

    Units are stratified by baseline-outcome quartile crossed with treatment
    adoption stage, ordered by baseline within each stratum, and dealt
    round-robin by a single pointer that runs across strata (the seed rotates
    its start). The rolling pointer keeps sizes within 1 of each other both
    per stratum and overall, so each subpopulation preserves the population's
    outcome-level and treatment-timing marginals.
    """
    n = d.n_units
    if n_subpopulations < 2:
        raise ValueError("need at least 2 subpopulations")
    if n < 2 * n_subpopulations:
        raise ValueError(f"need N >= {2 * n_subpopulations} units for {n_subpopulations} subpopulations")
    ranked = np.argsort(d.outcomes.outcomes[:, 0], kind="stable")
    stage = _adoption_stage(d.treatments.assignments)[ranked]
    quartile = np.arange(n) * N_BASELINE_BINS // n
    dealt = ranked[np.argsort(quartile * (stage.max() + 1) + stage, kind="stable")]
    labels = np.empty(n, dtype=np.intp)
    labels[dealt] = (substream(seed, "deal-start").integers(n_subpopulations) + np.arange(n)) % n_subpopulations
    return [subset_dataset(d, np.flatnonzero(labels == j)) for j in range(n_subpopulations)]


def subset_dataset(d: ExperimentDataset, rows: np.ndarray) -> ExperimentDataset:
    """Dataset restricted to the given row multiset (re-indexed, graph dropped)."""
    cov = UnitCovariates(d.covariates.values[rows]) if d.covariates is not None else None
    return ExperimentDataset(
        outcomes=OutcomePanel(d.outcomes.outcomes[rows]),
        treatments=TreatmentPanel(d.treatments.assignments[rows], design_tag=d.treatments.design_tag),
        pre_period_end=d.pre_period_end,
        graph=None,
        covariates=cov,
    )


@dataclass(frozen=True)
class CmpConfig:
    """Causal-message-passing estimator settings.

    `n_subpopulations` is accepted and checked (>= 2) so that configs and callers that set it keep working;
    no estimator code reads it, since the map is fit on the panel's own transition rows.
    """

    moment_order: int = 2
    n_subpopulations: int = 10
    learner: LearnerConfig = LearnerConfig(lambda_grid=tuple(float(x) for x in np.logspace(-8, 2, 6)))
    # Constructor-only and never stored, so that callers passing True keep working; any other value asked
    # for the per-period maps, which are gone.
    time_homogeneous: InitVar[bool] = True
    seed: int = 0

    def __post_init__(self, time_homogeneous):
        if time_homogeneous is not True:
            raise ValueError("time_homogeneous must be true: the per-period state-evolution maps were removed")
        check_count("moment_order", self.moment_order, 1)
        check_count("n_subpopulations", self.n_subpopulations, 2)
        check_ridge_learner(self.learner)


def _cmp_contrasts(panel: _Panel, counts: np.ndarray, learner: LearnerConfig, folds) -> np.ndarray:
    """Final-period all-treated minus all-control mean for each count row's resample, cross-validated on
    `folds` (m, T) or None."""
    table, targets, baseline, final = _count_features(panel, counts)
    coef, intercept, _ = _fit_maps(table, targets, learner, folds)
    treated, control = (_evolve(coef, intercept, final, baseline, p, panel.n_periods) for p in (1.0, 0.0))
    return treated[:, -1] - control[:, -1]


def estimate_tte_cmp(
    d: ExperimentDataset,
    config: CmpConfig | None = None,
    bootstrap: BootstrapConfig | None = None,
) -> EffectEstimate:
    """Final-period contrast of the all-treated and all-control counterfactual evolutions of one additive
    state-evolution map, fit on the panel's T transition rows.

    The map has moment order + 2 coefficients (intercept, mean, central moments 2..order, next treated
    fraction), so the panel needs T >= order + 3; a shorter one fails with a ValueError that names T and the
    order. The CI re-estimates over unit resamples. A resample's fit seed is `child_seed(seed, "fit", *draw)`,
    read through its "cv-folds" stream only when the lambda grid has several values; the folds of all draws
    are derived once, before the first draw.
    """
    config = config or CmpConfig()
    bootstrap = bootstrap or BootstrapConfig()
    panel = _panel(d, config.moment_order)
    ones = np.ones((1, d.n_units), dtype=np.int64)
    point_folds = learner_folds(config.learner, panel.n_periods, child_seeds(config.seed, ["fit"]))
    point = float(_cmp_contrasts(panel, ones, config.learner, point_folds)[0])
    folds = learner_folds(config.learner, panel.n_periods,
                          child_seeds(bootstrap.seed, ["fit"], range(bootstrap.n_replicates)))

    def statistic(counts, draws) -> np.ndarray:
        return _cmp_contrasts(panel, counts, config.learner, None if folds is None else folds[draws.start:draws.stop])

    return bootstrap_estimate("cmp", point, bootstrap, "cmp-boot", d.n_units, statistic)
