"""Causal message passing: temporal feature construction, state-evolution
fitting, counterfactual recursion, and the distribution-preserving network
bootstrap. Uses outcome and treatment panels only; the dataset's graph field
is never read, so results are identical whether a graph is present, absent,
or replaced.

The state-evolution model is one map, shared by every transition, from
population summary statistics at period t (mean, central moments up to the
configured order, next-period treated fraction, and a centered
mean-by-treatment interaction) to the mean outcome at t+1. Counterfactual
trajectories recurse that map with the treated fraction pinned at 1 or 0;
higher-moment features are held at the last observed values, so only the
mean path is propagated.

Every step works on a batch of count rows (how often each unit is drawn):
the estimate is the batch of one all-ones row, and the bootstrap scores a
chunk of resamples at once. The moments of any multiset of units (a
resample, or a subpopulation pooled on short panels) come from sums of rows
built once per estimate, the powers of each outcome's deviation from its
period's full-sample mean: a resample weights them by its counts, and a
subpopulation adds up the columns of its copies. Each draw's features, fit and
recursion are the same whichever chunk holds it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .core import (
    CHUNK_BYTES,
    AllocationScenario,
    BootstrapConfig,
    EffectEstimate,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
    bootstrap_estimate,
    check_count,
)
from .regress import LearnerConfig, RidgeModel, cv_lambdas, learner_folds, ridge_rows, weighted_ridge
from .rng import child_seeds, substreams

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
    """What the moments and the deal read of a dataset.

    `period_means` holds each period's full-sample mean ȳ (T + 1,) and `sum_rows` the read-only
    ((order + 1) * (T + 1), n) block whose sums give every moment: the powers (y - ȳ)^k for k = 1..order, then
    the treatment rows zero-padded to T + 1.
    """

    moment_order: int
    baseline_order: np.ndarray
    stage: np.ndarray
    period_means: np.ndarray
    sum_rows: np.ndarray

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
    sum_rows = np.zeros((moment_order + 1, T + 1, d.n_units))
    np.subtract(outcomes, period_means[:, None], out=sum_rows[0])
    for k in range(1, moment_order):
        np.multiply(sum_rows[k - 1], sum_rows[0], out=sum_rows[k])
    sum_rows[-1, :T] = d.treatments.assignments.T
    sum_rows = sum_rows.reshape(-1, d.n_units)
    sum_rows.setflags(write=False)
    return _Panel(
        moment_order=moment_order,
        baseline_order=np.argsort(d.outcomes.outcomes[:, 0], kind="stable"),
        stage=_adoption_stage(d.treatments.assignments),
        period_means=period_means,
        sum_rows=sum_rows,
    )


def _sum_features(panel: _Panel, sums: np.ndarray):
    """(table, targets, baseline mean, final moments) of each multiset of units from the mean of its copies'
    `sum_rows` columns, one row each (G, (order + 1) * (T + 1)).

    Per period, that mean holds the power sums r_k, the multiset's mean of (y - ȳ)^k, and the treated
    fraction. The mean is ȳ + r_1 and the central moments are the binomial expansion about that shift,
    E[(y - ȳ - r_1)^k] = Σ_j C(k, j) r_j (-r_1)^(k-j) with r_0 = 1; an even one that rounds below 0 (a
    multiset with no spread in a period) is 0. A row's values do not depend on the other rows.
    """
    sums = sums.reshape(len(sums), panel.moment_order + 1, -1)
    r = sums[:, :-1].swapaxes(1, 2)  # (G, T + 1, order): r_1..r_order
    minus_r1 = -r[..., 0]
    moments = np.empty_like(r)
    moments[..., 0] = panel.period_means - minus_r1
    for k in range(2, panel.moment_order + 1):
        central = minus_r1**k
        for j in range(1, k + 1):
            central = central + math.comb(k, j) * r[..., j - 1] * minus_r1 ** (k - j)
        moments[..., k - 1] = np.maximum(central, 0.0) if k % 2 == 0 else central
    means, p_next = moments[..., 0], sums[:, -1, :-1]
    table = np.concatenate([moments[:, :-1], p_next[..., None], (means[:, :-1] * p_next)[..., None]], axis=-1)
    return table, means[:, 1:], means[:, 0], moments[:, -1]


def _count_features(panel: _Panel, counts: np.ndarray):
    """`_sum_features` of each count row's full resample (m, n): one einsum weights `sum_rows` by the counts,
    so the resample is never built."""
    return _sum_features(panel, np.einsum("gn,jn->gj", counts.astype(float), panel.sum_rows) / counts.shape[1])


def _subpopulation_features(panel: _Panel, members: np.ndarray, sizes: np.ndarray):
    """`_sum_features` of each subpopulation of `_deal`'s partitions (members (m, n), sizes (m, k)), one row per
    (resample, subpopulation): it adds up the `sum_rows` columns of its copies, gathered in blocks of whole
    subpopulations of about CHUNK_BYTES. Every subpopulation has copies, so no `reduceat` group is empty.
    """
    copies, sizes = members.ravel(), sizes.ravel()
    ends = np.cumsum(sizes)
    first = ends - sizes
    sums = np.empty((len(sizes), len(panel.sum_rows)))
    block = max(1, CHUNK_BYTES // (8 * len(panel.sum_rows) * sizes.max()))
    for lo in range(0, len(sizes), block):
        group = slice(lo, lo + block)
        columns = panel.sum_rows.take(copies[first[lo]:ends[group][-1]], axis=1)
        sums[group] = np.add.reduceat(columns, first[group] - first[lo], axis=1).T
    return _sum_features(panel, sums / sizes[:, None])


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
    interaction_center: float
    context_moments: np.ndarray

    def __post_init__(self):
        a = np.array(self.context_moments, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "context_moments", a)


def _fit_maps(table, targets, center, learner: LearnerConfig, folds):
    """Each problem's state-evolution map: coefficients (m, d), intercepts (m,) and lam (m,), from tables
    (m, r, d); `folds` (m, r) are the CV folds, from `learner_folds`. The lambda CV and the fit share one set of
    ridge rows."""
    if table.shape[-2] < 2:
        raise ValueError("need at least 2 transition rows to fit the state evolution")
    design = table.copy()
    design[..., -1] = (table[..., 0] - center[:, None]) * table[..., -2]
    rows = ridge_rows(design, targets, learner.center)
    if folds is not None:
        lam = cv_lambdas(rows, learner, folds)
    else:
        lam = np.full(len(design), learner.lambda_grid[0])
    m, r = design.shape[:2]
    coef, intercept = weighted_ridge(rows, np.ones((m, 1, r)), lam[:, None, None])  # (m, 1, 1, d), (m, 1, 1)
    return coef[:, 0, 0], intercept[:, 0, 0], lam


def fit_state_evolution(
    features: StateFeatures,
    learner: LearnerConfig | None = None,
    seed: int = 0,
) -> StateEvolutionModel:
    """Ridge fit of one map shared by every transition row.

    The mean-by-treatment interaction is centered at the baseline mean. The
    interaction then vanishes on pre-treatment rows and on the adoption-jump
    row, which keeps the treated-fraction coefficient pinned even when the
    design visits a single nonzero treated-fraction level; with two or more
    nonzero levels every coefficient is separately identified.
    """
    learner = learner or LearnerConfig()
    check_ridge_learner(learner)
    center = features.baseline_mean
    coef, intercept, lam = _fit_maps(
        features.table[None], features.targets[None], np.array([center]), learner,
        learner_folds(learner, len(features.table), [seed]),
    )
    return StateEvolutionModel(
        model=RidgeModel(coef[0], float(intercept[0]), float(lam[0])), interaction_center=center,
        context_moments=features.final_moments,
    )


def _evolve(coef, intercept, context, center, baseline, p: float, T: int) -> np.ndarray:
    """Mean-outcome paths (m, T + 1) from the baselines: each problem's map (coefficients (m, d), intercepts
    (m,)) recursed with the treated fraction pinned at p."""
    # The feature row [mean, context[1:], p, (mean - center) * p] is affine in
    # the mean, so the map is the scalar step mean <- a * mean + b.
    slope = coef[:, 0] + coef[:, -1] * p
    offset = intercept + np.einsum("mj,mj->m", coef[:, 1:-2], context[:, 1:]) + p * (coef[:, -2] - coef[:, -1] * center)
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
        np.array([model.interaction_center]), baseline_mean,
        1.0 if allocation is AllocationScenario.ALL_TREATED else 0.0, T,
    )[0]
    path.setflags(write=False)
    return path


def _adoption_stage(assignments: np.ndarray) -> np.ndarray:
    """First treated period per unit; never-treated units get T+1."""
    n, T = assignments.shape
    treated_any = assignments.any(axis=1)
    first = np.where(treated_any, assignments.argmax(axis=1) + 1, T + 1)
    return first


def _check_partition(n: int, n_subpopulations: int) -> None:
    if n_subpopulations < 2:
        raise ValueError("need at least 2 subpopulations")
    if n < 2 * n_subpopulations:
        raise ValueError(f"need N >= {2 * n_subpopulations} units for {n_subpopulations} subpopulations")


def _deal(counts: np.ndarray, baseline_order: np.ndarray, stage: np.ndarray, starts, n_subpopulations: int):
    """The `network_bootstrap` partition of each count row's resample: the unit of every resampled copy,
    grouped by subpopulation and in unit order within one (m, n), and each subpopulation's size (m, k).

    Copies ordered by (baseline, unit) are the resample's stable baseline ranking, so a copy's rank is its
    position and the deal order is a stable sort of that ranking by (quartile, stage).
    """
    m, n = counts.shape
    units = np.repeat(np.tile(baseline_order, m), counts[:, baseline_order].ravel()).reshape(m, n)
    quartile = np.arange(n) * N_BASELINE_BINS // n
    order = np.argsort(quartile * (stage.max() + 1) + stage[units], axis=1, kind="stable")
    labels = np.empty((m, n), dtype=np.intp)
    np.put_along_axis(labels, order, (np.asarray(starts)[:, None] + np.arange(n)) % n_subpopulations, axis=1)
    members = np.sort(labels * n + units, axis=1) % n
    cells = (np.arange(m)[:, None] * n_subpopulations + labels).ravel()
    return members, np.bincount(cells, minlength=m * n_subpopulations).reshape(m, n_subpopulations)


def _deal_starts(seeds, n_subpopulations: int) -> np.ndarray:
    """Each partition seed's deal start: the first draw of its "deal-start" stream."""
    return np.array([rg.integers(n_subpopulations) for rg in substreams(seeds, "deal-start")], dtype=np.intp)


def network_bootstrap(d: ExperimentDataset, n_subpopulations: int, seed: int) -> list[ExperimentDataset]:
    """Partition units into representative subpopulations (disjoint, exhaustive).

    Units are stratified by baseline-outcome quartile crossed with treatment
    adoption stage, ordered by baseline within each stratum, and dealt
    round-robin by a single pointer that runs across strata (the seed rotates
    its start). The rolling pointer keeps sizes within 1 of each other both
    per stratum and overall, so each subpopulation preserves the population's
    outcome-level and treatment-timing marginals.
    """
    _check_partition(d.n_units, n_subpopulations)
    members, sizes = _deal(
        np.ones((1, d.n_units), dtype=np.int64), np.argsort(d.outcomes.outcomes[:, 0], kind="stable"),
        _adoption_stage(d.treatments.assignments), _deal_starts([seed], n_subpopulations), n_subpopulations,
    )
    return [subset_dataset(d, rows) for rows in np.split(members[0], np.cumsum(sizes[0])[:-1])]


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
    """Causal-message-passing estimator settings."""

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


def _pools(panel: _Panel) -> bool:
    """Whether the map is fit on pooled subpopulation rows: when T < 3 * (d + 1) for the d = order + 2 columns
    of the transition table."""
    return panel.n_periods < 3 * (panel.moment_order + 3)


def _training_features(panel: _Panel, counts: np.ndarray, config: CmpConfig, starts):
    """Each count row's transition rows: (table (m, r, d), targets (m, r), baseline mean (m,), final moments
    (m, order)), from the full resample or, when `_pools`, its subpopulations dealt from `starts` (m,).

    Pooling subpopulation trajectories multiplies training rows, which matters
    when the panel is short; once the panel alone identifies the map, the
    full-population rows are preferred because residual level differences
    across subpopulations would leak into the carryover coefficient.
    """
    full = _count_features(panel, counts)
    if not _pools(panel):
        return full
    m, n = counts.shape
    _check_partition(n, config.n_subpopulations)
    table, targets = _subpopulation_features(
        panel, *_deal(counts, panel.baseline_order, panel.stage, starts, config.n_subpopulations))[:2]
    return table.reshape(m, -1, table.shape[-1]), targets.reshape(m, -1), *full[2:]


def _draw_inputs(panel: _Panel, config: CmpConfig, seed: int, *draw) -> tuple:
    """The deal starts (m,) and CV folds (m, r) of the resamples (seed, *draw), or None where unread.

    A resample's partition seed is `child_seed(seed, "partition", *draw)` and its fit seed
    `child_seed(seed, "fit", *draw)`; a `draw` part that is a range of draw indices derives all of them,
    their "deal-start" and their "cv-folds" streams in one batch each. The starts are read only when the
    panel pools, the folds only when the lambda grid has several values.
    """
    partition, fit = child_seeds(seed, [["partition"], ["fit"]], *draw)
    pooled = _pools(panel)
    starts = _deal_starts(partition, config.n_subpopulations) if pooled else None
    n_rows = panel.n_periods * (config.n_subpopulations if pooled else 1)
    return starts, learner_folds(config.learner, n_rows, fit)


def _cmp_contrasts(panel: _Panel, counts: np.ndarray, config: CmpConfig, starts, folds) -> np.ndarray:
    """Final-period all-treated minus all-control mean for each count row's resample, dealt from `starts`
    and cross-validated on `folds` (`_draw_inputs`)."""
    table, targets, baseline, final = _training_features(panel, counts, config, starts)
    coef, intercept, _ = _fit_maps(table, targets, baseline, config.learner, folds)
    treated, control = (_evolve(coef, intercept, final, baseline, baseline, p, panel.n_periods) for p in (1.0, 0.0))
    return treated[:, -1] - control[:, -1]


def estimate_tte_cmp(
    d: ExperimentDataset,
    config: CmpConfig | None = None,
    bootstrap: BootstrapConfig | None = None,
) -> EffectEstimate:
    """Final-period contrast of the all-treated and all-control counterfactual evolutions of one fitted
    state-evolution map.

    The map is fit on the panel's transition rows, or, when T < 3 * (columns + 1) (T < 15 at moment order
    2), on the pooled rows of `n_subpopulations` subpopulations dealt from `config.seed`'s partition stream.
    The CI re-estimates over unit resamples, each with its own subpopulation
    partition, so both resampling layers feed the percentile interval. The partition and CV streams of all
    draws are derived once, before the first draw.
    """
    config = config or CmpConfig()
    bootstrap = bootstrap or BootstrapConfig()
    panel = _panel(d, config.moment_order)
    ones = np.ones((1, d.n_units), dtype=np.int64)
    point = float(_cmp_contrasts(panel, ones, config, *_draw_inputs(panel, config, config.seed))[0])
    starts, folds = _draw_inputs(panel, config, bootstrap.seed, range(bootstrap.n_replicates))

    def statistic(counts, draws) -> np.ndarray:
        rows = slice(draws.start, draws.stop)
        return _cmp_contrasts(panel, counts, config, None if starts is None else starts[rows],
                              None if folds is None else folds[rows])

    return bootstrap_estimate("cmp", point, bootstrap, "cmp-boot", d.n_units, statistic)
