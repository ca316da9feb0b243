"""Causal message passing: temporal feature construction, state-evolution
fitting, counterfactual recursion, and the distribution-preserving network
bootstrap. Uses outcome and treatment panels only; the dataset's graph field
is never read, so results are identical whether a graph is present, absent,
or replaced.

The state-evolution model maps population summary statistics at period t
(mean, central moments up to the configured order, next-period treated
fraction, and a centered mean-by-treatment interaction) to the mean outcome
at t+1. Counterfactual trajectories recurse that map with the treated
fraction pinned at 1 or 0; higher-moment features are held at the last
observed values, so only the mean path is propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AllocationScenario,
    BootstrapConfig,
    EffectEstimate,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
)
from .regress import DegenerateDesignError, LearnerConfig, RidgeModel, fit_learner, ridge_fit
from .rng import child_seed, substream

N_BASELINE_BINS = 4


@dataclass(frozen=True, eq=False)
class StateFeatures:
    """One row per transition t -> t+1 over the observed panel.

    `transition_index` records which transition a row describes, so that
    tables pooled across subpopulations can still be fit per period.
    """

    table: np.ndarray
    targets: np.ndarray
    columns: tuple[str, ...]
    moment_order: int
    baseline_mean: float
    final_moments: np.ndarray
    transition_index: np.ndarray

    def __post_init__(self):
        for name in ("table", "targets", "final_moments"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        idx = np.array(self.transition_index, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "transition_index", idx)


def _moment_columns(order: int) -> tuple[str, ...]:
    names = ["mean", "var"] + [f"m{k}" for k in range(3, order + 1)]
    return tuple(names[: max(order, 1)])


def build_features(d: ExperimentDataset, moment_order: int = 2) -> StateFeatures:
    """Summary-statistic rows for every transition; reads panels only, never the graph."""
    if moment_order < 1:
        raise ValueError("moment_order must be >= 1")
    T = d.n_periods
    if T < 2:
        raise ValueError(f"need at least 2 transitions, got T={T}")
    y = d.outcomes.outcomes
    p = d.treatments.treated_fraction()

    # one row per period; reducing along contiguous rows keeps numpy's pairwise summation per column
    by_period = np.ascontiguousarray(y.T)
    means = by_period.mean(axis=1)
    moments = [means]
    if moment_order >= 2:
        centered = by_period - means[:, None]
        moments.extend((centered**k).mean(axis=1) for k in range(2, moment_order + 1))
    moment_rows = np.column_stack(moments)
    table = np.column_stack(
        [moment_rows[:-1], p[1:], means[:-1] * p[1:]]
    )
    columns = _moment_columns(moment_order) + ("p_next", "mean_x_p_next")
    return StateFeatures(
        table=table,
        targets=means[1:],
        columns=columns,
        moment_order=moment_order,
        baseline_mean=float(means[0]),
        final_moments=moment_rows[-1],
        transition_index=np.arange(T),
    )


def stack_features(parts: list[StateFeatures]) -> StateFeatures:
    """Pool transition rows across subpopulations (same moment order required)."""
    first = parts[0]
    if any(p.columns != first.columns for p in parts):
        raise ValueError("feature tables have mismatched columns")
    return StateFeatures(
        table=np.vstack([p.table for p in parts]),
        targets=np.concatenate([p.targets for p in parts]),
        columns=first.columns,
        moment_order=first.moment_order,
        baseline_mean=first.baseline_mean,
        final_moments=first.final_moments,
        transition_index=np.concatenate([p.transition_index for p in parts]),
    )


@dataclass(frozen=True, eq=False)
class StateEvolutionModel:
    """Fitted one-step map from state features to the next-period mean outcome.

    Time-homogeneous by default (one map shared by every transition); with
    `period_models` set, each transition index carries its own map.
    """

    model: RidgeModel
    columns: tuple[str, ...]
    moment_order: int
    lam: float
    interaction_center: float
    context_moments: np.ndarray
    time_homogeneous: bool = True
    period_models: tuple[RidgeModel, ...] | None = None

    def __post_init__(self):
        a = np.array(self.context_moments, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "context_moments", a)


def fit_state_evolution(
    features: StateFeatures,
    learner: LearnerConfig | None = None,
    seed: int = 0,
    time_homogeneous: bool = True,
) -> StateEvolutionModel:
    """Ridge fit of the transition rows, pooled or (optionally) per period.

    The mean-by-treatment interaction is centered at the baseline mean. The
    interaction then vanishes on pre-treatment rows and on the adoption-jump
    row, which keeps the treated-fraction coefficient pinned even when the
    design visits a single nonzero treated-fraction level; with two or more
    nonzero levels every coefficient is separately identified.

    The per-period variant fits one map per transition index and needs
    several rows per transition (subpopulation-pooled tables); the lambda is
    still selected once on the pooled rows.
    """
    learner = learner or LearnerConfig()
    if learner.kind != "ridge":
        raise ValueError("state evolution uses the ridge learner")
    table = features.table
    if len(table) < 2:
        raise ValueError("need at least 2 transition rows to fit the state evolution")
    center = features.baseline_mean
    design = table.copy()
    design[:, -1] = (table[:, 0] - center) * table[:, -2]
    model, lam = fit_learner(design, features.targets, learner, seed=seed)

    period_models = None
    if not time_homogeneous:
        indices = np.unique(features.transition_index)
        if not np.array_equal(indices, np.arange(len(indices))):
            raise ValueError("per-period fit needs contiguous transition indices starting at 0")
        fits = []
        for t in indices:
            rows = features.transition_index == t
            if rows.sum() < 2:
                raise DegenerateDesignError(
                    f"rank-deficient single-row input for transition {t}; "
                    "pool subpopulation rows to fit per-period maps"
                )
            fits.append(ridge_fit(design[rows], features.targets[rows], lam))
        period_models = tuple(fits)

    return StateEvolutionModel(
        model=model,
        columns=features.columns,
        moment_order=features.moment_order,
        lam=lam,
        interaction_center=center,
        context_moments=features.final_moments,
        time_homogeneous=time_homogeneous,
        period_models=period_models,
    )


@dataclass(frozen=True, eq=False)
class CounterfactualTrajectory:
    """Predicted mean-outcome path under a constant allocation, starting at the observed baseline."""

    allocation: AllocationScenario
    means: np.ndarray

    def __post_init__(self):
        a = np.array(self.means, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "means", a)

    @property
    def final_mean(self) -> float:
        return float(self.means[-1])


def counterfactual_evolution(
    model: StateEvolutionModel,
    baseline_mean: float,
    allocation: AllocationScenario,
    T: int,
) -> CounterfactualTrajectory:
    """Recurse the fitted map with the treated fraction pinned at 1 or 0."""
    if model.period_models is not None and T > len(model.period_models):
        raise ValueError(
            f"per-period model covers {len(model.period_models)} transitions, cannot recurse to T={T}"
        )
    p = 1.0 if allocation is AllocationScenario.ALL_TREATED else 0.0
    maps = model.period_models or (model.model,)
    coef = np.stack([m.coefficients for m in maps])
    intercept = np.array([m.intercept for m in maps])
    # The feature row [mean, context[1:], p, (mean - center) * p] is affine in
    # the mean, so each transition's map is the scalar step mean <- a * mean + b.
    slope = coef[:, 0] + coef[:, -1] * p
    offset = intercept + coef[:, 1:-2] @ model.context_moments[1:] + p * (
        coef[:, -2] - coef[:, -1] * model.interaction_center
    )
    if model.period_models is None:  # one map shared by every transition
        slope, offset = np.repeat(slope, T), np.repeat(offset, T)
    means = [float(baseline_mean)]
    for t, a, b in zip(range(1, T + 1), slope.tolist(), offset.tolist()):
        means.append(a * means[-1] + b)
        if not math.isfinite(means[-1]):
            raise RuntimeError(f"counterfactual recursion diverged at period {t}")
    return CounterfactualTrajectory(allocation=allocation, means=np.array(means))


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
    if n_subpopulations < 2:
        raise ValueError("need at least 2 subpopulations")
    n = d.n_units
    if n < 2 * n_subpopulations:
        raise ValueError(f"need N >= {2 * n_subpopulations} units for {n_subpopulations} subpopulations")

    baseline = d.outcomes.outcomes[:, 0]
    ranks = np.empty(n, dtype=int)
    ranks[np.argsort(baseline, kind="stable")] = np.arange(n)
    quartile = (ranks * N_BASELINE_BINS) // n
    stage = _adoption_stage(d.treatments.assignments)

    # Deal the units in (quartile, stage, baseline, index) order round-robin from the seeded start.
    start = int(substream(seed, "deal-start").integers(n_subpopulations))
    order = np.lexsort((np.arange(n), baseline, stage, quartile))
    label = np.empty(n, dtype=int)
    label[order] = (start + np.arange(n)) % n_subpopulations
    return [subset_dataset(d, np.flatnonzero(label == j)) for j in range(n_subpopulations)]


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
    time_homogeneous: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.moment_order < 1:
            raise ValueError("moment_order must be >= 1")
        if self.n_subpopulations < 2:
            raise ValueError("n_subpopulations must be >= 2")


def _training_features(d: ExperimentDataset, config: CmpConfig, partition_seed: int) -> StateFeatures:
    """Full-panel transition rows, augmented with subpopulation rows when T is small.

    Pooling subpopulation trajectories multiplies training rows, which matters
    when the panel is short; once the panel alone identifies the map, the
    full-population rows are preferred because residual level differences
    across subpopulations would leak into the carryover coefficient.
    """
    full = build_features(d, config.moment_order)
    min_rows = 3 * (full.table.shape[1] + 1)
    if len(full.table) >= min_rows and config.time_homogeneous:
        return full
    subpops = network_bootstrap(d, config.n_subpopulations, partition_seed)
    pooled = stack_features([build_features(s, config.moment_order) for s in subpops])
    return replace(pooled, baseline_mean=full.baseline_mean, final_moments=full.final_moments)


def _cmp_point(d: ExperimentDataset, config: CmpConfig, partition_seed: int, fit_seed: int) -> float:
    features = _training_features(d, config, partition_seed)
    model = fit_state_evolution(
        features, config.learner, seed=fit_seed, time_homogeneous=config.time_homogeneous
    )
    T = d.n_periods
    cfe_1 = counterfactual_evolution(model, features.baseline_mean, AllocationScenario.ALL_TREATED, T)
    cfe_0 = counterfactual_evolution(model, features.baseline_mean, AllocationScenario.ALL_CONTROL, T)
    return cfe_1.final_mean - cfe_0.final_mean


def estimate_tte_cmp(
    d: ExperimentDataset,
    config: CmpConfig | None = None,
    bootstrap: BootstrapConfig | None = None,
) -> EffectEstimate:
    """Final-period contrast of the all-treated and all-control counterfactual evolutions.

    The CI re-estimates over unit resamples, each with its own subpopulation
    partition, so both resampling layers feed the percentile interval.
    """
    config = config or CmpConfig()
    bootstrap = bootstrap or BootstrapConfig()
    point = _cmp_point(
        d,
        config,
        partition_seed=child_seed(config.seed, "partition"),
        fit_seed=child_seed(config.seed, "fit"),
    )
    n = d.n_units
    boot = np.empty(bootstrap.n_replicates)
    for b in range(bootstrap.n_replicates):
        rows = np.sort(substream(bootstrap.seed, "cmp-boot", b).integers(0, n, size=n))
        resampled = subset_dataset(d, rows)
        boot[b] = _cmp_point(
            resampled,
            config,
            partition_seed=child_seed(bootstrap.seed, "partition", b),
            fit_seed=child_seed(bootstrap.seed, "fit", b),
        )
    return EffectEstimate.from_bootstrap("cmp", point, boot)
