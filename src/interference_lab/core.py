"""Domain types, dataset validation, and equality helpers.

Conventions: eligible treatment units carry dense ids 1..N and are exactly
the rows (in id order) of the treatment/outcome panels. Ineligible treatment
units and connected units live in their own id spaces and appear only in the
bipartite graph. Outcomes span periods 0..T (period 0 is the pre-experiment
baseline); treatments span periods 1..T.

All types are immutable after construction (frozen dataclasses over
read-only arrays) and safe to share across concurrent readers.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import substreams

DESIGN_TAGS = ("staggered", "fixed", "free")
METHODS = ("basic", "network_aware", "cmp")
MAX_RESAMPLE_TRIES = 100
# `bootstrap_estimate` scores its draws in chunks: as many (draws, units) int64 count rows as fit in CHUNK_BYTES,
# but never fewer than MIN_CHUNK_DRAWS, so that a large panel still shares each chunk's fixed Python cost among
# 16 draws (at 30 000 units a chunk is 3.75 MiB). Chunks whose count matrix reaches THREAD_CHUNK_BYTES (16 draws
# of 8 192 units) are scored on a thread pool. One process gains from threads above about 4 500 units, but
# `bench --jobs` workers already occupy the CPUs, and there threads slowed 10 000-unit replicates (README).
CHUNK_BYTES = 1 << 17
MIN_CHUNK_DRAWS = 16
THREAD_CHUNK_BYTES = 1 << 20
_FLOAT_MAX = float(np.finfo(np.float64).max)


def check_int(name: str, value):
    """`value` if it is an integer.

    A bool or float would pass `>=` yet is no count, and `child_seed` would hash one into an unrelated stream.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_real(name: str, value, minimum=None):
    """`value` if it is a finite int or float, at least `minimum` when one is given.

    A string or bool would reach the simulator or the learner as a wrong type, and a NaN or infinity makes
    every replicate fail.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not abs(value) <= _FLOAT_MAX):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_count(name: str, value, minimum: int) -> None:
    """Raise unless `value` is an integer of at least `minimum`."""
    if check_int(name, value) < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_flag(name: str, value) -> None:
    """Flags are booleans: a string such as "false" would otherwise read as true."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def _nondecreasing(major: np.ndarray, minor: np.ndarray | None = None) -> bool:
    """Whether 1-d `major`, ties broken by `minor` when it is given, is in nondecreasing order: the order a
    stable sort leaves as it is."""
    if minor is None:
        return bool((major[1:] >= major[:-1]).all())
    ties = major[1:] == major[:-1]
    return bool(((major[1:] > major[:-1]) | (ties & (minor[1:] >= minor[:-1]))).all())


def row_classes(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(labels, number of classes) of a 2-d array's rows: rows with equal values share a label, `-0.0` being
    equal to `0.0`. Labels number the distinct rows in lexicographic order, as
    `np.unique(rows, axis=0, return_inverse=True)` does, from one lexsort rather than its structured sort."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    labels = np.empty(len(rows), dtype=np.intp)
    labels[order] = np.cumsum(starts) - 1
    return labels, int(np.count_nonzero(starts))


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Two-sided interaction structure with eligibility flags and edge weights.

    Edges run from treatment units to connected units; `edge_weight` holds the
    nonnegative interaction weight used when aggregating edge-level outcomes
    to the treatment side. Construction puts the arrays in canonical order, units
    by id and edges by (treatment, connected), with stable sorts; input already in
    that order is kept without sorting. It also locates each edge's endpoints:
    `edge_treatment_pos`/`edge_connected_pos` index `treatment_ids`/`connected_ids`
    wherever the matching `*_found` mask is set.
    """

    treatment_ids: np.ndarray
    eligible: np.ndarray
    connected_ids: np.ndarray
    edge_treatment: np.ndarray
    edge_connected: np.ndarray
    edge_weight: np.ndarray
    edge_treatment_pos: np.ndarray = field(init=False, repr=False)
    edge_treatment_found: np.ndarray = field(init=False, repr=False)
    edge_connected_pos: np.ndarray = field(init=False, repr=False)
    edge_connected_found: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # `generate_graph` and `load_dataset` give canonical input, which the stable sorts would not move.
        tid = np.array(self.treatment_ids, dtype=np.int64)
        elig = np.array(self.eligible, dtype=bool)
        if elig.shape != tid.shape:
            raise ValueError("eligible flags must align with treatment_ids")
        et = np.array(self.edge_treatment, dtype=np.int64)
        ec = np.array(self.edge_connected, dtype=np.int64)
        ew = np.array(self.edge_weight, dtype=float)
        if not (et.shape == ec.shape == ew.shape):
            raise ValueError("edge arrays must have equal length")
        cid = np.array(self.connected_ids, dtype=np.int64)
        if not _nondecreasing(tid):
            unit_order = np.argsort(tid, kind="stable")
            tid, elig = tid[unit_order], elig[unit_order]
        if not _nondecreasing(cid):
            cid.sort()
        if not _nondecreasing(et, ec):
            edge_order = np.lexsort((ec, et))
            et, ec, ew = et[edge_order], ec[edge_order], ew[edge_order]
        arrays = {"treatment_ids": tid, "eligible": elig, "connected_ids": cid,
                  "edge_treatment": et, "edge_connected": ec, "edge_weight": ew}
        for side in ("treatment", "connected"):
            universe, ids = arrays[f"{side}_ids"], arrays[f"edge_{side}"]
            pos = np.searchsorted(universe, ids)
            found = pos < universe.size
            found[found] = universe[pos[found]] == ids[found]
            arrays[f"edge_{side}_pos"], arrays[f"edge_{side}_found"] = pos, found
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_treatment_units(self) -> int:
        return self.treatment_ids.size

    @property
    def n_connected_units(self) -> int:
        return self.connected_ids.size

    @property
    def n_edges(self) -> int:
        return self.edge_treatment.size

    @property
    def eligible_ids(self) -> np.ndarray:
        return self.treatment_ids[self.eligible]

    def edge_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(treatment, connected) position of each edge's endpoints; raises if any id is unknown."""
        if not (self.edge_treatment_found.all() and self.edge_connected_found.all()):
            raise ValueError("graph has edges referencing unknown units")
        return self.edge_treatment_pos, self.edge_connected_pos

    def degrees(self, weighted: bool = False) -> np.ndarray:
        """Edge count (or total edge weight) per treatment unit, in treatment_ids order."""
        t_idx, _ = self.edge_positions()
        w = self.edge_weight if weighted else np.ones(self.n_edges)
        return np.bincount(t_idx, weights=w, minlength=self.n_treatment_units)

    def zero_extend(self, a) -> np.ndarray:
        """Float rows (1-d or 2-d) over every treatment unit; eligible-only rows get zeros for the ineligible."""
        a = np.asarray(a, dtype=float)
        n_elig = int(self.eligible.sum())
        if a.ndim not in (1, 2) or len(a) not in (n_elig, self.n_treatment_units):
            raise ValueError(
                f"assignment of shape {a.shape}: expected {n_elig} (eligible) or "
                f"{self.n_treatment_units} (all treatment units) rows"
            )
        if len(a) == self.n_treatment_units:
            return a
        full = np.zeros((self.n_treatment_units,) + a.shape[1:])
        full[self.eligible] = a
        return full


@dataclass(frozen=True, eq=False)
class TreatmentPanel:
    """N x T binary assignment matrix; column t-1 holds period t."""

    assignments: np.ndarray
    design_tag: str = "staggered"

    def __post_init__(self):
        a = np.array(self.assignments, dtype=np.int8)
        if a.ndim != 2:
            raise ValueError("assignments must be a 2-d matrix")
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)
        if self.design_tag not in DESIGN_TAGS:
            raise ValueError(f"unknown design tag {self.design_tag!r}")

    @property
    def n_units(self) -> int:
        return self.assignments.shape[0]

    @property
    def n_periods(self) -> int:
        return self.assignments.shape[1]


@dataclass(frozen=True, eq=False)
class OutcomePanel:
    """N x (T+1) real outcome matrix; column t holds period t, starting at the baseline t=0."""

    outcomes: np.ndarray

    def __post_init__(self):
        y = np.array(self.outcomes, dtype=float)
        if y.ndim != 2 or y.shape[1] < 1:
            raise ValueError("outcomes must be a 2-d matrix with at least one period")
        y.setflags(write=False)
        object.__setattr__(self, "outcomes", y)

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_periods(self) -> int:
        return self.outcomes.shape[1]


@dataclass(frozen=True, eq=False)
class UnitCovariates:
    """Fixed-length covariate vector per eligible treatment unit (row i = unit i+1)."""

    values: np.ndarray

    def __post_init__(self):
        x = np.array(self.values, dtype=float)
        if x.ndim != 2:
            raise ValueError("covariates must be a 2-d matrix (units x features)")
        x.setflags(write=False)
        object.__setattr__(self, "values", x)

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ExperimentDataset:
    """The bundle an estimator consumes: panels, optional graph and covariates.

    `pre_period_end` is the last pre-treatment period; deltas compare
    mean outcomes over t > pre_period_end against t <= pre_period_end.
    """

    outcomes: OutcomePanel
    treatments: TreatmentPanel
    pre_period_end: int
    graph: BipartiteGraph | None = None
    covariates: UnitCovariates | None = None

    @property
    def n_units(self) -> int:
        return self.outcomes.n_units

    @property
    def n_periods(self) -> int:
        """Number of experiment periods T (outcomes additionally carry t=0)."""
        return self.treatments.n_periods


class AllocationScenario(enum.Enum):
    """The two counterfactual allocations compared by the total-effect estimand."""

    ALL_TREATED = "all_treated"
    ALL_CONTROL = "all_control"


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimate with percentile bootstrap interval and 5%-level flag."""

    method: str
    point: float
    ci_low: float
    ci_high: float
    significant_5pct: bool
    n_bootstrap: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.ci_low <= self.point <= self.ci_high):
            raise ValueError("confidence interval must contain the point estimate")
        excludes_zero = not (self.ci_low <= 0.0 <= self.ci_high)
        if self.significant_5pct != excludes_zero:
            raise ValueError("significance flag must equal the CI-excludes-zero rule")

    @classmethod
    def from_bootstrap(cls, method: str, point: float, boot: np.ndarray) -> "EffectEstimate":
        """2.5/97.5 percentile interval over the draws, widened if needed to contain the point."""
        lo, hi = np.quantile(boot, [0.025, 0.975])
        ci_low, ci_high = min(float(lo), point), max(float(hi), point)
        return cls(method, point, ci_low, ci_high, not (ci_low <= 0.0 <= ci_high), len(boot))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "significant_5pct": self.significant_5pct,
            "n_bootstrap": self.n_bootstrap,
        }


@dataclass(frozen=True)
class BootstrapConfig:
    """Unit-level nonparametric bootstrap settings shared by the estimators."""

    n_replicates: int = 500
    seed: int = 0

    def __post_init__(self):
        check_count("n_replicates", self.n_replicates, 1)


# The CPUs this process's bootstrap threads may use; None means every usable CPU. `share_cpus` sets it in each
# `bench --jobs` worker, so that the workers' threads together do not outnumber the CPUs.
_cpu_budget: int | None = None


def share_cpus(processes: int) -> None:
    """Process-pool initializer: give this process's bootstrap threads its share of the usable CPUs among
    `processes` processes (at least one, which keeps the serial path)."""
    global _cpu_budget
    _cpu_budget = max(1, _usable_cpus() // processes)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def bootstrap_estimate(method: str, point: float, bootstrap: BootstrapConfig, stream: str, n: int,
                       statistic, valid=None) -> EffectEstimate:
    """Percentile interval over `bootstrap.n_replicates` unit resamples of `n` units.

    Draw b is a multinomial resample of the unit indices from `substream(bootstrap.seed, stream, b)`,
    redrawn on that generator until `valid(counts)` holds (at most MAX_RESAMPLE_TRIES times); the streams of
    all draws are derived in one batch before the first draw. Its count row says how often each unit was
    drawn; `np.repeat(np.arange(n), counts)` is the sorted resample.
    `statistic(counts, draws)` scores a chunk of count rows, with draw indices `draws`, one value per row.
    A failure raises the error of the lowest-index failing draw, whether its validity rule never held or
    the statistic raised for it.

    Chunks are fixed by `n` alone (see CHUNK_BYTES). When a chunk's count matrix reaches THREAD_CHUNK_BYTES,
    the chunks are scored concurrently on a pool of min(CPUs, chunks) threads that lives only for this call,
    CPUs being the usable ones or, in a process-pool worker, the share `share_cpus` gave it. Each chunk writes
    its own slice of the draws, and errors are raised in chunk order. So the result is the serial loop's,
    provided `valid` and `statistic` are pure functions of their count rows and draw indices.
    """
    boot = np.empty(bootstrap.n_replicates)
    streams = substreams(bootstrap.seed, stream, range(bootstrap.n_replicates))
    rows = max(MIN_CHUNK_DRAWS, CHUNK_BYTES // (8 * n))

    def score(start: int) -> None:
        draws = range(start, min(start + rows, bootstrap.n_replicates))
        counts = np.empty((len(draws), n), dtype=np.int64)
        invalid = None
        for i, b in enumerate(draws):
            rg = streams[b]
            for _ in range(MAX_RESAMPLE_TRIES):
                counts[i] = np.bincount(rg.integers(0, n, size=n), minlength=n)
                if valid is None or valid(counts[i]):
                    break
            else:
                invalid = RuntimeError(f"{method}: no valid bootstrap resample in {MAX_RESAMPLE_TRIES} draws")
                draws, counts = draws[:i], counts[:i]
                break
        if len(draws):
            try:
                boot[draws.start:draws.stop] = statistic(counts, draws)
            except Exception:
                # The batch raised for some draw: score the draws one by one to raise the lowest one's error.
                for i in range(len(draws)):
                    statistic(counts[i:i + 1], draws[i:i + 1])
                raise
        if invalid is not None:
            raise invalid

    starts = range(0, bootstrap.n_replicates, rows)
    workers = min(_cpu_budget or _usable_cpus(), len(starts))
    if workers > 1 and 8 * rows * n >= THREAD_CHUNK_BYTES:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            for future in [pool.submit(score, start) for start in starts]:
                future.result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    else:
        for start in starts:
            score(start)
    return EffectEstimate.from_bootstrap(method, point, boot)


def _graph_violations(g: BipartiteGraph) -> list[str]:
    # The graph keeps its ids sorted and its edges sorted by (treatment, connected), so equal ids are neighbours
    # and each repeated edge is one run of equal adjacent pairs.
    out = []
    if (g.treatment_ids[1:] == g.treatment_ids[:-1]).any():
        out.append("graph.unit_ids: duplicate treatment unit ids")
    if (g.connected_ids[1:] == g.connected_ids[:-1]).any():
        out.append("graph.unit_ids: duplicate connected unit ids")
    if g.n_edges:
        et, ec = g.edge_treatment, g.edge_connected
        run_starts = np.flatnonzero(np.r_[True, (et[1:] != et[:-1]) | (ec[1:] != ec[:-1])])
        run_lengths = np.diff(np.r_[run_starts, g.n_edges])
        for e, cnt in zip(run_starts[run_lengths > 1], run_lengths[run_lengths > 1]):
            out.append(f"graph.duplicate_edge: ({et[e]}, {ec[e]}) appears {cnt} times")
    for e in np.flatnonzero(~g.edge_treatment_found):
        out.append(f"graph.unknown_treatment_unit: edge {e} references id {g.edge_treatment[e]}")
    for e in np.flatnonzero(~g.edge_connected_found):
        out.append(f"graph.unknown_connected_unit: edge {e} references id {g.edge_connected[e]}")
    if not g.eligible.any():
        out.append("graph.no_eligible_units: at least one eligible treatment unit required")
    for e in np.flatnonzero(g.edge_weight < 0):
        out.append(f"graph.negative_weight: edge {e} has weight {g.edge_weight[e]}")
    return out


def _panel_violations(w: TreatmentPanel) -> list[str]:
    out = []
    a = w.assignments
    bad = (a != 0) & (a != 1)
    for i, t in zip(*np.nonzero(bad)):
        out.append(f"treatments.binary: entry (unit {i + 1}, t={t + 1}) = {a[i, t]}")
    if w.design_tag == "staggered":
        drops = (np.diff(a.astype(np.int8), axis=1) < 0) & (a[:, :-1] == 1)
        for i, t in zip(*np.nonzero(drops)):
            out.append(f"treatments.monotone: unit {i + 1} reverts to control at t={t + 2}")
    elif w.design_tag == "fixed":
        changed = np.any(a != a[:, :1], axis=1)
        for i in np.flatnonzero(changed):
            out.append(f"treatments.constant: unit {i + 1} changes assignment over time")
    return out


def validate_dataset(d: ExperimentDataset) -> list[str]:
    """Check every type invariant; return one message per violation (empty = valid).

    Violations are data, not failures: callers decide whether to raise.
    """
    out = []
    out.extend(_panel_violations(d.treatments))

    y = d.outcomes.outcomes
    for i, t in zip(*np.nonzero(~np.isfinite(y))):
        out.append(f"outcomes.finite: entry (unit {i + 1}, t={t}) is not finite")
    if d.outcomes.n_units != d.treatments.n_units:
        out.append(
            f"outcomes.shape: {d.outcomes.n_units} outcome rows vs "
            f"{d.treatments.n_units} treatment rows"
        )
    if d.outcomes.n_periods != d.treatments.n_periods + 1:
        out.append(
            f"outcomes.periods: {d.outcomes.n_periods} outcome periods vs "
            f"{d.treatments.n_periods} treatment periods (expected one extra baseline)"
        )

    if not (0 <= d.pre_period_end < d.treatments.n_periods):
        out.append(
            f"dataset.pre_period_end: {d.pre_period_end} outside "
            f"[0, {d.treatments.n_periods - 1}]"
        )

    if d.covariates is not None:
        if d.covariates.n_units != d.outcomes.n_units:
            out.append(
                f"covariates.shape: {d.covariates.n_units} rows for {d.outcomes.n_units} units"
            )
        for i, j in zip(*np.nonzero(~np.isfinite(d.covariates.values))):
            out.append(f"covariates.finite: entry (unit {i + 1}, x_{j + 1}) is not finite")

    if d.graph is not None:
        out.extend(_graph_violations(d.graph))
        expected = np.arange(1, d.outcomes.n_units + 1)
        if not np.array_equal(np.sort(d.graph.eligible_ids), expected):
            out.append(
                "dataset.eligible_ids: graph eligible ids must be exactly 1..N "
                "matching the panel rows"
            )
    return out


def graphs_equal(a: BipartiteGraph | None, b: BipartiteGraph | None) -> bool:
    if a is None or b is None:
        return a is b
    return (
        np.array_equal(a.treatment_ids, b.treatment_ids)
        and np.array_equal(a.eligible, b.eligible)
        and np.array_equal(a.connected_ids, b.connected_ids)
        and np.array_equal(a.edge_treatment, b.edge_treatment)
        and np.array_equal(a.edge_connected, b.edge_connected)
        and np.array_equal(a.edge_weight, b.edge_weight)
    )


def datasets_equal(a: ExperimentDataset, b: ExperimentDataset) -> bool:
    """Field-for-field equality, used by the save/load round-trip contract."""
    if (a.covariates is None) != (b.covariates is None):
        return False
    cov_ok = a.covariates is None or np.array_equal(a.covariates.values, b.covariates.values)
    return (
        np.array_equal(a.outcomes.outcomes, b.outcomes.outcomes)
        and np.array_equal(a.treatments.assignments, b.treatments.assignments)
        and a.treatments.design_tag == b.treatments.design_tag
        and a.pre_period_end == b.pre_period_end
        and cov_ok
        and graphs_equal(a.graph, b.graph)
    )
