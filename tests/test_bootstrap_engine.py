"""The count-row bootstrap engine against the per-draw bootstrap it replaced.

`tests/reference_bootstrap.py` keeps the per-draw loop and the per-draw
statistics of the three estimators. On seeded datasets the engine must give
the same point and interval ends within rtol 1e-9, and on failing inputs the
same exception type and text.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import reference_bootstrap as ref
from interference_lab import core
from interference_lab.bench import simulate_scenario_dataset
from interference_lab.cli import load_scenario_configs
from interference_lab.core import (
    CHUNK_BYTES,
    BootstrapConfig,
    ExperimentDataset,
    OutcomePanel,
    TreatmentPanel,
    UnitCovariates,
    bootstrap_estimate,
)
from interference_lab.est_basic import estimate_basic
from interference_lab.est_cmp import CmpConfig, estimate_tte_cmp
from interference_lab.est_network import estimate_network
from interference_lab.regress import DegenerateDesignError, LearnerConfig

RTOL, ATOL = 1e-9, 1e-12
N_BOOT = 40
PRESETS = ("no_interference", "upward_bias", "sign_reversal")
TINY = LearnerConfig(lambda_grid=(1e-8, 1e-6))


def preset_dataset(name, T, replicate=0, with_covariates=False, **graph):
    """The preset's replicate at N=120 eligible units and T periods."""
    (cfg,) = load_scenario_configs(name)
    small = dataclasses.replace(cfg.graph, n_eligible=120, n_ineligible=24, n_connected=180, **graph)
    cfg = dataclasses.replace(cfg, T=T, graph=small)
    d = simulate_scenario_dataset(cfg, replicate)
    if with_covariates:
        x = np.random.default_rng(replicate).normal(size=(d.n_units, 2))
        d = dataclasses.replace(d, covariates=UnitCovariates(x))
    return cfg, d


def basic_pair(d, learner, seed=3):
    boot = BootstrapConfig(N_BOOT, seed=seed)
    return (lambda: estimate_basic(d, learner, boot)), (lambda: ref.estimate_basic(d, learner, boot))


def network_pair(d, learner, weighted=False, seed=5):
    boot = BootstrapConfig(N_BOOT, seed=seed)
    return ((lambda: estimate_network(d, learner, boot, weighted_exposures=weighted, seed=seed + 1)[0]),
            (lambda: ref.estimate_network(d, learner, boot, weighted_exposures=weighted, seed=seed + 1)))


def cmp_pair(d, config, seed=7):
    boot = BootstrapConfig(N_BOOT, seed=seed)
    return (lambda: estimate_tte_cmp(d, config, boot)), (lambda: ref.estimate_tte_cmp(d, config, boot))


def cmp_config(cfg, **changes):
    return dataclasses.replace(cfg.cmp.config(seed=11), **changes)


def cases():
    for name in PRESETS:
        for T in (20, 12):
            cfg, d = preset_dataset(name, T)
            yield f"{name}-T{T}-basic", basic_pair(d, cfg.basic.learner)
            yield f"{name}-T{T}-network", network_pair(d, cfg.network.learner)
            yield f"{name}-T{T}-cmp", cmp_pair(d, cmp_config(cfg))
    for T in (20, 12):
        cfg, d = preset_dataset("upward_bias", T, replicate=1)
        for order in (1, 2, 3):
            yield f"order{order}-T{T}", cmp_pair(d, cmp_config(cfg, moment_order=order))
    cfg, d = preset_dataset("sign_reversal", 20, replicate=2, with_covariates=True, weight_mode="lognormal",
                            weight_sd=0.5)
    grid = LearnerConfig(lambda_grid=(1e-3, 3.0, 10.0))
    yield "network-grid-weighted-covariates", network_pair(d, grid, weighted=True)
    yield "basic-grid-covariates", basic_pair(d, grid)
    _, d = preset_dataset("upward_bias", 12, replicate=3)
    yield "basic-kernel-ridge", basic_pair(d, LearnerConfig(kind="kernel_ridge", lambda_grid=(0.1,)))
    yield "basic-kernel-ridge-grid", basic_pair(d, LearnerConfig(kind="kernel_ridge", lambda_grid=(0.1, 1.0)))


CASES = dict(cases())


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_per_draw_bootstrap(case):
    new, old = CASES[case]
    got, want = new(), old()
    assert (got.method, got.n_bootstrap, got.significant_5pct) == (want.method, want.n_bootstrap,
                                                                   want.significant_5pct)
    for field in ("point", "ci_low", "ci_high"):
        a, b = getattr(got, field), getattr(want, field)
        assert math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL), f"{field}: {a!r} != {b!r}"


def unstable_panel(T=1100, n=100, seed=0):
    """Identical units whose mean follows m' = 2 m - p + 0.5 under a treated fraction p in [2m, 2m + 0.5],
    which keeps it in [0, 0.5]; held at p = 1 or 0, the fitted map doubles away from its fixed point and
    overflows."""
    rng = np.random.default_rng(seed)
    m, counts = [0.0], []
    for _ in range(T):
        hi = min(100, math.floor(200 * m[-1] + 50))
        k = int(rng.integers(min(hi, math.ceil(200 * m[-1])), hi + 1))
        counts.append(k)
        m.append(2 * m[-1] - k / 100 + 0.5)
    assignments = (np.arange(n)[:, None] < np.asarray(counts) * n // 100).astype(np.int8)
    return ExperimentDataset(OutcomePanel(np.tile(m, (n, 1))), TreatmentPanel(assignments, design_tag="free"),
                             pre_period_end=0)


def one_hot_covariate_dataset():
    """Basic's design gets a covariate nonzero on unit 0 only: every resample without unit 0 is singular."""
    cfg, d = preset_dataset("upward_bias", 20)
    x = np.zeros((d.n_units, 1))
    x[0] = 1000.0
    return dataclasses.replace(d, covariates=UnitCovariates(x))


FAILING = {
    "diverging-recursion": lambda m: m(unstable_panel(), CmpConfig(moment_order=1, learner=TINY, seed=1),
                                       BootstrapConfig(10, seed=2)),
    "rank-deficient-lam-zero": lambda m: m(one_hot_covariate_dataset(), LearnerConfig(lambda_grid=(0.0,)),
                                           BootstrapConfig(N_BOOT, seed=4)),
}
FAILING_METHODS = {
    "diverging-recursion": (estimate_tte_cmp, ref.estimate_tte_cmp),
    "rank-deficient-lam-zero": (estimate_basic, ref.estimate_basic),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_engine_raises_the_per_draw_error(case):
    errors = []
    for method in FAILING_METHODS[case]:
        with pytest.raises((RuntimeError, DegenerateDesignError)) as info:
            FAILING[case](method)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert ("diverged at period" in errors[0][1]) == (case == "diverging-recursion")


def failing_statistics(fail_at_copies):
    """An engine statistic and its per-draw twin that fail on a resample holding unit 0 at least
    `fail_at_copies` times, naming the draw by its count of unit 1."""
    def check(c0, c1):
        if c0 >= fail_at_copies:
            raise ValueError(f"unit 0 drawn {c0} times, unit 1 {c1} times")
        return float(c1)

    def batched(counts, draws):
        return np.array([check(int(c[0]), int(c[1])) for c in counts])

    def per_draw(idx, b):
        return check(int(np.sum(idx == 0)), int(np.sum(idx == 1)))

    return batched, per_draw


def force_threads(monkeypatch, per_chunk):
    """Chunks of `per_chunk` draws whatever n, scored on a four-thread pool whatever their size."""
    monkeypatch.setattr(core, "MIN_CHUNK_DRAWS", per_chunk)
    monkeypatch.setattr(core, "CHUNK_BYTES", 0)
    monkeypatch.setattr(core, "THREAD_CHUNK_BYTES", 0)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 4)


@pytest.mark.parametrize("valid_calls", [None, 0, 3, 40])
@pytest.mark.parametrize("fail_at_copies", [3, 99])
def test_engine_raises_the_lowest_failing_draws_error(monkeypatch, valid_calls, fail_at_copies):
    """Statistic failures and a validity rule that stops holding after `valid_calls` calls: the engine
    raises what the per-draw loop raised first. The stateful rule only holds draw by draw on the serial
    path; without one, the engine also runs with its thread pool forced on, in chunks of 7 draws."""
    n, boot = 10, BootstrapConfig(60, seed=9)
    batched, per_draw = failing_statistics(fail_at_copies)
    engines = [(ref.bootstrap_estimate, per_draw, False), (bootstrap_estimate, batched, False)]
    if valid_calls is None:
        engines.append((bootstrap_estimate, batched, True))
    outcomes = []
    for engine, statistic, threaded in engines:
        calls = [0]

        def valid(_):
            calls[0] += 1
            return calls[0] <= valid_calls

        if threaded:
            force_threads(monkeypatch, 7)
        try:
            est = engine("basic", 1.0, boot, "basic-boot", n, statistic,
                         valid=None if valid_calls is None else valid)
            outcomes.append(("ok", est.ci_low, est.ci_high))
        except (RuntimeError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


def test_bootstrap_memory_stays_within_the_chunk_budget(monkeypatch):
    """At n=30 000 and B=1 024 no (B, n) array is built: peak traced memory stays near the chunks in flight,
    one MIN_CHUNK_DRAWS-row chunk per thread (two here)."""
    n, B, threads = 30_000, 1024, 2
    monkeypatch.setattr(core, "_usable_cpus", lambda: threads)
    tracemalloc.start()
    try:
        est = bootstrap_estimate("cmp", 0.0, BootstrapConfig(B, seed=1), "cmp-boot", n,
                                 lambda counts, draws: counts[:, 0] - 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_bootstrap == B
    chunk = max(CHUNK_BYTES, 8 * n * core.MIN_CHUNK_DRAWS)
    assert chunk >= core.THREAD_CHUNK_BYTES  # the threaded path ran
    assert peak < 4 * threads * chunk < B * n * 8 / 4


@pytest.mark.parametrize("T", [20, 12])
def test_estimates_do_not_depend_on_the_draws_per_chunk(monkeypatch, T):
    """One draw per chunk scores each draw alone; the hoisted rows serve every chunk unchanged, and so does the
    thread pool, forced on at this size."""
    (cfg,) = load_scenario_configs("upward_bias")
    graph = dataclasses.replace(cfg.graph, n_eligible=300, n_ineligible=60, n_connected=450)
    cfg = dataclasses.replace(cfg, T=T, graph=graph)
    d = simulate_scenario_dataset(cfg, 0)
    boot = BootstrapConfig(N_BOOT, seed=2)
    runs = {
        "basic": lambda: estimate_basic(d, cfg.basic.learner, boot),
        "basic-grid": lambda: estimate_basic(d, LearnerConfig(lambda_grid=(1e-3, 3.0, 10.0)), boot),
        "network": lambda: estimate_network(d, cfg.network.learner, boot, seed=4)[0],
        "cmp": lambda: estimate_tte_cmp(d, cmp_config(cfg), boot),
    }
    results = []
    for per_chunk in (1, 3, 16, N_BOOT):
        monkeypatch.setattr(core, "MIN_CHUNK_DRAWS", 1)
        monkeypatch.setattr(core, "CHUNK_BYTES", 8 * d.n_units * per_chunk)
        results.append({name: run().to_dict() for name, run in runs.items()})
    for per_chunk in (3, 16):
        force_threads(monkeypatch, per_chunk)
        results.append({name: run().to_dict() for name, run in runs.items()})
    assert all(r == results[0] for r in results[1:])
