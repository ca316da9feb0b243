"""Workloads, timed passes and output checks of the benchmark.

Imported by `perf.py` after it has put the checkout's `src/` first on
`sys.path`. Each workload is a closed loop with one client in this process;
only the `jobs=2` replicate run uses a worker pool. README.md records why
each workload exists and which layer should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

from interference_lab import bench, cli, core, est_cmp, regress
from interference_lab.regress import LearnerConfig
from interference_lab.rng import child_seed
from tracing import Tracer, patched

PACKAGE = "interference_lab"
PRESET = "upward_bias"
SETUP_REPEATS = 3

# Functions the traced pass wraps, by module. The four est_cmp internals and
# the regress solvers run thousands of times per replicate; they are timed by
# single-call probes instead, so the wrappers do not distort the trace.
TRACED = {
    "bench": ["run_scenario", "simulate_scenario_dataset"],
    "sim": ["simulate_experiment", "generate_graph", "assign_staggered_rollout", "simulate_outcomes",
            "ground_truth_tte"],
    "dataio": ["save_dataset", "load_dataset"],
    "core": ["validate_dataset"],
    "est_basic": ["estimate_basic"],
    "est_network": ["exposure_matrix", "fit_psi", "estimate_ptte"],
    "est_cmp": ["estimate_tte_cmp"],
}

LARGE_GRAPH = {"n_eligible": 30000, "n_ineligible": 6000, "n_connected": 45000, "avg_degree": 3.0}
TOY_GRAPH = {"n_eligible": 80, "n_ineligible": 16, "n_connected": 120, "avg_degree": 3.0}
TOY_BOOTSTRAP = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    """The preset scenario with `T`, graph-size and bootstrap overrides, and replicates per timed call."""

    name: str
    T: int | None
    graph: dict
    serial_reps: int
    jobs2_reps: int
    n_bootstrap: int | None = None  # None: the preset's


def toy(w: Workload) -> Workload:
    """The workload shrunk to a fraction of a second per round, for warm-up and the smoke test."""
    return dataclasses.replace(w, graph=TOY_GRAPH, serial_reps=2, jobs2_reps=2, n_bootstrap=TOY_BOOTSTRAP)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("preset_mc", None, {}, serial_reps=2, jobs2_reps=2),
        Workload("short_panel_mc", 12, {}, serial_reps=2, jobs2_reps=2),
        # One serial replicate at this size takes ~11 s, so the jobs=2 call
        # runs two (one per worker) and the serial call one.
        Workload("large_panel_io", None, LARGE_GRAPH, serial_reps=1, jobs2_reps=2),
    )
}


def scenario_dict(w: Workload, seed: int) -> dict:
    """The workload's scenario JSON: the shipped preset with the workload's overrides."""
    text = resources.files(f"{PACKAGE}.presets").joinpath(f"{PRESET}.json").read_text("utf-8")
    obj = {k: v for k, v in json.loads(text).items() if not k.startswith("_")}
    obj["name"] = w.name
    obj["seed"] = seed
    if w.T is not None:
        obj["T"] = w.T
    obj["graph"].update(w.graph)
    if w.n_bootstrap is not None:
        for settings in obj["estimators"].values():
            settings["n_bootstrap"] = w.n_bootstrap
    return obj


def _valid_estimate(est) -> bool:
    if not isinstance(est, dict):
        return False
    vals = [est.get(k) for k in ("point", "ci_low", "ci_high")]
    return (
        all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)
        and vals[1] <= vals[0] <= vals[2]
    )


class Checks:
    """Operations attempted and failed; a failure is a replicate error, a nonzero exit or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def report(self, report, label: str) -> None:
        for rec in report.scenarios[0]["replicates"]:
            for method, est in rec["estimates"].items():
                err = rec["errors"].get(method)
                self.op(err is None and _valid_estimate(est),
                        f"{label} replicate {rec['index']} {method}: {err or 'non-finite or unordered estimate'}")

    def same_reports(self, serial, jobs2) -> None:
        """Serial and jobs=2 reports are byte-identical (replicate records, if the sizes differ)."""
        if serial.scenarios[0]["n_replicates"] == jobs2.scenarios[0]["n_replicates"]:
            ok = serial.to_json() == jobs2.to_json()
        else:
            shared = zip(serial.scenarios[0]["replicates"], jobs2.scenarios[0]["replicates"])
            ok = all(json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True) for a, b in shared)
        self.op(ok, "serial and jobs=2 reports differ")

    def cli(self, code: int, what: str) -> None:
        self.op(code == 0, f"cli {what} exited with {code}")


@dataclasses.dataclass
class Inputs:
    """What set-up leaves behind for the measured passes."""

    obj: dict
    scenario_path: Path
    estimate_config_path: Path
    data_dir: Path
    estimate_out: Path

    def simulate_argv(self) -> list[str]:
        return ["simulate", "--config", str(self.scenario_path), "--out", str(self.data_dir)]

    def estimate_argv(self) -> list[str]:
        return ["estimate", "--data", str(self.data_dir), "--method", "cmp",
                "--config", str(self.estimate_config_path), "--out", str(self.estimate_out)]


def _import_seconds(src: Path) -> float:
    """Time `import interference_lab.cli` in a fresh interpreter (start-up excluded)."""
    code = (
        "import time; t = time.perf_counter(); import interference_lab.cli, interference_lab.bench; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.cli_main(argv)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _estimate_config(obj: dict) -> dict:
    return dict(obj["estimators"]["cmp"], seed=obj["seed"])


def setup(w: Workload, seed: int, src: Path, work: Path, checks: Checks) -> tuple[float, Inputs]:
    """Import, config parse, input writing and one warm-up pass; returns (seconds, inputs)."""
    import_s = _import_seconds(src)
    t0 = time.perf_counter()
    obj = scenario_dict(w, seed)
    bench.scenario_from_dict(obj)
    inputs = Inputs(obj, work / "scenario.json", work / "estimate_config.json", work / "data",
                    work / "estimate.json")
    _write_json(inputs.scenario_path, obj)
    _write_json(inputs.estimate_config_path, _estimate_config(obj))

    # Warm-up at toy size: every path the measured loop runs, once.
    warm = scenario_dict(toy(w), seed)
    warm["replicates"] = 1
    checks.report(bench.run_scenario(bench.scenario_from_dict(warm), jobs=1), "warm-up")
    _write_json(work / "warm.json", warm)
    _write_json(work / "warm_estimate.json", _estimate_config(warm))
    checks.cli(_cli(["simulate", "--config", str(work / "warm.json"), "--out", str(work / "warm_data")]),
               "warm-up simulate")
    checks.cli(_cli(["estimate", "--data", str(work / "warm_data"), "--method", "cmp",
                     "--config", str(work / "warm_estimate.json"), "--out", str(work / "warm_est.json")]),
               "warm-up estimate")
    return import_s + time.perf_counter() - t0, inputs


def _config(obj: dict, replicates: int):
    return bench.scenario_from_dict(dict(obj, replicates=replicates))


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


class _Capture:
    """Keeps the dataset the CLI saves and the one it loads, for the round-trip check."""

    def __init__(self):
        self.saved = None
        self.loaded = None

    def wrapper(self, name, func):
        def save(d, path):
            self.saved = d
            return func(d, path)

        def load(path):
            self.loaded = func(path)
            return self.loaded

        return save if name == "dataio.save_dataset" else load


def _cli_simulate_estimate(inputs: Inputs, checks: Checks, capture: _Capture | None = None):
    """Time `simulate` then `estimate --method cmp`; returns (simulate_s, estimate_s)."""
    cm = (patched(PACKAGE, {"dataio": ["save_dataset", "load_dataset"]}, capture.wrapper)
          if capture else contextlib.nullcontext())
    with cm:
        sim_s, code = _timed(_cli, inputs.simulate_argv())
        checks.cli(code, "simulate")
        est_s, code = _timed(_cli, inputs.estimate_argv())
        checks.cli(code, "estimate")
    return sim_s, est_s


def _read_estimate(inputs: Inputs, checks: Checks):
    try:
        est = json.loads(inputs.estimate_out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        est = None
    checks.op(_valid_estimate(est), "cli estimate output missing, non-finite or unordered")
    return est


def _cmp_args(settings: dict, seed: int):
    """(CmpConfig, BootstrapConfig) from a cmp settings block, on the streams bench and the CLI derive."""
    config = est_cmp.CmpConfig(
        moment_order=settings["moment_order"],
        n_subpopulations=settings["n_subpopulations"],
        learner=LearnerConfig.from_dict(settings["learner"]),
        time_homogeneous=settings.get("time_homogeneous", True),
        seed=child_seed(seed, "cmp"),
    )
    return config, core.BootstrapConfig(settings["n_bootstrap"], seed=child_seed(seed, "cmp-boot"))


def _check_dataset_outputs(inputs: Inputs, capture: _Capture, cli_estimate, checks: Checks) -> None:
    """Save/load round trip, and the cmp estimate unchanged when the graph is dropped."""
    checks.op(capture.saved is not None and capture.loaded is not None
              and core.datasets_equal(capture.loaded, capture.saved),
              "load_dataset(p) differs from the dataset save_dataset wrote to p")
    if capture.loaded is None:
        return
    # The CLI derives the estimator streams from the config seed.
    blind = est_cmp.estimate_tte_cmp(dataclasses.replace(capture.loaded, graph=None),
                                     *_cmp_args(inputs.obj["estimators"]["cmp"], inputs.obj["seed"]))
    checks.op(cli_estimate is not None and blind.to_dict() == cli_estimate,
              "cmp estimate changed when the graph was dropped")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w: Workload, seed: int, seconds: float, src: Path, work: Path,
               checks: Checks) -> tuple[dict, str]:
    """Untraced pass: set-up medians, then closed-loop rounds for `seconds`; medians per metric."""
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, inputs = setup(w, seed, src, work, checks)
        setups.append(setup_s)
    cfg_serial = _config(inputs.obj, w.serial_reps)
    cfg_jobs2 = _config(inputs.obj, w.jobs2_reps)

    rounds = []
    capture = _Capture()
    first_estimate = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        serial_s, rep_serial = _timed(bench.run_scenario, cfg_serial, jobs=1)
        jobs2_s, rep_jobs2 = _timed(bench.run_scenario, cfg_jobs2, jobs=2)
        sim_s, est_s = _cli_simulate_estimate(inputs, checks, capture if not rounds else None)
        checks.report(rep_serial, "serial")
        checks.report(rep_jobs2, "jobs=2")
        checks.same_reports(rep_serial, rep_jobs2)
        est = _read_estimate(inputs, checks)
        if first_estimate is None:
            first_estimate = est
        else:
            checks.op(est == first_estimate, "cli estimate changed between identical runs")
        rounds.append((w.serial_reps / serial_s, w.jobs2_reps / jobs2_s, sim_s, est_s))
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:  # the round count nearest to `seconds`
            break

    _check_dataset_outputs(inputs, capture, first_estimate, checks)
    samples = dict(zip(("replicates_per_s", "replicates_per_s.jobs2", "simulate_save_s", "load_estimate_s"),
                       zip(*rounds)), setup_s=setups)
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics["peak_rss_mb"] = _peak_rss_mb()
    notes = [f"# medians of {len(rounds)} measured rounds ({w.serial_reps} serial and {w.jobs2_reps} jobs=2 "
             f"replicate(s) per round) and {len(setups)} set-ups; samples:"]
    notes += [f"#   {name}: " + " ".join(f"{v:.4g}" for v in vals) for name, vals in samples.items()]
    return metrics, "\n".join(notes)


def _per_call(fn, budget_s: float = 0.25, min_calls: int = 5, max_calls: int = 5000) -> float:
    """Median seconds per call over a short time-bounded loop."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_calls or (len(times) < max_calls and time.perf_counter() < deadline):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _probes(d, obj: dict) -> dict:
    """Single-call probes on one replicate's dataset, with the workload's cmp settings."""
    s = obj["estimators"]["cmp"]
    learner = LearnerConfig.from_dict(s["learner"])
    seed = obj["seed"]
    features = est_cmp.build_features(d, s["moment_order"])
    model = est_cmp.fit_state_evolution(features, learner, seed=seed)
    table, targets = features.table, features.targets
    return {
        "est_cmp.build_features_ms": 1e3 * _per_call(lambda: est_cmp.build_features(d, s["moment_order"])),
        "est_cmp.network_bootstrap_ms": 1e3 * _per_call(
            lambda: est_cmp.network_bootstrap(d, s["n_subpopulations"], seed)),
        "est_cmp.fit_state_evolution_ms": 1e3 * _per_call(
            lambda: est_cmp.fit_state_evolution(features, learner, seed=seed)),
        "est_cmp.counterfactual_evolution_ms": 1e3 * _per_call(
            lambda: est_cmp.counterfactual_evolution(model, features.baseline_mean,
                                                     core.AllocationScenario.ALL_TREATED, d.n_periods)),
        "regress.cross_validate_ms": 1e3 * _per_call(
            lambda: regress.cross_validate(table, targets, learner.lambda_grid,
                                           k_folds=min(learner.cv_folds, len(table)), seed=seed)),
        "regress.ridge_fit_us": 1e6 * _per_call(
            lambda: regress.ridge_fit(table, targets, learner.lambda_grid[0])),
    }


def _dataset_files(data_dir: Path) -> tuple[int, int]:
    """(bytes, data rows) over the dataset directory, computed from the files."""
    size = rows = 0
    for p in sorted(data_dir.iterdir()):
        size += p.stat().st_size
        if p.suffix == ".csv":
            with open(p, "rb") as f:
                rows += sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b"")) - 1
    return size, rows


def traced(w: Workload, seed: int, src: Path, work: Path, checks: Checks, spans_path: Path,
           meta: dict) -> tuple[dict, str]:
    """`run_scenario`, CLI simulate and CLI estimate, traced, each next to an untraced twin.

    The order is untraced `run_scenario`, traced `run_scenario`, traced CLI,
    untraced CLI: each traced segment runs right beside the untraced one it
    is compared with, and a steady drift of the host's speed enters the two
    halves of `trace.overhead_s` with opposite signs.
    """
    _, inputs = setup(w, seed, src, work, checks)
    serial_reps, jobs2_reps = w.serial_reps, w.jobs2_reps
    cfg_serial = _config(inputs.obj, serial_reps)

    jobs2_s, rep_jobs2 = _timed(bench.run_scenario, _config(inputs.obj, jobs2_reps), jobs=2)
    serial_s, rep_serial = _timed(bench.run_scenario, cfg_serial, jobs=1)
    checks.report(rep_jobs2, "jobs=2")
    checks.report(rep_serial, "serial")
    checks.same_reports(rep_serial, rep_jobs2)

    tracer = Tracer()
    with patched(PACKAGE, TRACED, tracer.wrap) as missing:
        t0 = time.perf_counter()
        tracer.group = "run-scenario"
        rep_traced = bench.run_scenario(cfg_serial, jobs=1)
        tracer.group = "cli-simulate"
        with tracer.span("cli.simulate"):
            checks.cli(_cli(inputs.simulate_argv()), "simulate (traced)")
        tracer.group = "cli-estimate"
        with tracer.span("cli.estimate"):
            checks.cli(_cli(inputs.estimate_argv()), "estimate (traced)")
        traced_wall = time.perf_counter() - t0
    checks.op(not missing, f"traced functions missing from the package: {missing}")
    checks.op(rep_traced.to_json() == rep_serial.to_json(), "traced run_scenario report differs from untraced")
    traced_estimate = _read_estimate(inputs, checks)

    capture = _Capture()
    sim_s, est_s = _cli_simulate_estimate(inputs, checks, capture)
    cli_estimate = _read_estimate(inputs, checks)
    checks.op(traced_estimate == cli_estimate, "traced cli estimate differs from untraced")
    _check_dataset_outputs(inputs, capture, cli_estimate, checks)
    untraced_wall = serial_s + sim_s + est_s
    traced_rs = tracer.total("bench.run_scenario")
    traced_cli = tracer.total("cli.simulate") + tracer.total("cli.estimate")

    by_name = tracer.self_time_by(lambda name: name)
    unattributed = by_name["bench.run_scenario"]
    outside = traced_wall - tracer.top_level_total()
    est = inputs.obj["estimators"]
    n_bytes, n_rows = _dataset_files(inputs.data_dir)
    ptte_calls = max(tracer.count("est_network.estimate_ptte"), 1)
    cmp_calls = max(tracer.count("est_cmp.estimate_tte_cmp"), 1)
    metrics = {
        "sim.generate_graph_s": tracer.total("sim.generate_graph"),
        "sim.simulate_outcomes_s": tracer.total("sim.simulate_outcomes"),
        "sim.ground_truth_tte_s": tracer.total("sim.ground_truth_tte"),
        "dataio.save_dataset_s": tracer.total("dataio.save_dataset"),
        "dataio.load_dataset_s": tracer.total("dataio.load_dataset"),
        "dataio.bytes_written": float(n_bytes),
        "dataio.load_rows_per_s": n_rows / max(tracer.total("dataio.load_dataset"), 1e-12),
        "core.validate_dataset_s": tracer.total("core.validate_dataset"),
        "est_basic.estimate_basic_s": tracer.total("est_basic.estimate_basic"),
        "est_network.exposure_matrix_s": tracer.total("est_network.exposure_matrix"),
        "est_network.fit_psi_s": tracer.total("est_network.fit_psi"),
        "est_network.estimate_ptte_s": tracer.total("est_network.estimate_ptte"),
        "est_network.boot_draw_ms": 1e3 * tracer.total("est_network.estimate_ptte")
        / (ptte_calls * est["network"]["n_bootstrap"]),
        "est_cmp.estimate_tte_cmp_s": tracer.total("est_cmp.estimate_tte_cmp"),
        "est_cmp.draw_ms": 1e3 * tracer.total("est_cmp.estimate_tte_cmp")
        / (cmp_calls * (est["cmp"]["n_bootstrap"] + 1)),
        **_probes(bench.simulate_scenario_dataset(cfg_serial, 1), inputs.obj),
        "bench.run_scenario_s": serial_s,
        "bench.unattributed_s": unattributed,
        "bench.jobs2_efficiency": (jobs2_reps / jobs2_s) / (2.0 * serial_reps / serial_s),
        "trace.overhead_s": traced_wall - untraced_wall,
        "cli.estimate_s": by_name["cli.estimate"],
    }

    # Rows add up to the traced wall: every span's self time, by layer, with
    # run_scenario's own self time as bench.unattributed_s and the benchmark's
    # code between the top-level spans as its own row.
    by_layer = tracer.self_time_by(
        lambda name: "bench.unattributed" if name == "bench.run_scenario" else name.split(".", 1)[0])
    by_layer["outside spans"] = outside
    lines = [f"# self time by layer, traced pass ({serial_reps} serial replicate(s), cli simulate, cli estimate),"
             " as a share of the traced wall and of the untraced wall of the same work:"]
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"#   {layer:<18} {t:10.4f} s  {100 * t / traced_wall:5.1f}%  {100 * t / untraced_wall:5.1f}%")
    lines.append(f"#   {'traced wall':<18} {traced_wall:10.4f} s")
    lines.append(f"#   {'untraced wall':<18} {untraced_wall:10.4f} s  (overhead {traced_wall - untraced_wall:+.4f} s)")
    lines.append(f"#   run_scenario traced {traced_rs:.4f} s, untraced {serial_s:.4f} s; "
                 f"cli traced {traced_cli:.4f} s, untraced {sim_s + est_s:.4f} s")

    tracer.dump(spans_path, dict(meta, traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                                 untraced_run_scenario_s=serial_s, untraced_cli_s=sim_s + est_s))
    return metrics, "\n".join(lines)


def run(workload: str, seed: int, seconds: float, trace: bool, shrink: bool, root: Path, meta: dict):
    """Run one workload, at toy size if `shrink`; returns (metrics, checks, notes to print)."""
    w = toy(WORKLOADS[workload]) if shrink else WORKLOADS[workload]
    runs = root / "benchmarks" / ".runs"
    work = runs / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        if trace:
            spans_path = runs / f"trace-{workload}-seed{seed}.json"
            metrics, notes = traced(w, seed, root / "src", work, checks, spans_path, meta)
            notes += f"\n# spans written to {spans_path.relative_to(root)}"
        else:
            metrics, notes = end_to_end(w, seed, seconds, root / "src", work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, checks, notes
