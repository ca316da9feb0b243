"""Scenario-driven Monte Carlo harness: run all three estimators against the
simulator, compare to the ground-truth oracle, and emit comparison reports.

Replicate seeds derive from the scenario seed through named streams, so
individual replicates reproduce in isolation and concurrency never changes
the report bytes. Estimator failures are recorded per replicate without
aborting the sweep.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (BootstrapConfig, EffectEstimate, ExperimentDataset, METHODS, check_count, check_flag, check_int,
                   share_cpus)
from .est_basic import estimate_basic
from .est_cmp import CmpConfig, estimate_tte_cmp
from .est_network import estimate_network
from .regress import LearnerConfig
from .rng import child_seed
from .sim import DgpParams, GraphParams, RolloutParams, ground_truth_tte, simulate_experiment

SCHEMA_VERSION = 1

BIAS_SIGNS = ("positive", "negative")


@dataclass(frozen=True)
class BasicSettings:
    learner: LearnerConfig = LearnerConfig()
    n_bootstrap: int = 500

    def __post_init__(self):
        BootstrapConfig(self.n_bootstrap)


@dataclass(frozen=True)
class NetworkSettings:
    learner: LearnerConfig = LearnerConfig()
    n_bootstrap: int = 500
    weighted_exposures: bool = False

    def __post_init__(self):
        BootstrapConfig(self.n_bootstrap)
        check_flag("weighted_exposures", self.weighted_exposures)


@dataclass(frozen=True)
class CmpSettings:
    """cmp's scenario block. `n_subpopulations` is checked (>= 2) but read by no estimator code (`CmpConfig`)."""

    learner: LearnerConfig = CmpConfig.learner
    n_bootstrap: int = 500
    moment_order: int = 2
    n_subpopulations: int = 10

    def __post_init__(self):
        BootstrapConfig(self.n_bootstrap)
        self.config(seed=0)

    def config(self, seed: int) -> CmpConfig:
        """The estimator config these settings describe, with fit stream `seed`."""
        return CmpConfig(
            moment_order=self.moment_order,
            n_subpopulations=self.n_subpopulations,
            learner=self.learner,
            seed=seed,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulator parameters, estimator settings, and replicate count for one scenario."""

    name: str
    graph: GraphParams
    dgp: DgpParams
    rollout: RolloutParams
    T: int
    seed: int
    replicates: int = 1
    pre_period_end: int | None = None
    expected_bias_sign: str | None = None
    basic: BasicSettings = BasicSettings()
    network: NetworkSettings = NetworkSettings()
    cmp: CmpSettings = CmpSettings()

    def __post_init__(self):
        check_int("seed", self.seed)
        check_count("replicates", self.replicates, 1)
        check_count("T", self.T, 1)
        if self.rollout.stage_boundaries[-1] > self.T:
            raise ValueError(f"rollout stage boundaries must lie within 1..T = {self.T}, "
                             f"got {self.rollout.stage_boundaries[-1]}")
        if self.pre_period_end is not None:
            check_count("pre_period_end", self.pre_period_end, 0)
            if self.pre_period_end >= self.T:
                raise ValueError(f"pre_period_end must be <= T-1 = {self.T - 1}, got {self.pre_period_end}")
        if self.expected_bias_sign is not None and self.expected_bias_sign not in BIAS_SIGNS:
            raise ValueError(f"expected_bias_sign must be one of {BIAS_SIGNS}")


# Scenario `estimators` blocks, their settings types, and the report's method names.
ESTIMATOR_BLOCKS = {"basic": BasicSettings, "network": NetworkSettings, "cmp": CmpSettings}
BLOCK_METHODS = {"basic": "basic", "network": "network_aware", "cmp": "cmp"}


def _require_object(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{context} must be a JSON object, got {type(obj).__name__}")
    return obj


def _build(cls, obj: dict, context: str):
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{context}: {exc}") from None


def settings_from_dict(block: str, obj: dict):
    """Settings for one `estimators.<block>` object; absent keys take the defaults."""
    obj = dict(_require_object(obj, f"{block} settings"))
    unknown = set(obj) - {f.name for f in fields(ESTIMATOR_BLOCKS[block])}
    if unknown:
        raise ValueError(f"unknown {block} settings keys: {sorted(unknown)}")
    if "learner" in obj:
        obj["learner"] = LearnerConfig.from_dict(obj["learner"])
    return _build(ESTIMATOR_BLOCKS[block], obj, f"{block} settings")


def scenario_from_dict(obj: dict, context: str = "scenario config") -> ScenarioConfig:
    obj = {k: v for k, v in _require_object(obj, context).items() if not k.startswith("_")}  # _keys are comments
    missing = {"name", "graph", "dgp", "rollout", "T", "seed"} - set(obj)
    if missing:
        raise ValueError(f"{context} missing keys: {sorted(missing)}")
    estimators = _require_object(obj.pop("estimators", {}), "estimators")
    unknown = set(estimators) - set(ESTIMATOR_BLOCKS)
    if unknown:
        raise ValueError(f"unknown estimator blocks: {sorted(unknown)}")
    leftover = set(obj) - ({f.name for f in fields(ScenarioConfig)} - set(ESTIMATOR_BLOCKS))
    if leftover:
        raise ValueError(f"unknown scenario config keys: {sorted(leftover)}")
    for key, cls in (("graph", GraphParams), ("dgp", DgpParams), ("rollout", RolloutParams)):
        obj[key] = _build(cls, obj[key], f"{key} params")
    for block in ESTIMATOR_BLOCKS:
        obj[block] = settings_from_dict(block, estimators.get(block, {}))
    return _build(ScenarioConfig, obj, context)


def _lists(items) -> dict:
    """`asdict` factory writing tuples as lists, the form scenario JSON uses."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    out = asdict(cfg, dict_factory=_lists)
    out["estimators"] = {block: out.pop(block) for block in ESTIMATOR_BLOCKS}
    return out


def simulate_scenario_dataset(cfg: ScenarioConfig, replicate: int = 0) -> ExperimentDataset:
    """The dataset a given replicate of this scenario observes."""
    return simulate_experiment(
        cfg.graph,
        cfg.dgp,
        cfg.rollout,
        cfg.T,
        seed=child_seed(cfg.seed, "replicate", replicate),
        pre_period_end=cfg.pre_period_end,
    )


def run_method(block: str, dataset: ExperimentDataset, settings, seed: int) -> tuple[EffectEstimate, dict]:
    """Run one estimator block on a dataset: the estimate plus extra replicate-record fields.

    Every estimator stream derives here from `seed` (a bench replicate's seed),
    so `bench` and `cli estimate` give the same result on the same data.
    """
    if block == "basic":
        boot = BootstrapConfig(settings.n_bootstrap, seed=child_seed(seed, "basic"))
        return estimate_basic(dataset, learner=settings.learner, bootstrap=boot), {}
    if block == "network":
        return estimate_network(
            dataset,
            learner=settings.learner,
            bootstrap=BootstrapConfig(settings.n_bootstrap, seed=child_seed(seed, "network")),
            weighted_exposures=settings.weighted_exposures,
            seed=child_seed(seed, "network-fit"),
        )
    boot = BootstrapConfig(settings.n_bootstrap, seed=child_seed(seed, "cmp-boot"))
    return estimate_tte_cmp(dataset, config=settings.config(child_seed(seed, "cmp")), bootstrap=boot), {}


def _run_replicate(cfg: ScenarioConfig, r: int) -> dict:
    rep_seed = child_seed(cfg.seed, "replicate", r)
    record = {"index": r, "truth": None, "estimates": {m: None for m in METHODS}, "errors": {}}
    try:
        dataset = simulate_scenario_dataset(cfg, r)
        record["truth"] = ground_truth_tte(dataset.graph, cfg.dgp, cfg.T)
    except Exception as exc:  # failed replicate: all methods marked failed
        for m in METHODS:
            record["errors"][m] = f"simulation failed: {exc}"
        return record

    for block, method in BLOCK_METHODS.items():
        try:
            est, extras = run_method(block, dataset, getattr(cfg, block), rep_seed)
        except Exception as exc:
            record["errors"][method] = str(exc)
            continue
        record["estimates"][method] = est.to_dict()
        record.update(extras)
    return record


def _sign(x: float) -> int:
    return int(np.sign(x))


def _aggregate(cfg: ScenarioConfig, records: list[dict]) -> dict:
    truths = {rec["index"]: rec["truth"] for rec in records if rec["truth"] is not None}
    methods = {}
    for m in METHODS:
        points, paired, sig, cover, exceeds, sign_match = [], [], [], [], [], []
        n_failed = 0
        for rec in records:
            est = rec["estimates"][m]
            if est is None:
                n_failed += 1
                continue
            truth = truths[rec["index"]]
            points.append(est["point"])
            paired.append(est["point"] - truth)
            sig.append(est["significant_5pct"])
            cover.append(est["ci_low"] <= truth <= est["ci_high"])
            exceeds.append(est["point"] > truth)
            sign_match.append(_sign(est["point"]) == _sign(truth))
        n_ok = len(points)
        if n_ok:
            paired_arr = np.asarray(paired)
            summary = {
                "n_ok": n_ok,
                "n_failed": n_failed,
                "estimate_mean": float(np.mean(points)),
                "estimate_sd": float(np.std(points, ddof=1)) if n_ok > 1 else 0.0,
                "bias_mean": float(paired_arr.mean()),
                "bias_se": float(paired_arr.std(ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else 0.0,
                "abs_bias_mean": float(np.abs(paired_arr).mean()),
                "significance_rate": float(np.mean(sig)),
                "coverage_rate": float(np.mean(cover)),
                "sign_positive_rate": float(np.mean([p > 0 for p in points])),
                "exceeds_truth_rate": float(np.mean(exceeds)),
                "sign_match_truth_rate": float(np.mean(sign_match)),
            }
        else:
            summary = {"n_ok": 0, "n_failed": n_failed}
        methods[m] = summary

    agreement = {a: {b: None for b in METHODS} for a in METHODS}
    for a in METHODS:
        for b in METHODS:
            both = [
                _sign(rec["estimates"][a]["point"]) == _sign(rec["estimates"][b]["point"])
                for rec in records
                if rec["estimates"][a] is not None and rec["estimates"][b] is not None
            ]
            agreement[a][b] = float(np.mean(both)) if both else None

    bias_direction = None
    if cfg.expected_bias_sign is not None:
        want = 1 if cfg.expected_bias_sign == "positive" else -1
        rates = [
            _sign(rec["estimates"]["basic"]["point"] - truths[rec["index"]]) == want
            for rec in records
            if rec["estimates"]["basic"] is not None
        ]
        basic_mean = methods["basic"].get("bias_mean")
        bias_direction = {
            "expected": cfg.expected_bias_sign,
            "basic_match_rate": float(np.mean(rates)) if rates else None,
            "verdict": bool(basic_mean is not None and _sign(basic_mean) == want),
        }

    return {
        "name": cfg.name,
        "config": scenario_to_dict(cfg),
        "n_replicates": cfg.replicates,
        "truth_mean": float(np.mean(list(truths.values()))) if truths else None,
        "methods": methods,
        "sign_agreement": agreement,
        "bias_direction": bias_direction,
        "warnings": {
            "network_extrapolation_replicates": int(
                sum(bool(rec.get("network_extrapolation")) for rec in records)
            )
        },
        "metadata": {
            "treated_classification": "final_period",
            "counterfactual_allocation": "eligible_only",
        },
        "replicates": records,
    }


@dataclass(frozen=True)
class BenchReport:
    """Comparison results, one entry per scenario; JSON is the canonical form."""

    scenarios: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "scenarios": list(self.scenarios)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, obj: dict) -> "BenchReport":
        _check_required(obj, REPORT_SCHEMA, "report")
        if obj["schema"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema: {obj['schema']!r}")
        for i, sc in enumerate(obj["scenarios"]):
            for m in METHODS:
                summary = sc["methods"][m]
                missing = [key for key in RENDERED_SUMMARY_KEYS if key not in summary]
                if summary["n_ok"] and missing:
                    raise ValueError(f"report.scenarios[{i}].methods.{m} has n_ok {summary['n_ok']!r} "
                                     f"but is missing keys {missing}")
        return cls(scenarios=tuple(obj["scenarios"]))


def _check_required(obj, schema: dict, where: str) -> None:
    """Raise ValueError unless `obj` has the objects, arrays and required keys that `schema`, a node of
    `REPORT_SCHEMA`, lays out."""
    kinds = schema.get("type")
    kinds = kinds if isinstance(kinds, list) else [kinds]
    if obj is None and "null" in kinds:
        return
    if "object" in kinds:
        if not isinstance(obj, dict):
            raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
        missing = [key for key in schema.get("required", ()) if key not in obj]
        if missing:
            raise ValueError(f"{where} is missing required keys {missing}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                _check_required(obj[key], sub, f"{where}.{key}")
    elif "array" in kinds:
        if not isinstance(obj, list):
            raise ValueError(f"{where} must be a JSON list, got {type(obj).__name__}")
        for i, item in enumerate(obj):
            _check_required(item, schema["items"], f"{where}[{i}]")


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> BenchReport:
    """Simulate, estimate, and aggregate; deterministic for a given config."""
    check_count("jobs", jobs, 1)
    indices = list(range(1, cfg.replicates + 1))
    workers = min(jobs, cfg.replicates)
    if workers > 1:
        # the fork start method launches every worker up front: never more than there are replicates. The
        # workers keep the CPUs busy, so each one's bootstrap threads get only its share of them.
        with ProcessPoolExecutor(max_workers=workers, initializer=share_cpus, initargs=(workers,)) as pool:
            records = list(pool.map(_run_replicate, [cfg] * len(indices), indices, chunksize=1))
    else:
        records = [_run_replicate(cfg, r) for r in indices]
    records.sort(key=lambda rec: rec["index"])
    return BenchReport(scenarios=(_aggregate(cfg, records),))


def run_scenarios(cfgs: list[ScenarioConfig], jobs: int = 1) -> BenchReport:
    scenarios = []
    for cfg in cfgs:
        scenarios.extend(run_scenario(cfg, jobs=jobs).scenarios)
    return BenchReport(scenarios=tuple(scenarios))


def _fmt_rate(x) -> str:
    return "-" if x is None else f"{100 * x:.1f}%"


def _fmt_num(x) -> str:
    return "-" if x is None else f"{x:.4g}"


# The summary fields `render_report` reads of a method with n_ok > 0.
RENDERED_SUMMARY_KEYS = ("estimate_mean", "estimate_sd", "significance_rate", "bias_mean")


def render_report(report: BenchReport, fmt: str = "markdown") -> str:
    """Markdown comparison table per scenario; JSON is the canonical machine form."""
    if fmt == "json":
        return report.to_json()
    if fmt != "markdown":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = ["# Interference bench report", ""]
    for sc in report.scenarios:
        lines.append(f"## Scenario: {sc['name']}")
        lines.append("")
        lines.append(f"Replicates: {sc['n_replicates']}; ground truth mean: {_fmt_num(sc['truth_mean'])}")
        lines.append("")
        lines.append("| Method | Estimate | Sig. | Bias-vs-truth | Expected-bias match |")
        lines.append("| --- | --- | --- | --- | --- |")
        for m in METHODS:
            s = sc["methods"][m]
            if not s.get("n_ok"):
                lines.append(f"| {m} | failed ({s.get('n_failed', 0)}) | - | - | - |")
                continue
            expected = "-"
            if m == "basic" and sc.get("bias_direction"):
                bd = sc["bias_direction"]
                expected = f"{'yes' if bd['verdict'] else 'no'} ({_fmt_rate(bd['basic_match_rate'])})"
            lines.append(
                f"| {m} | {_fmt_num(s['estimate_mean'])} (sd {_fmt_num(s['estimate_sd'])}) "
                f"| {_fmt_rate(s['significance_rate'])} | {_fmt_num(s['bias_mean'])} | {expected} |"
            )
        lines.append("")
        pairs = ", ".join(
            f"{a}/{b}: {_fmt_rate(sc['sign_agreement'][a][b])}"
            for i, a in enumerate(METHODS)
            for b in METHODS[i + 1 :]
        )
        lines.append(f"Sign agreement: {pairs}")
        lines.append("")
    return "\n".join(lines)


REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "scenarios"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "scenarios": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "name", "config", "n_replicates", "truth_mean", "methods",
                    "sign_agreement", "bias_direction", "warnings", "metadata", "replicates",
                ],
                "properties": {
                    "name": {"type": "string"},
                    "n_replicates": {"type": "integer", "minimum": 1},
                    "truth_mean": {"type": ["number", "null"]},
                    "methods": {
                        "type": "object",
                        "required": list(METHODS),
                        "properties": {m: {"type": "object", "required": ["n_ok"]} for m in METHODS},
                        "additionalProperties": {"type": "object"},
                    },
                    "sign_agreement": {
                        "type": "object",
                        "required": list(METHODS),
                        "properties": {m: {"type": "object", "required": list(METHODS)} for m in METHODS},
                    },
                    "bias_direction": {"type": ["object", "null"], "required": ["basic_match_rate", "verdict"]},
                    "warnings": {"type": "object"},
                    "metadata": {"type": "object"},
                    "replicates": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["index", "truth", "estimates", "errors"],
                        },
                    },
                },
            },
        },
    },
}
