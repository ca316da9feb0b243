"""Smoke test of the benchmark itself: each workload at toy size, untraced and traced.

    python3 -m pytest benchmarks/test_perf_smoke.py -q

It checks that every metric is printed by name with its unit, that the
result line has the form README.md gives, that every output check
passes, and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END = {
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "replicates_per_s.jobs2": "1/s",
    "simulate_save_s": "s",
    "load_estimate_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sim.generate_graph_s": "s",
    "sim.simulate_outcomes_s": "s",
    "sim.ground_truth_tte_s": "s",
    "dataio.save_dataset_s": "s",
    "dataio.load_dataset_s": "s",
    "dataio.bytes_written": "B",
    "dataio.load_rows_per_s": "1/s",
    "core.validate_dataset_s": "s",
    "est_basic.estimate_basic_s": "s",
    "est_network.exposure_matrix_s": "s",
    "est_network.fit_psi_s": "s",
    "est_network.estimate_ptte_s": "s",
    "est_network.boot_draw_ms": "ms",
    "est_cmp.estimate_tte_cmp_s": "s",
    "est_cmp.draw_ms": "ms",
    "est_cmp.build_features_ms": "ms",
    "est_cmp.network_bootstrap_ms": "ms",
    "est_cmp.fit_state_evolution_ms": "ms",
    "est_cmp.counterfactual_evolution_ms": "ms",
    "regress.cross_validate_ms": "ms",
    "regress.ridge_fit_us": "us",
    "bench.run_scenario_s": "s",
    "bench.unattributed_s": "s",
    "bench.jobs2_efficiency": "ratio",
    "trace.overhead_s": "s",
    "cli.estimate_s": "s",
}
# Zero on a healthy run, so it travels as the result's failed/attempted and a printed line.
PRINTED_ONLY = {"ops_failed_frac": "ratio"}
WORKLOADS = ("preset_mc", "short_panel_mc", "large_panel_io")


def _run(cwd: Path, workload: str, trace: int, toy: bool = True):
    cmd = [sys.executable, "benchmarks/perf.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_declares_every_metric():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, out.stderr

    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = unit
            float(value)
    assert printed == {**expected, **PRINTED_ONLY}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    out = _run(tmp_path, "preset_mc", 0, toy=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
