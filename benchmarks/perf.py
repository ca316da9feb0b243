"""interference-lab benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/perf.py --workload preset_mc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's `src/`, never from an installed copy. With `--trace 0` the run
times the end-to-end metrics of BENCHMARK.json; with `--trace 1` it runs the
same work untraced and then traced, and reports the per-layer metrics. The
last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

Lines before it start with `#` (run metadata, self-time table) or `metric`
(every metric by name, value and unit, plus `ops_failed_frac`, which the
result carries as `failed` over `attempted`). `--toy` shrinks every workload
to a few seconds, for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="length of the measured loop")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    return p.parse_args(argv)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 0:
        sys.stderr.write("error: --seed must be nonnegative\n")
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "interference_lab" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: no package source under {SRC} or no {spec_path.name}; "
                         "run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.environ.pop("INTERFERENCE_LAB_SEED", None)  # the CLI would override the workload seed with it

    import numpy as np

    import interference_lab
    import runner

    if Path(interference_lab.__file__).resolve().parent != (SRC / "interference_lab").resolve():
        sys.stderr.write(f"error: imported {interference_lab.__file__}, not the checkout's package\n")
        return 2

    if args.workload not in runner.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(runner.WORKLOADS)}\n")
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)

    values, checks, notes = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy,
                                       ROOT, meta)
    print(notes)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {missing}\n")
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric ops_failed_frac {checks.failed / checks.attempted!r} ratio "
          f"({checks.failed} failed of {checks.attempted} attempted)")
    for what in checks.failures:
        sys.stderr.write(f"FAILED: {what}\n")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
