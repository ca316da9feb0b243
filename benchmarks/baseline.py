"""Run the benchmark over several seeds and write a BENCH file of medians and quartiles.

    python3 benchmarks/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --out benchmarks/BENCH_baseline.json

For each workload it runs `perf.py --trace 0` once per seed, for
`run_seconds` from BENCHMARK.json, then one `--trace 1` run on the first
seed. Per end-to-end metric it records the ten values, their median, their
quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is the
distance between the quartiles as a share of the median. A later BENCH file
is compared with this one only when its machine metadata match.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, "benchmarks/perf.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("# meta "))[len("# meta "):])
    return meta, json.loads(lines[-1]), wall


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="comma-separated seeds, at least 2")
    p.add_argument("--out", required=True, help="BENCH JSON path to write")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]

    bench = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        meta, traced, trace_wall = _run(workload, seeds[0], seconds, 1)
        bench["machine"] = {k: meta[k] for k in ("nproc", "python", "numpy", "commit")}
        e2e = {m["name"]: _summary([r[1]["metrics"][m["name"]]["value"] for r in runs]) for m in spec["end_to_end"]}
        bench["workloads"][workload] = {
            "correct": all(r[1]["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r[1]["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r[1]["failed"] for r in runs) + traced["failed"],
            "run_wall_s": _summary([r[2] for r in runs]),
            "trace_run_wall_s": trace_wall,
            "end_to_end": e2e,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, s in e2e.items():
            print(f"{workload:15s} {name:24s} median {s['median']:.4g}  spread {s['spread']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
