"""Run the benchmark over many seeds and summarise each end-to-end metric.

    python3 perfbench/collect.py --workloads sweep crowd --seeds 10 [--out FILE]

For every workload, ``run.py --trace 0`` runs once per seed (seeds 1..N,
workloads interleaved within a seed). Each metric gets its median, quartiles
(``statistics.quantiles(n=4)``) and spread = (q3 - q1) / median, compared
with the metric's bound from BENCHMARK.json. ``--out`` writes the summary as
JSON, merged into the file's ``workloads`` entries when it exists.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(1, args.seeds + 1):
        for workload in args.workloads:
            started = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"])
            wall = time.perf_counter() - started
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} wall={wall:.1f}s", flush=True)

    summary: dict[str, dict] = {}
    for workload, runs in results.items():
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs], bound)
                   for name, bound in bounds.items()}
        summary[workload] = {"runs": len(runs),
                             "all_correct": all(r["correct"] for r in runs),
                             "metrics": metrics}
        print(f"\n{workload} ({len(runs)} runs, all correct: "
              f"{summary[workload]['all_correct']})")
        for name, stats in metrics.items():
            bound = stats["bound"]
            flag = ("" if stats["spread"] <= bound / 3
                    else " <- above bound/3" if stats["spread"] <= bound
                    else " <- ABOVE BOUND")
            print(f"  {name:16s} median {stats['median']:12.6g}  spread "
                  f"{stats['spread']:.4f}  bound {stats['bound']}{flag}")

    if args.out:
        existing = json.loads(args.out.read_text()) if args.out.exists() else {}
        existing["run_seconds"] = spec["run_seconds"]
        existing["seeds"] = [1, args.seeds]
        existing.setdefault("workloads", {}).update(summary)
        args.out.write_text(json.dumps(existing, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
