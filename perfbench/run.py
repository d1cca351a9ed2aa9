"""gridarena benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``, so
nothing is built or installed. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run and writes its spans to
``.perfbench_work/spans-<workload>-<seed>.jsonl``. Human-readable lines come
first; the last line of standard output is the JSON result.

Scratch files go to ``.perfbench_work/`` in the checkout and are removed at
the end, except the span files and ``shas.json`` (log hashes of earlier runs,
for the determinism check).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> unit; the order is the print order.
END_TO_END = {
    "setup_s": "s",
    "games_per_s": "1/s",
    "actions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units(span_names) -> dict[str, str]:
    units = {}
    for name in span_names:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({
        "engine.useful_ratio": "ratio",
        "policy.fallback_ratio": "ratio",
        "gateway.requests": "count",
        "gateway.retries": "count",
        "gateway.connections_per_request": "ratio",
        "gateway.inflight_max": "count",
        "gateway.complete.p50_ms": "ms",
        "gateway.complete.p99_ms": "ms",
        "mating.births_per_proposal": "ratio",
        "gamelog.bytes": "bytes",
        "gamelog.replay.events": "count",
        "trace.traced_actions_per_s": "1/s",
        "trace.untraced_actions_per_s": "1/s",
        "trace.overhead": "ratio",
        "trace.spans": "count",
    })
    return units


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="gridarena benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "crowd", "llm", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import gridarena
    from it; exits with code 2 when the checkout has no package."""
    if not (SRC / "gridarena" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'gridarena'}; "
              "run from the root of a gridarena checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gridarena

    if Path(gridarena.__file__).resolve().parent != SRC / "gridarena":
        print(f"perfbench: imported gridarena from {gridarena.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def rates(run, traced: bool) -> tuple[list[float], list[float]]:
    """Per-round games and actions per nominal second."""
    chosen = [(r, run.round_seconds(r)) for r in run.rounds if r.traced == traced]
    return ([r.games / s for r, s in chosen], [r.actions / s for r, s in chosen])


def raw_seconds(run, round_) -> float:
    return sum(run.speed.work_seconds(*part) for part in round_.parts)


def tail_label(count: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99, 90, 50):
        if count * (100 - pct) / 100 >= 10:
            return f"p{pct:g}"
    return "p50"


def end_to_end(run, workloads) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count), in nominal seconds."""
    games, actions = rates(run, traced=False)
    latency = [run.nominal(i) * 1e3 for i in run.latency]
    return {
        "setup_s": (workloads.nominal_median(run, run.setup), len(run.setup)),
        "games_per_s": (statistics.median(games), len(games)),
        "actions_per_s": (statistics.median(actions), len(actions)),
        "latency_p50_ms": (workloads.percentile(latency, 50), len(latency)),
        "latency_p90_ms": (workloads.percentile(latency, 90), len(latency)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def per_layer(run, workloads) -> dict[str, tuple[float, int]]:
    tracer = run.tracer
    calls = tracer.calls()
    self_s = tracer.self_seconds()
    counts = tracer.counts
    out: dict[str, tuple[float, int]] = {}
    for name in workloads.SPAN_NAMES:
        out[f"{name}.s"] = (self_s.get(name, 0.0), calls[name])
        out[f"{name}.calls"] = (calls[name], calls[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    complete_ms = tracer.durations_ms("gateway.complete")
    requests = run.stub["requests"]
    _, traced_rates = rates(run, traced=True)
    _, untraced_rates = rates(run, traced=False)
    traced = statistics.median(traced_rates) if traced_rates else 0.0
    untraced = statistics.median(untraced_rates) if untraced_rates else 0.0
    out.update({
        "engine.useful_ratio": (ratio(counts["engine.useful"], counts["engine.resolved"]),
                                counts["engine.resolved"]),
        "policy.fallback_ratio": (ratio(counts["policy.fallbacks"], counts["policy.decisions"]),
                                  counts["policy.decisions"]),
        "gateway.requests": (requests, requests),
        "gateway.retries": (max(0, requests - calls["gateway.complete"]), requests),
        "gateway.connections_per_request": (ratio(run.stub["connections"], requests), requests),
        "gateway.inflight_max": (run.stub["inflight_max"], requests),
        "gateway.complete.p50_ms": (workloads.percentile(complete_ms, 50) if complete_ms else 0.0,
                                    len(complete_ms)),
        "gateway.complete.p99_ms": (workloads.percentile(complete_ms, 99) if complete_ms else 0.0,
                                    len(complete_ms)),
        "mating.births_per_proposal": (ratio(counts["mating.births"],
                                             calls["mating.resolve_reproduce"]),
                                       calls["mating.resolve_reproduce"]),
        "gamelog.bytes": (counts["gamelog.bytes"], calls["gamelog.write"]),
        "gamelog.replay.events": (counts["gamelog.replay.events"], calls["gamelog.replay"]),
        "trace.traced_actions_per_s": (traced, len(traced_rates)),
        "trace.untraced_actions_per_s": (untraced, len(untraced_rates)),
        "trace.overhead": (1 - traced / untraced if untraced else 0.0, len(traced_rates)),
        "trace.spans": (len(tracer.spans), len(tracer.spans)),
    })
    return out


def report(run, metrics: dict[str, tuple[float, int]], units: dict[str, str]) -> dict:
    """Print the human-readable report and return the JSON result."""
    print(f"workload {run.workload}  seed {run.seed}  seconds {run.seconds:g}  "
          f"trace {int(run.tracer is not None)}  rounds {len(run.rounds)}")
    if run.tracer is None:
        print(f"  latency op: {run.latency_op}; tail percentile with >=10 samples "
              f"beyond it: {tail_label(len(run.latency))}")
        if run.speed is not None:
            slowdown = run.speed.slowdowns
            print(f"  machine slowdown vs nominal: median {statistics.median(slowdown):.3f}, "
                  f"range {min(slowdown):.3f}-{max(slowdown):.3f} (n={len(slowdown)}); "
                  "medians as measured: setup "
                  f"{statistics.median(s for _, s in run.setup):.6g} s, round "
                  f"{statistics.median(raw_seconds(run, r) for r in run.rounds):.6g} s, "
                  f"latency {statistics.median(s for _, s in run.latency) * 1e3:.6g} ms")
    for name, unit in units.items():
        value, samples = metrics[name]
        print(f"  {name:34s} {value:14.6g} {unit:6s} (n={samples})")
    for name, (value, unit, samples) in run.extra.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} (n={samples})")
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6g} {'ratio':6s} "
          f"({failed} of {attempted})")
    for message in run.failures[:20]:
        print(f"  FAILED {message}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_program()
    import spans
    import workloads

    scratch = ROOT / ".perfbench_work"
    work = scratch / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(workload=args.workload, seed=args.seed,
                            seconds=args.seconds, work=work,
                            tracer=spans.Tracer() if args.trace else None)
        workloads.execute(run)
        if run.tracer is None:
            metrics, units = end_to_end(run, workloads), END_TO_END
        else:
            metrics = per_layer(run, workloads)
            units = per_layer_units(workloads.SPAN_NAMES)
            spans_path = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
            run.tracer.write(spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        result = report(run, metrics, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
