"""Cold-query benchmark of the repro library: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload shuffle_cold --seed 1 --seconds 26 --trace 0

Workloads (see ``workloads.py`` and README.md): ``shuffle_cold``,
``engine_multiround`` and ``service_rw``. A run sets the workload up
several times (the median is ``setup_s``), runs it for ``--seconds`` of
timed work on the default inline backend, checks every output against
an independent reference outside the timed region, prints a table of
every metric and machine facts, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload untraced for half the budget, then replays exactly the same
ops with every layer entry point wrapped (``layertrace.py``) and
reports the per-layer metrics, including the tracing overhead and how
much of the traced time the layers cover. ``diff.py`` compares two
traced results layer by layer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set up this many times per run and report the median, so one slow
# set-up (a cold page cache, a noisy neighbour) does not move setup_s.
SETUP_REPEATS = 3

# The library's hot paths under each layer, counted in the traced run.
SEND_METHODS = ("RoundContext.send", "RoundContext.send_rows",
                "RoundContext.send_many", "RoundContext.broadcast")
DISPATCH_METHODS = ("InlineBackend.map_payloads", "ProcessBackend.map_payloads",
                    "ExecutionBackend.map_payload_batch",
                    "ProcessBackend.map_payload_batch")
ROW_VIEW_METHODS = ("Relation.rows", "Relation.rows_readonly")
JOIN_KERNELS = ("code_key_columns", "join_indices", "join_rows_columnar", "semijoin_mask")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 below two values."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def macro_mean(records, value, per_kind=statistics.fmean) -> float:
    """Mean over op kinds of ``per_kind`` of each kind, so the mix cannot move it.

    A kind is the part of the record's kind before ``:``, so the
    ``str``-keyed variant of an engine op counts with its kind, and the
    writes to the three service relations count as one kind.
    """
    by_kind: dict[str, list[float]] = {}
    for record in records:
        by_kind.setdefault(record.kind.split(":")[0], []).append(value(record))
    if not by_kind:
        return 0.0
    return statistics.fmean(per_kind(v) for v in by_kind.values())


def end_to_end(records, phase_seconds: float, setup_s: float) -> dict[str, tuple[float, str]]:
    done = [r for r in records if r.ok]
    executed = [r for r in done if r.executed]
    latencies = sorted(r.seconds for r in done)
    failed = len(records) - len(done)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / phase_seconds, "1/s"),
        "tuples_per_s": (sum(r.in_tuples for r in done) / phase_seconds, "1/s"),
        "latency_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        # The 90th percentile of each op kind, averaged over kinds. Over
        # all ops together it would fall where the slowest kinds' fast
        # and slow spells on the host meet, and jump with the share of
        # ops that ran in a slow spell.
        "latency_p90_ms": (1000 * macro_mean(done, lambda r: r.seconds,
                                             lambda v: percentile(v, 90)), "ms"),
        "success_rate": (len(done) / len(records), "ratio"),
        "error_rate": (failed / len(records), "ratio"),
        "load_over_in_p": (macro_mean(executed, lambda r: r.load_over_in_p), "ratio"),
        "rounds_mean": (macro_mean(executed, lambda r: r.rounds), "rounds"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def machine_info(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    from repro.exec.config import backend_name
    from repro.kernels.config import kernels_enabled
    from repro.kernels.memo import memo_enabled

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "backend": backend_name(),
        "kernels": kernels_enabled(),
        "memo": memo_enabled(),
    }


def run_phase(workload, seconds=None, limit=None, tracer=None, min_samples=None):
    """(records, phase seconds) of one timed phase.

    ``limit`` replays a phase: a number of ops, or of segments on
    ``service_rw``.
    """
    from workloads import MIN_SAMPLES, ServiceRW

    if isinstance(workload, ServiceRW):
        return workload.run(seconds=seconds, segments=limit, tracer=tracer)
    records = workload.run(seconds=seconds, limit=limit, tracer=tracer,
                           min_samples=MIN_SAMPLES if min_samples is None else min_samples)
    return records, sum(r.seconds for r in records)


def per_layer(tracer, records, phase_seconds, untraced_seconds,
              memo_delta, cache_stats) -> dict[str, tuple[float, str]]:
    n = len(records)
    self_s = tracer.self_seconds()
    reads = [r for r in records if r.submit_s is not None and r.ok]
    writes = [r for r in records if r.write and r.ok]
    planned = [r for r in records if r.ok and r.executed and r.predicted]
    attempts = tracer.counter("partition.attempts")

    def rate(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    def layer_s(layer: str) -> tuple[float, str]:
        return self_s.get(layer, 0.0) / n, "s/op"

    def calls(layer: str, names=None) -> tuple[float, str]:
        return tracer.calls(layer, names) / n, "1/op"

    return {
        "mpc.hashing.calls": calls("mpc.hashing", ("HashFunction.__call__",)),
        "mpc.hashing.self_s": layer_s("mpc.hashing"),
        "kernels.hashing.self_s": layer_s("kernels.hashing"),
        "kernels.partition.self_s": layer_s("kernels.partition"),
        "kernels.partition.rows": (tracer.counter("partition.rows") / n, "1/op"),
        "kernels.partition.hash_ops": (memo_delta.hash_ops / n, "1/op"),
        "kernels.partition.vector_share": (
            tracer.counter("partition.vector") / attempts if attempts else 0.0, "ratio"),
        "mpc.cluster.self_s": layer_s("mpc.cluster"),
        "mpc.cluster.rounds": calls("mpc.cluster", ("round-block",)),
        "mpc.cluster.sends": calls("mpc.cluster", SEND_METHODS),
        "kernels.join.self_s": layer_s("kernels.join"),
        "kernels.join.calls": calls("kernels.join", JOIN_KERNELS),
        "joins.local.self_s": layer_s("joins.local"),
        "joins.self_s": layer_s("joins"),
        "sorting.self_s": layer_s("sorting"),
        "matmul.self_s": layer_s("matmul"),
        "multiway.self_s": layer_s("multiway"),
        "planner.self_s": layer_s("planner"),
        "planner.plans": calls("planner", ("plan_query",)),
        "planner.load_pred_ratio": (
            statistics.fmean(r.load / r.predicted for r in planned) if planned else 0.0,
            "ratio"),
        "data.relation.self_s": layer_s("data.relation"),
        "data.relation.row_views": calls("data.relation", ROW_VIEW_METHODS),
        "exec.self_s": layer_s("exec"),
        "exec.dispatches": calls("exec", DISPATCH_METHODS),
        "exec.fallback_dispatches": (
            sum(r.fallback_dispatches for r in records) / n, "1/op"),
        "kernels.memo.self_s": layer_s("kernels.memo"),
        "kernels.memo.partition_hit_rate": (
            rate(memo_delta.partition_hits, memo_delta.partition_misses), "ratio"),
        "kernels.memo.view_hit_rate": (
            rate(memo_delta.view_hits, memo_delta.view_misses), "ratio"),
        "kernels.memo.hash_ops_saved": (memo_delta.hash_ops_saved / n, "1/op"),
        "query.self_s": layer_s("query"),
        "engine.self_s": layer_s("engine"),
        "service.self_s": layer_s("service"),
        "service.submit_ms": (
            1000 * statistics.fmean(r.submit_s for r in reads) if reads else 0.0, "ms"),
        "service.queue_wait_ms": (
            1000 * statistics.fmean(r.seconds - r.service_s for r in reads) if reads else 0.0,
            "ms"),
        "service.cache_hit_rate": (cache_stats.hit_rate if cache_stats else 0.0, "ratio"),
        "service.invalidations": (
            cache_stats.invalidations / n if cache_stats else 0.0, "1/op"),
        "data.warehouse.self_s": layer_s("data.warehouse"),
        "data.warehouse.write_ms": (
            1000 * statistics.fmean(r.seconds for r in writes) if writes else 0.0, "ms"),
        "trace.overhead": (phase_seconds / untraced_seconds, "ratio"),
        "trace.coverage": (sum(self_s.values()) / phase_seconds, "ratio"),
    }


def partition_observer(tracer, args, kwargs, routed) -> None:
    """Counts rows offered to ``try_route*`` and how many went vectorized."""
    rows = args[1] if len(args) > 1 else kwargs.get("rows", ())
    tracer.count("partition.attempts")
    tracer.count("partition.rows", len(rows))
    if routed:
        tracer.count("partition.vector")


def print_table(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:34s} {value:14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the library sources are missing ({SRC / 'repro'}); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layertrace
    import workloads
    from repro.kernels import memo

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    info = machine_info(args.workload, args.seed, args.seconds, args.trace)
    print("# machine " + json.dumps(info, sort_keys=True))
    problems: list[str] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    try:
        # The untraced half of a traced run only scales the per-layer
        # numbers, so it needs no minimum sample count.
        records, phase_s = run_phase(workload, seconds=budget,
                                     min_samples=0 if args.trace else None)
        if not isinstance(workload, workloads.ServiceRW):
            problems += workload.cold_hit_problems(records)
        e2e = end_to_end(records, phase_s, setup_s)
        all_records = list(records)
        if args.trace:
            tracer = layertrace.Tracer()
            installed = layertrace.install(tracer, observers={
                "kernels.partition:try_route": partition_observer,
                "kernels.partition:try_route_grid": partition_observer,
            })
            if isinstance(workload, workloads.ServiceRW):
                limit = workload.segments
                workload.fresh_service()
            else:
                limit = len(records)
            before = memo.GLOBAL.snapshot()
            try:
                traced, traced_s = run_phase(workload, limit=limit, tracer=tracer)
            finally:
                installed.remove()
            cache = workload.service.stats().cache if getattr(workload, "service", None) else None
            metrics = per_layer(tracer, traced, traced_s, phase_s,
                                memo.GLOBAL.delta(before), cache)
            all_records += traced
        else:
            metrics = {k: v for k, v in e2e.items() if k != "error_rate"}
    finally:
        workload.close()

    failed = [r for r in all_records if not r.ok]
    for record in failed[:5]:
        print(f"# FAILED {record.kind}: {record.error}")
    for problem in problems:
        print(f"# FAILED check: {problem}")
    print(f"# samples: {len(records)} ops in the timed phase "
          f"({sum(1 for r in records if r.ok)} completed), "
          f"{len(all_records) - len(records)} traced")
    print_table("end-to-end" + (" (untraced half of a traced run)" if args.trace else ""), e2e)
    if args.trace:
        print_table("per-layer (traced replay of the same ops)", metrics)
    result = {
        "correct": not failed and not problems,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
