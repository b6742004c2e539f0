"""``python -m repro bench`` — run the measured benchmarks, write BENCH JSON.

The runner executes every curated experiment (untimed preparation, timed
execution), then runs the kernels on/off *speedup pairs*: the same
experiment under both modes, verifying that the measured ``L_max`` and
round count are identical and that the outputs agree with each other and
with the single-node oracle — the wall clock is the only thing the
kernels are allowed to change.

The resulting document (schema ``repro-bench/1``, see
:mod:`repro.bench.schema`) is validated before it is written. A second
BENCH file can be diffed against it with ``--baseline`` (or standalone
via ``--diff A B``); regressions beyond the threshold fail the run
unless ``--warn-only``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.bench.compare import compare_bench
from repro.bench.experiments import EXPERIMENTS, Experiment
from repro.bench.schema import SCHEMA_VERSION, validate_bench
from repro.exec.config import backend_name, transport_name, use_backend, worker_count
from repro.kernels.config import kernels_enabled, use_kernels

__all__ = [
    "machine_info",
    "main",
    "run_bench",
    "run_bench_x4",
    "run_bench_x7",
    "run_bench_x8",
    "run_bench_x9",
    "run_experiment",
    "run_scaling",
    "run_speedup",
    "run_transport_ab",
]

# Backend scaling (the x4 bench): pool sizes swept per experiment, and
# the experiments whose local phase is heavy enough to be worth timing
# across transports (≥ 2 by design — the criterion is per-experiment).
SCALING_WORKERS = (1, 2, 4, 8)
SCALING_EXPERIMENTS = (
    "hash_join_uniform",
    "hypercube_triangle",
    "psrs_sort",
    "sql_matmul",
)

# Transport A/B (REPRO_SHM_ROWS on vs off): the two experiments whose
# deliveries are dominated by integer tuple lists, so row packing moves
# the most bytes out of the queues' pickle stream.
TRANSPORT_EXPERIMENTS = ("hash_join_uniform", "hypercube_triangle")


def machine_info() -> dict[str, Any]:
    """The environment fields recorded in every BENCH file.

    ``backend``/``workers``/``transport`` pin down the execution backend
    the run was measured under — two BENCH files from different backends
    are not comparable (the comparator refuses without ``--force``).
    """
    import numpy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
        "backend": backend_name(),
        "workers": worker_count() if backend_name() == "process" else 1,
        "transport": transport_name() if backend_name() == "process" else "none",
    }


def _timed(
    experiment: Experiment, inputs: Any, repeats: int
) -> tuple[float, int, int, list[Any]]:
    """Best wall time over ``repeats`` runs, plus the run's results."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        load, rounds, output = experiment.execute(inputs, experiment.p, experiment.seed)
        best = min(best, time.perf_counter() - start)
    return best, load, rounds, output


def run_experiment(
    experiment: Experiment, quick: bool = False, repeats: int = 1
) -> dict[str, Any]:
    """One experiment record: ``{name, n, p, seconds, L_max, rounds, out_size}``."""
    n = experiment.size(quick)
    inputs = experiment.prepare(n, experiment.seed)
    seconds, load, rounds, output = _timed(experiment, inputs, repeats)
    return {
        "name": experiment.name,
        "n": n,
        "p": experiment.p,
        "seconds": seconds,
        "L_max": load,
        "rounds": rounds,
        "out_size": len(output),
    }


def run_speedup(
    experiment: Experiment, quick: bool = False, repeats: int = 2
) -> dict[str, Any]:
    """Kernels on-vs-off record for one experiment (same inputs, same seed)."""
    from repro.testing.oracle import multiset_diff

    n = experiment.size(quick)
    inputs = experiment.prepare(n, experiment.seed)
    with use_kernels(True):
        on_s, on_load, on_rounds, on_out = _timed(experiment, inputs, repeats)
    with use_kernels(False):
        off_s, off_load, off_rounds, off_out = _timed(experiment, inputs, repeats)
    identical = (
        on_load == off_load
        and on_rounds == off_rounds
        and not multiset_diff(off_out, on_out)
    )
    oracle_ok = True
    if experiment.oracle is not None:
        oracle_ok = not multiset_diff(experiment.oracle(inputs), on_out)
    return {
        "name": experiment.name,
        "n": n,
        "p": experiment.p,
        "seconds_on": on_s,
        "seconds_off": off_s,
        "speedup": off_s / on_s if on_s > 0 else 0.0,
        "L_max": on_load,
        "rounds": on_rounds,
        "identical": identical,
        "oracle_ok": oracle_ok,
    }


def run_scaling(
    experiment: Experiment,
    quick: bool = False,
    repeats: int = 2,
    workers: Sequence[int] = SCALING_WORKERS,
    transports: Sequence[str] = ("shm", "pickle"),
) -> list[dict[str, Any]]:
    """Backend-scaling records for one experiment (the x4 sweep).

    Times the inline backend once as the reference, then the process
    backend at every (worker count, transport) combination on the same
    inputs. ``speedup`` is inline-time / process-time (> 1 means the
    pool wins); ``identical`` certifies the process run reproduced the
    inline L_max, round count, and output exactly — the determinism
    contract the backend layer guarantees by construction.
    """
    n = experiment.size(quick)
    inputs = experiment.prepare(n, experiment.seed)
    with use_backend("inline"):
        base_s, base_load, base_rounds, base_out = _timed(
            experiment, inputs, repeats
        )
    records = [{
        "name": experiment.name,
        "n": n,
        "p": experiment.p,
        "backend": "inline",
        "workers": 1,
        "transport": "none",
        "seconds": base_s,
        "speedup": 1.0,
        "L_max": base_load,
        "rounds": base_rounds,
        "out_size": len(base_out),
        "identical": True,
    }]
    for transport in transports:
        for count in workers:
            with use_backend("process", workers=count, transport=transport):
                run_s, load, rounds, output = _timed(experiment, inputs, repeats)
            records.append({
                "name": experiment.name,
                "n": n,
                "p": experiment.p,
                "backend": "process",
                "workers": count,
                "transport": transport,
                "seconds": run_s,
                "speedup": base_s / run_s if run_s > 0 else 0.0,
                "L_max": load,
                "rounds": rounds,
                "out_size": len(output),
                "identical": (
                    load == base_load
                    and rounds == base_rounds
                    and output == base_out
                ),
            })
    return records


def run_transport_ab(
    quick: bool = False, workers: int = 2, echo: bool = True
) -> list[dict[str, Any]]:
    """Shm row-packing on vs off: where the transported bytes actually go.

    Runs each :data:`TRANSPORT_EXPERIMENTS` entry twice on the process
    backend with the ``shm`` transport — once with integer row-block
    packing enabled (the default) and once forced off — and records the
    :class:`~repro.mpc.stats.ExecStats` byte counters of each run.
    ``identical`` certifies the two modes produced the same output,
    L_max, and round count; the interesting delta is ``pickle_bytes``
    (packing moves tuple lists out of the queue stream) against
    ``shm_bytes`` (where those bytes reappear as one block per list).
    """
    from repro.bench.experiments import experiment as experiment_by_name
    from repro.exec.config import use_shm_rows
    from repro.joins.hash_join import parallel_hash_join
    from repro.multiway.hypercube import triangle_hypercube

    def say(message: str) -> None:
        if echo:
            print(message, flush=True)

    runners = {
        "hash_join_uniform": lambda inputs, p, seed: parallel_hash_join(
            inputs[0], inputs[1], p=p, seed=seed
        ),
        "hypercube_triangle": lambda inputs, p, seed: triangle_hypercube(
            *inputs, p=p, seed=seed
        ),
    }
    records: list[dict[str, Any]] = []
    for name in TRANSPORT_EXPERIMENTS:
        exp = experiment_by_name(name)
        n = exp.size(quick)
        inputs = exp.prepare(n, exp.seed)
        runs: dict[bool, Any] = {}
        for rows_packing in (True, False):
            with use_backend("process", workers=workers, transport="shm"), \
                    use_shm_rows(rows_packing):
                start = time.perf_counter()
                run = runners[name](inputs, exp.p, exp.seed)
                seconds = time.perf_counter() - start
            runs[rows_packing] = run
            ex = run.stats.exec
            records.append({
                "name": name,
                "n": n,
                "p": exp.p,
                "workers": workers,
                "rows_packing": rows_packing,
                "seconds": seconds,
                "shm_bytes": ex.shm_bytes_out + ex.shm_bytes_in,
                "pickle_bytes": ex.pickle_bytes_out + ex.pickle_bytes_in,
                "L_max": run.load,
                "rounds": run.rounds,
                "out_size": len(run.output),
                "identical": True,  # filled in below against the pair
            })
        on, off = runs[True], runs[False]
        identical = (
            on.load == off.load
            and on.rounds == off.rounds
            and on.output.rows_readonly() == off.output.rows_readonly()
        )
        records[-1]["identical"] = identical
        records[-2]["identical"] = identical
        for record in records[-2:]:
            say(
                f"  {record['name']:<22} rows_packing="
                f"{str(record['rows_packing']):<5} "
                f"shm={record['shm_bytes']:>12,}B "
                f"pickle={record['pickle_bytes']:>12,}B "
                f"identical={record['identical']}"
            )
    return records


def run_bench(
    quick: bool = False,
    include_speedups: bool = True,
    echo: bool = True,
) -> dict[str, Any]:
    """Run everything and assemble the BENCH document."""

    def say(message: str) -> None:
        if echo:
            print(message, flush=True)

    repeats = 3 if quick else 1
    records = []
    for experiment in EXPERIMENTS:
        record = run_experiment(experiment, quick=quick, repeats=repeats)
        say(
            f"  {record['name']:<22} n={record['n']:<8} p={record['p']:<3} "
            f"{record['seconds']:.3f}s  L_max={record['L_max']} "
            f"rounds={record['rounds']} out={record['out_size']}"
        )
        records.append(record)
    speedups = []
    if include_speedups:
        say("kernel speedup pairs (on vs off):")
        for experiment in EXPERIMENTS:
            if not experiment.speedup_pair:
                continue
            record = run_speedup(
                experiment, quick=quick, repeats=3 if quick else 2
            )
            say(
                f"  {record['name']:<22} on={record['seconds_on']:.3f}s "
                f"off={record['seconds_off']:.3f}s "
                f"speedup={record['speedup']:.1f}x "
                f"identical={record['identical']} oracle={record['oracle_ok']}"
            )
            speedups.append(record)
    say("transport A/B (shm row packing on vs off, process backend):")
    transport_ab = run_transport_ab(quick=quick, echo=echo)
    return {
        "schema": SCHEMA_VERSION,
        "machine": machine_info(),
        "kernels": kernels_enabled(),
        "quick": quick,
        "experiments": records,
        "speedups": speedups,
        "transport_ab": transport_ab,
    }


def run_bench_x4(quick: bool = False, echo: bool = True) -> dict[str, Any]:
    """The x4 document: backend scaling over worker counts and transports.

    The ``experiments`` section holds the inline reference runs (so the
    file diffs against any other BENCH with the standard comparator);
    the ``scaling`` section holds the full (workers × transport) sweep.
    """
    from repro.bench.experiments import experiment as experiment_by_name

    def say(message: str) -> None:
        if echo:
            print(message, flush=True)

    repeats = 2 if quick else 1
    baselines: list[dict[str, Any]] = []
    scaling: list[dict[str, Any]] = []
    for name in SCALING_EXPERIMENTS:
        exp = experiment_by_name(name)
        records = run_scaling(exp, quick=quick, repeats=repeats)
        for record in records:
            say(
                f"  {record['name']:<22} {record['backend']:<7} "
                f"w={record['workers']} {record['transport']:<6} "
                f"{record['seconds']:.3f}s speedup={record['speedup']:.2f}x "
                f"identical={record['identical']}"
            )
        inline = records[0]
        baselines.append({
            "name": inline["name"],
            "n": inline["n"],
            "p": inline["p"],
            "seconds": inline["seconds"],
            "L_max": inline["L_max"],
            "rounds": inline["rounds"],
            "out_size": inline["out_size"],
        })
        scaling.extend(records)
    return {
        "schema": SCHEMA_VERSION,
        "machine": machine_info(),
        "kernels": kernels_enabled(),
        "quick": quick,
        "experiments": baselines,
        "speedups": [],
        "scaling": scaling,
    }


# The x7 acceptance ceiling: no recorded strategy's measured L_max may
# exceed this multiple of its prediction at the committed seeds.
X7_RATIO_CEILING = 2.0


def run_bench_x7(quick: bool = False, echo: bool = True) -> dict[str, Any]:
    """The x7 document: planner predicted-vs-measured load per strategy.

    Plans every :func:`~repro.bench.planner_scenarios.planner_scenarios`
    workload once, then times *every* applicable candidate — the chosen
    strategy and the rejected ones alike — recording predicted load,
    measured L_max, round counts, and the measured/predicted ratio. The
    ``experiments`` section holds the chosen strategy's wall time per
    scenario (so the file diffs against any BENCH with the standard
    comparator); the ``x7`` section holds the full per-strategy sweep
    that :func:`~repro.bench.compare.compare_bench` checks for ratio
    drift.
    """
    from repro.bench.planner_scenarios import planner_scenarios
    from repro.planner.optimizer import execute_strategy, plan_query
    from repro.query.parser import parse_query

    def say(message: str) -> None:
        if echo:
            print(message, flush=True)

    experiments: list[dict[str, Any]] = []
    x7: list[dict[str, Any]] = []
    for scenario in planner_scenarios(quick):
        cq = parse_query(scenario.query)
        explain = plan_query(
            cq, scenario.relations, scenario.p, seed=scenario.seed
        )
        say(f"  {scenario.name}: chose {explain.chosen} "
            f"(expected {scenario.expect})")
        for candidate in explain.candidates:
            if not candidate.applicable:
                continue
            start = time.perf_counter()
            output, stats = execute_strategy(
                cq, scenario.relations, scenario.p, candidate.strategy,
                seed=scenario.seed,
            )
            seconds = time.perf_counter() - start
            predicted = float(candidate.predicted_load or 0.0)
            ratio = stats.max_load / predicted if predicted > 0 else 0.0
            chosen = candidate.strategy == explain.chosen
            record = {
                "name": scenario.name,
                "strategy": candidate.strategy,
                "n": scenario.n,
                "p": scenario.p,
                "chosen": chosen,
                "predicted_load": predicted,
                "measured_load": stats.max_load,
                "predicted_rounds": int(candidate.predicted_rounds or 0),
                "measured_rounds": stats.num_rounds,
                "ratio": ratio,
                "seconds": seconds,
                "out_size": len(output),
            }
            x7.append(record)
            say(
                f"    {candidate.strategy:<10} pred={predicted:>10.1f} "
                f"meas={stats.max_load:>8} ratio={ratio:.2f} "
                f"r={stats.num_rounds} {seconds:.3f}s"
                f"{'  <- chosen' if chosen else ''}"
            )
            if chosen:
                experiments.append({
                    "name": f"x7_{scenario.name}",
                    "n": scenario.n,
                    "p": scenario.p,
                    "seconds": seconds,
                    "L_max": stats.max_load,
                    "rounds": stats.num_rounds,
                    "out_size": len(output),
                })
    return {
        "schema": SCHEMA_VERSION,
        "machine": machine_info(),
        "kernels": kernels_enabled(),
        "quick": quick,
        "experiments": experiments,
        "speedups": [],
        "x7": x7,
    }


def run_bench_x8(quick: bool = False, echo: bool = True) -> dict[str, Any]:
    """The x8 document: concurrent service throughput and byte-identity.

    Stands up a :class:`~repro.service.QueryService` over the generated
    star-schema warehouse and plays the built-in workload mix against it
    at increasing client counts (barrier-started threads, each its own
    tenant), plus one query-splitting arm. Every arm records throughput,
    admission counts, and cache counters, and asserts every concurrent
    result **byte-identical** (canonical row order) to a serial baseline
    captured before any contention; repeated workloads must show a
    non-zero cache hit rate. The ``experiments`` section carries one
    chosen record per arm so the file diffs with the standard comparator.
    """
    import threading

    from repro.data.warehouse import make_warehouse
    from repro.service.cli import WORKLOAD
    from repro.service.service import QueryService, TenantQuota
    from repro.service.splitter import canonical

    def say(message: str) -> None:
        if echo:
            print(message, flush=True)

    orders = 800 if quick else 3000
    client_counts = [1, 2, 4] if quick else [1, 2, 4, 8]
    queries_per_client = 4 if quick else 10
    p = 8
    workers = 4
    warehouse = make_warehouse(
        n_orders=orders, n_customers=max(50, orders // 10), seed=0
    )

    # Serial baselines: one uncontended, cache-free pass per workload
    # query — the byte-identity reference and the L_max/rounds source
    # for the experiments section.
    baselines: dict[str, tuple[list, int, int, int]] = {}
    with QueryService(warehouse, p=p, workers=1, cache_size=0, seed=0) as svc:
        for query in WORKLOAD:
            result = svc.query(query)
            baselines[query] = (
                canonical(result.output).rows_readonly(),
                result.max_load, result.rounds, len(result.output),
            )

    def run_arm(name: str, clients: int, split: int) -> dict[str, Any]:
        service = QueryService(
            warehouse, p=p, workers=workers, queue_size=max(64, clients * 16),
            default_quota=TenantQuota(max_in_flight=queries_per_client + 1),
            cache_size=256, seed=0,
        )
        mismatches = [0]
        rejected = [0]
        failures: list[BaseException] = []
        lock = threading.Lock()
        barrier = threading.Barrier(clients + 1)

        def client(index: int) -> None:
            barrier.wait(timeout=60)
            for j in range(queries_per_client):
                query = WORKLOAD[(index + j) % len(WORKLOAD)]
                use_split = split if query.count("(") > 2 else 1
                try:
                    result = service.query(
                        query, tenant=f"client-{index}", split=use_split
                    )
                except Exception as exc:  # noqa: BLE001 - reported per arm
                    from repro.errors import AdmissionError

                    with lock:
                        if isinstance(exc, AdmissionError):
                            rejected[0] += 1
                        else:
                            failures.append(exc)
                    continue
                rows = canonical(result.output).rows_readonly()
                if rows != baselines[query][0]:
                    with lock:
                        mismatches[0] += 1

        threads = [
            threading.Thread(target=client, args=(i,), name=f"x8-client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        stats = service.stats()
        service.close()
        if failures:
            raise failures[0]
        completed = stats.completed
        return {
            "name": name,
            "clients": clients,
            "workers": workers,
            "split": split,
            "queries": clients * queries_per_client,
            "completed": completed,
            "rejected": rejected[0],
            "seconds": seconds,
            "queries_per_second": completed / seconds if seconds > 0 else 0.0,
            "cache_hits": stats.cache.hits,
            "cache_misses": stats.cache.misses,
            "cache_hit_rate": stats.cache.hit_rate,
            "identical": mismatches[0] == 0,
        }

    x8: list[dict[str, Any]] = []
    experiments: list[dict[str, Any]] = []
    arms = [(f"clients{c}", c, 1) for c in client_counts]
    arms.append((f"split2_clients{client_counts[-1]}", client_counts[-1], 2))
    reference_query = WORKLOAD[0]
    ref_rows, ref_load, ref_rounds, ref_out = baselines[reference_query]
    for name, clients, split in arms:
        record = run_arm(name, clients, split)
        x8.append(record)
        say(
            f"  x8_{name}: {record['completed']}/{record['queries']} done, "
            f"{record['queries_per_second']:.1f} q/s, "
            f"cache {record['cache_hits']}/{record['cache_hits'] + record['cache_misses']}"
            f" hits, identical={record['identical']}"
        )
        experiments.append({
            "name": f"x8_{name}",
            "n": orders,
            "p": p,
            "seconds": record["seconds"],
            "L_max": ref_load,
            "rounds": ref_rounds,
            "out_size": ref_out,
        })
    return {
        "schema": SCHEMA_VERSION,
        "machine": machine_info(),
        "kernels": kernels_enabled(),
        "quick": quick,
        "experiments": experiments,
        "speedups": [],
        "x8": x8,
    }


# The x9 protocol bench: each workload re-runs the same query this many
# times through one persistent pool. The resident protocol pays its
# block shipments on the first run only, so its full-snapshot dispatch
# count stays near the cold-start floor while the snapshot arm re-ships
# everything every run — the acceptance floor below is the minimum
# factor by which snapshot-protocol overhead must exceed resident.
X9_QUERIES = 8
X9_RATIO_FLOOR = 5.0
X9_EXPERIMENTS = ("hash_join_uniform", "hypercube_triangle")


def run_bench_x9(
    quick: bool = False, workers: int = 2, echo: bool = True
) -> dict[str, Any]:
    """The x9 document: resident vs snapshot dispatch-protocol overhead.

    Each workload runs the same query :data:`X9_QUERIES` times against
    one persistent process pool under both dispatch protocols:

    - ``snapshot`` with row packing forced off — the PR 5 wire protocol,
      where every dispatch re-pickles the full payload onto the queue;
    - ``resident`` with row packing on (today's defaults), after an
      explicit :func:`~repro.exec.pool.invalidate_resident` so the arm
      pays its own cold start inside the measurement.

    Recorded per arm: wall time, queue messages, full-snapshot dispatch
    count, and the byte split between shm segments and queue pickle.
    ``identical`` certifies every run of both arms reproduced the inline
    reference output, L_max, and round count byte-for-byte. The
    ``dispatch_ratio``/``pickle_ratio`` fields (snapshot over resident)
    are the acceptance quantities: both must be ≥
    :data:`X9_RATIO_FLOOR`.
    """
    from repro.bench.experiments import experiment as experiment_by_name
    from repro.exec.config import use_protocol, use_shm_rows
    from repro.exec.pool import invalidate_resident
    from repro.joins.hash_join import parallel_hash_join
    from repro.mpc.stats import ExecStats
    from repro.multiway.hypercube import triangle_hypercube

    def say(message: str) -> None:
        if echo:
            print(message, flush=True)

    runners = {
        "hash_join_uniform": lambda inputs, p, seed: parallel_hash_join(
            inputs[0], inputs[1], p=p, seed=seed
        ),
        "hypercube_triangle": lambda inputs, p, seed: triangle_hypercube(
            *inputs, p=p, seed=seed
        ),
    }
    records: list[dict[str, Any]] = []
    experiments: list[dict[str, Any]] = []
    for name in X9_EXPERIMENTS:
        exp = experiment_by_name(name)
        n = exp.size(quick)
        inputs = exp.prepare(n, exp.seed)
        with use_backend("inline"):
            reference = runners[name](inputs, exp.p, exp.seed)
        ref_rows = reference.output.rows_readonly()
        arm_records: dict[str, dict[str, Any]] = {}
        for protocol, rows_packing in (("snapshot", False), ("resident", True)):
            if protocol == "resident":
                # Cold start: the resident arm must pay its own block
                # shipments inside the measurement, not inherit a cache
                # warmed by an earlier workload.
                invalidate_resident()
            per_run_stats: list[Any] = []
            identical = True
            with use_backend("process", workers=workers, transport="shm"), \
                    use_protocol(protocol), use_shm_rows(rows_packing):
                start = time.perf_counter()
                for _ in range(X9_QUERIES):
                    run = runners[name](inputs, exp.p, exp.seed)
                    per_run_stats.append(run.stats.exec)
                    identical = identical and (
                        run.load == reference.load
                        and run.rounds == reference.rounds
                        and run.output.rows_readonly() == ref_rows
                    )
                seconds = time.perf_counter() - start
            ex = ExecStats.merged(per_run_stats)
            record = {
                "name": name,
                "n": n,
                "p": exp.p,
                "workers": workers,
                "queries": X9_QUERIES,
                "protocol": protocol,
                "seconds": seconds,
                "queue_messages": ex.queue_messages,
                "snapshot_dispatches": ex.snapshot_dispatches,
                "shm_bytes_out": ex.shm_bytes_out,
                "pickle_bytes_out": ex.pickle_bytes_out,
                "dispatch_bytes_out": ex.dispatch_bytes_out,
                "resident_hits": ex.resident_hits,
                "resident_bytes_saved": ex.resident_bytes_saved,
                "fallback_dispatches": ex.fallback_dispatches,
                "bytes_per_message": ex.bytes_per_message,
                "dispatch_ratio": 0.0,  # filled in from the pair below
                "pickle_ratio": 0.0,
                "identical": identical,
            }
            arm_records[protocol] = record
            records.append(record)
        snap, res = arm_records["snapshot"], arm_records["resident"]
        dispatch_ratio = (
            snap["snapshot_dispatches"] / res["snapshot_dispatches"]
            if res["snapshot_dispatches"] else float(snap["snapshot_dispatches"])
        )
        pickle_ratio = (
            snap["pickle_bytes_out"] / res["pickle_bytes_out"]
            if res["pickle_bytes_out"] else float(snap["pickle_bytes_out"])
        )
        for record in (snap, res):
            record["dispatch_ratio"] = dispatch_ratio
            record["pickle_ratio"] = pickle_ratio
            say(
                f"  {record['name']:<22} {record['protocol']:<9} "
                f"snapshots={record['snapshot_dispatches']:>4} "
                f"pickle={record['pickle_bytes_out']:>12,}B "
                f"msgs={record['queue_messages']:>4} "
                f"identical={record['identical']}"
            )
        say(
            f"  {name:<22} dispatch_ratio={dispatch_ratio:.1f}x "
            f"pickle_ratio={pickle_ratio:.1f}x"
        )
        # One standard experiment record per workload (the resident-arm
        # wall time) so the file diffs with the plain comparator too.
        experiments.append({
            "name": f"x9_{name}",
            "n": n,
            "p": exp.p,
            "seconds": res["seconds"],
            "L_max": reference.load,
            "rounds": reference.rounds,
            "out_size": len(reference.output),
        })
    return {
        "schema": SCHEMA_VERSION,
        "machine": machine_info(),
        "kernels": kernels_enabled(),
        "quick": quick,
        "experiments": experiments,
        "speedups": [],
        "x9": records,
    }


def _load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _diff(
    baseline_path: str, current_path: str, threshold: float, force: bool = False
) -> Any:
    baseline, current = _load(baseline_path), _load(current_path)
    for name, doc in (("baseline", baseline), ("current", current)):
        errors = validate_bench(doc)
        if errors:
            raise ValueError(f"{name} file is not a valid BENCH document: {errors}")
    return compare_bench(baseline, current, threshold=threshold, force=force)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point for ``python -m repro bench`` (see ``--help``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the measured benchmarks and write a BENCH JSON file.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small sizes (CI smoke; ~seconds instead of minutes)")
    parser.add_argument("--out", default="BENCH_3.json",
                        help="output path (default BENCH_3.json)")
    parser.add_argument("--baseline", default=None,
                        help="BENCH file to diff the fresh run against")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions without failing")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="regression threshold as a fraction (default 0.20)")
    parser.add_argument("--no-speedups", action="store_true",
                        help="skip the kernels on/off pairs")
    parser.add_argument("--x4", action="store_true",
                        help="run the backend-scaling sweep (worker counts "
                             "1/2/4/8 × shm/pickle transports) instead of the "
                             "standard experiment set; default out BENCH_5.json")
    parser.add_argument("--x7", action="store_true",
                        help="run the planner predicted-vs-measured sweep "
                             "(every applicable strategy per scenario) instead "
                             "of the standard experiment set; default out "
                             "BENCH_7.json")
    parser.add_argument("--x8", action="store_true",
                        help="run the concurrent service throughput sweep "
                             "(client scaling + query splitting, with "
                             "byte-identity checks against a serial "
                             "baseline) instead of the standard experiment "
                             "set; default out BENCH_8.json")
    parser.add_argument("--x9", action="store_true",
                        help="run the dispatch-protocol sweep (resident vs "
                             "snapshot over repeated queries, with "
                             "byte-identity checks against an inline "
                             "reference) instead of the standard experiment "
                             "set; default out BENCH_9.json")
    parser.add_argument("--force", action="store_true",
                        help="allow diffing BENCH files measured under "
                             "different execution backends")
    parser.add_argument("--diff", nargs=2, metavar=("BASELINE", "CURRENT"),
                        default=None,
                        help="compare two existing BENCH files and exit")
    args = parser.parse_args(argv)

    if sum((args.x4, args.x7, args.x8, args.x9)) > 1:
        print("--x4, --x7, --x8, and --x9 are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.x4 and args.out == parser.get_default("out"):
        args.out = "BENCH_5.json"
    if args.x7 and args.out == parser.get_default("out"):
        args.out = "BENCH_7.json"
    if args.x8 and args.out == parser.get_default("out"):
        args.out = "BENCH_8.json"
    if args.x9 and args.out == parser.get_default("out"):
        args.out = "BENCH_9.json"

    if args.diff is not None:
        try:
            comparison = _diff(
                args.diff[0], args.diff[1], args.threshold, force=args.force
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"diff failed: {exc}", file=sys.stderr)
            return 2
        print(comparison.format_table())
        return 0 if (comparison.ok or args.warn_only) else 1

    if args.x4:
        print(f"running {'quick' if args.quick else 'full'} backend-scaling "
              f"sweep (kernels={'on' if kernels_enabled() else 'off'}):")
        document = run_bench_x4(quick=args.quick)
        errors = validate_bench(document)
        if errors:
            print("generated document violates the BENCH schema:", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            return 2
        Path(args.out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
        broken = [
            f"{r['name']} (workers={r['workers']}, {r['transport']})"
            for r in document["scaling"]
            if not r["identical"]
        ]
        if broken:
            print(f"backend determinism FAILED for: {broken}", file=sys.stderr)
            return 1
        return 0

    if args.x7:
        print(f"running {'quick' if args.quick else 'full'} planner "
              f"predicted-vs-measured sweep "
              f"(kernels={'on' if kernels_enabled() else 'off'}):")
        document = run_bench_x7(quick=args.quick)
        errors = validate_bench(document)
        if errors:
            print("generated document violates the BENCH schema:", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            return 2
        Path(args.out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
        mispredicted = [
            f"{r['name']}/{r['strategy']} (ratio={r['ratio']:.2f})"
            for r in document["x7"]
            if r["ratio"] > X7_RATIO_CEILING
        ]
        if mispredicted:
            print(
                f"planner predictions exceeded {X7_RATIO_CEILING}x measured "
                f"for: {mispredicted}",
                file=sys.stderr,
            )
            return 1
        chosen_scenarios = {r["name"] for r in document["experiments"]}
        all_scenarios = {f"x7_{r['name']}" for r in document["x7"]}
        if chosen_scenarios != all_scenarios:
            print(
                "some scenario produced no chosen-strategy record: "
                f"{sorted(all_scenarios - chosen_scenarios)}",
                file=sys.stderr,
            )
            return 1
        if args.baseline:
            try:
                baseline = _load(args.baseline)
                comparison = compare_bench(
                    baseline, document, threshold=args.threshold,
                    force=args.force,
                )
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"baseline comparison failed: {exc}", file=sys.stderr)
                return 0 if args.warn_only else 2
            print(comparison.format_table())
            if not comparison.ok and not args.warn_only:
                return 1
        return 0

    if args.x8:
        print(f"running {'quick' if args.quick else 'full'} concurrent "
              f"service sweep "
              f"(kernels={'on' if kernels_enabled() else 'off'}):")
        document = run_bench_x8(quick=args.quick)
        errors = validate_bench(document)
        if errors:
            print("generated document violates the BENCH schema:", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            return 2
        Path(args.out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
        status = 0
        broken = [r["name"] for r in document["x8"] if not r["identical"]]
        if broken:
            print(f"concurrent results diverged from the serial baseline "
                  f"for: {broken}", file=sys.stderr)
            status = 1
        dropped = [
            r["name"] for r in document["x8"]
            if r["completed"] + r["rejected"] != r["queries"]
        ]
        if dropped:
            print(f"queries lost (neither completed nor rejected) in: "
                  f"{dropped}", file=sys.stderr)
            status = 1
        repeated = [r for r in document["x8"] if r["clients"] > 1]
        if repeated and all(r["cache_hits"] == 0 for r in repeated):
            print("result cache never hit on a repeated workload",
                  file=sys.stderr)
            status = 1
        return status

    if args.x9:
        print(f"running {'quick' if args.quick else 'full'} dispatch-"
              f"protocol sweep "
              f"(kernels={'on' if kernels_enabled() else 'off'}):")
        document = run_bench_x9(quick=args.quick)
        errors = validate_bench(document)
        if errors:
            print("generated document violates the BENCH schema:", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            return 2
        Path(args.out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
        status = 0
        broken = sorted({
            r["name"] for r in document["x9"] if not r["identical"]
        })
        if broken:
            print(f"protocol outputs diverged from the inline reference "
                  f"for: {broken}", file=sys.stderr)
            status = 1
        weak = sorted({
            f"{r['name']} (dispatch={r['dispatch_ratio']:.1f}x, "
            f"pickle={r['pickle_ratio']:.1f}x)"
            for r in document["x9"]
            if r["dispatch_ratio"] < X9_RATIO_FLOOR
            or r["pickle_ratio"] < X9_RATIO_FLOOR
        })
        if weak:
            print(f"resident protocol saved less than {X9_RATIO_FLOOR}x "
                  f"over snapshot for: {weak}", file=sys.stderr)
            status = 1
        if args.baseline:
            try:
                baseline = _load(args.baseline)
                comparison = compare_bench(
                    baseline, document, threshold=args.threshold,
                    force=args.force,
                )
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"baseline comparison failed: {exc}", file=sys.stderr)
                return 0 if args.warn_only else 2
            print(comparison.format_table())
            if not comparison.ok and not args.warn_only:
                return 1
        return status

    print(f"running {'quick' if args.quick else 'full'} benchmarks "
          f"(kernels={'on' if kernels_enabled() else 'off'}):")
    document = run_bench(quick=args.quick, include_speedups=not args.no_speedups)
    errors = validate_bench(document)
    if errors:
        print("generated document violates the BENCH schema:", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 2
    Path(args.out).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out}")

    bad_pairs = [
        record["name"]
        for record in document["speedups"]
        if not (record["identical"] and record["oracle_ok"])
    ]
    if bad_pairs:
        print(f"kernel equivalence FAILED for: {bad_pairs}", file=sys.stderr)
        return 1

    drifted = sorted({
        record["name"]
        for record in document.get("transport_ab", [])
        if not record["identical"]
    })
    if drifted:
        print(f"transport row-packing equivalence FAILED for: {drifted}",
              file=sys.stderr)
        return 1

    if args.baseline:
        try:
            baseline = _load(args.baseline)
            comparison = compare_bench(
                baseline, document, threshold=args.threshold, force=args.force
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"baseline comparison failed: {exc}", file=sys.stderr)
            return 0 if args.warn_only else 2
        print(comparison.format_table())
        if not comparison.ok and not args.warn_only:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
