"""Tests of the benchmark itself: its checks must catch wrong outputs.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import diff  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def drop_last(output):
    return output[:-1]


def test_corrupted_outputs_raise_error_rate():
    for cls in (workloads.ShuffleCold, workloads.EngineMultiround):
        workload = cls(seed=3)
        kinds = len(workload.kinds)
        clean = workload.run(limit=kinds)
        assert all(r.ok for r in clean), [r.error for r in clean]
        workload.corrupt = drop_last
        corrupted = workload.run(limit=kinds)
        metrics = run.end_to_end(corrupted, 1.0, 0.0)
        assert metrics["error_rate"][0] == 1.0
        assert metrics["success_rate"][0] == 0.0


def test_corrupted_service_reads_raise_error_rate():
    workload = workloads.ServiceRW(seed=3)
    workload.setup()
    try:
        records, _wall = workload.run(segments=1)
        assert all(r.ok for r in records), [r.error for r in records]
        workload.fresh_service()
        workload.corrupt = drop_last
        records, _wall = workload.run(segments=1)
        reads = [r for r in records if not r.write]
        assert reads and not any(r.ok for r in reads)
        assert run.end_to_end(records, 1.0, 0.0)["error_rate"][0] > 0
    finally:
        workload.close()


def test_cold_check_flags_hits_an_empty_cache_would_not_give():
    workload = workloads.ShuffleCold(seed=3)
    records = workload.run(limit=2)
    assert workload.cold_hit_problems(records) == []
    records[1].partition_hits = 4
    assert len(workload.cold_hit_problems(records)) == 1


def test_self_time_excludes_child_spans():
    tracer = layertrace.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = layertrace._wrap(tracer, child, "inner", "child", None)

    def parent():
        time.sleep(0.01)
        traced_child()

    traced_parent = layertrace._wrap(tracer, parent, "outer", "parent", None)
    tracer.active = True
    start = time.perf_counter()
    traced_parent()
    total = time.perf_counter() - start
    self_s = tracer.self_seconds()
    assert 0.009 < self_s["outer"] < 0.019
    assert 0.019 < self_s["inner"] < 0.029
    assert sum(self_s.values()) <= total
    assert tracer.calls("inner") == 1 and tracer.calls("outer", ("parent",)) == 1


def test_install_rebinds_imported_copies_and_remove_restores():
    import repro.joins.hash_join as hash_join_module
    from repro.kernels import partition

    original = partition.try_route
    tracer = layertrace.Tracer()
    installed = layertrace.install(tracer)
    try:
        assert partition.try_route is not original
        assert partition.try_route.__layertrace_original__ is original
        assert hash_join_module.parallel_hash_join.__layertrace_original__ is not None
    finally:
        installed.remove()
    assert partition.try_route is original
    assert not hasattr(hash_join_module.parallel_hash_join, "__layertrace_original__")


def test_diff_orders_self_time_by_absolute_change():
    base = {"a.self_s": (1.0, "s/op"), "b.self_s": (1.0, "s/op"), "c.calls": (10.0, "1/op")}
    new = {"a.self_s": (1.1, "s/op"), "b.self_s": (0.5, "s/op"), "c.calls": (20.0, "1/op")}
    times, others = diff.rows(base, new)
    assert [r[0] for r in times] == ["b.self_s", "a.self_s"]
    assert others[0][0] == "c.calls" and others[0][4] == 10.0
