"""Kernel work counters (:mod:`repro.kernels.memo`) and cold routing.

- routing through the bucket kernels is counted in ``hash_ops`` on the
  run's record and on the process-wide ``GLOBAL`` mirror, and the
  counter record merges, snapshots and deltas like every other stats
  record;
- a route always reflects the relation's current state, whatever
  mutations (including through a borrowed ``rows()`` list) came
  before, in both kernel modes;
- a finished cold run keeps no reference to its input relations, so
  they are freed as soon as the caller drops them.
"""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.kernels.config import use_kernels
from repro.kernels.memo import GLOBAL, MemoStats
from repro.kernels.partition import try_route
from repro.mpc.cluster import Cluster
from repro.multiway.base import _key_degrees

ARITY = 2

values = st.integers(min_value=-(2**40), max_value=2**40)
rows_st = st.tuples(*[values] * ARITY)


def _relation(n=40, stride=3):
    return Relation("R", ["x", "y"], [(i * stride, i) for i in range(n)])


def _route(rel, p=4, seed=0):
    """Scatter ``rel`` into a fresh cluster and hash-route it on column 0.

    Mirrors the shuffle loops in ``joins``/``multiway``: the columnar
    ``try_route`` per server, then the plain per-row sends. Returns
    (per-server deliveries, stats).
    """
    cluster = Cluster(p, seed=seed)
    frag = cluster.scatter(rel, "R@in")
    h = cluster.hash_function(0)
    with cluster.round("route") as rnd:
        for server in cluster.servers:
            rows, cols = server.take_with_columns(frag, (0,))
            if not try_route(rnd, rows, (0,), h, "out", columns=cols):
                for row in rows:
                    rnd.send(h((row[0],)), "out", row)
    deliveries = [list(server.get("out")) for server in cluster.servers]
    return deliveries, cluster.stats


def test_route_counts_hash_ops():
    rel = _relation()
    before = GLOBAL.snapshot()
    first, first_stats = _route(rel)
    again, again_stats = _route(rel)
    assert again == first
    assert again_stats.max_load == first_stats.max_load
    # One hashed key column per row, paid in full by every cold route.
    assert first_stats.memo.hash_ops == len(rel)
    assert again_stats.memo.hash_ops == len(rel)
    assert GLOBAL.delta(before).hash_ops == 2 * len(rel)
    assert first_stats.memo.partition_hits == 0


def test_kernels_off_falls_back_identically():
    rel = _relation()
    reference, _ = _route(rel)
    with use_kernels(False):
        got, stats = _route(rel)
    assert got == reference
    assert stats.memo.hash_ops == 0


def test_borrowed_relation_is_never_served():
    # Edits through a borrowed live list bypass the mutation token, so
    # the next route must read the current rows, not stale columns.
    rel = _relation()
    _route(rel)
    live = rel.rows()  # borrow: external edits are now possible
    live[0] = (123_456_789, 0)
    got, _ = _route(rel)
    want, _ = _route(Relation("R", ["x", "y"], list(live)))
    assert got == want


operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), rows_st),
        st.tuples(st.just("extend"), st.lists(rows_st, max_size=3)),
        st.tuples(st.just("set_inplace"), st.integers(0, 7), rows_st),
        st.tuples(st.just("route"), st.integers(min_value=2, max_value=4)),
    ),
    max_size=10,
)


@pytest.mark.parametrize("kernels", [True, False])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(initial=st.lists(rows_st, max_size=8), ops=operations)
def test_route_coherent_under_interleavings(kernels, initial, ops):
    """Whatever interleaving of mutations (including through a borrowed
    live list) and routes the relation suffers, routing it delivers
    exactly what routing a fresh relation of the same state delivers."""
    with use_kernels(kernels):
        mutated = Relation("R", ["x", "y"], initial)
        shadow = list(initial)
        for op in ops:
            tag = op[0]
            if tag == "add":
                mutated.add(op[1])
                shadow.append(op[1])
            elif tag == "extend":
                mutated.extend(op[1])
                shadow.extend(op[1])
            elif tag == "set_inplace":
                live = mutated.rows()
                if live:
                    live[op[1] % len(live)] = op[2]
                    shadow[op[1] % len(shadow)] = op[2]
            else:
                want, want_stats = _route(Relation("R", ["x", "y"], shadow), p=op[1])
                got, got_stats = _route(mutated, p=op[1])
                assert got == want
                assert got_stats.max_load == want_stats.max_load


def test_distinct_and_degrees_match_reference():
    rel = Relation("R", ["x", "y"], [(1, 2), (1, 3), (2, 2), (1, 2)])
    assert sorted(rel.project(["x"]).distinct().rows_readonly()) == [(1,), (2,)]
    want = Counter({(1,): 3, (2,): 1})
    assert _key_degrees(rel, (0,)) == want
    # A non-integer column leaves no columnar view: the row path.
    mixed = Relation("M", ["x", "y"], [(1, "a"), (1, "b"), (2, "a"), (1, "a")])
    assert mixed.columns() is None
    assert _key_degrees(mixed, (0,)) == want


def test_memo_stats_merge_snapshot_delta_summary():
    a = MemoStats(fused_payloads=2, hash_ops=10)
    b = MemoStats(fused_payloads=1)
    merged = MemoStats.merged([a, None, b])
    assert merged.fused_payloads == 3
    assert merged.hash_ops == 10
    snap = merged.snapshot()
    merged.hash_ops += 5
    delta = merged.delta(snap)
    assert delta.hash_ops == 5
    assert delta.fused_payloads == 0
    assert merged.any_activity
    assert not MemoStats().any_activity
    assert merged.summary() == "kernels: fused=3 hash_ops=15"


def test_cold_runs_retain_no_input():
    # A finished run must not pin its inputs: once the caller lets go of
    # the relations (and the run), they are collectable.
    from repro.joins.hash_join import parallel_hash_join
    from repro.multiway.hypercube import triangle_hypercube

    edges = [(i % 13, (i * 7) % 13) for i in range(200)]
    r = Relation("R", ["x", "y"], edges)
    s = Relation("S", ["y", "z"], edges)
    t = Relation("T", ["z", "x"], edges)
    join = parallel_hash_join(r, s, p=4, seed=0)
    triangle = triangle_hypercube(r, s, t, p=8, seed=0)
    assert len(join.output) and len(triangle.output)
    refs = [weakref.ref(rel) for rel in (r, s, t)]
    del r, s, t, join, triangle
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
