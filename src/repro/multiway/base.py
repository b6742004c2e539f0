"""Shared result type and charged communication primitives for multiway plans.

Multi-round algorithms compose three charged one-round primitives:

- :func:`shuffle_join` — hash-partition two relations by their shared key
  and join locally (the step of an iterative binary plan);
- :func:`shuffle_semijoin` — reduce a target relation by a reducer's
  distinct keys (one Yannakakis/GYM semijoin);
- :func:`shuffle_multi_semijoin` — reduce a target by several reducers
  sharing the same key attributes in a single round (optimized GYM).

Each primitive runs on a fresh cluster of ``p`` servers: inputs are
scattered (free, per the model's initial-placement grant), the shuffle is
charged, locals are computed, and the result is returned with the round's
:class:`RunStats`. Plans stitch phases together with
:func:`~repro.mpc.cluster.combine_sequential` (same servers, consecutive
rounds) and :func:`~repro.mpc.cluster.combine_parallel` (disjoint
servers, simultaneous rounds). Charging every phase's full shuffle is
slightly conservative — a real engine reuses co-partitioning — but keeps
the accounting identical across algorithms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.base import distributed_local_join
from repro.kernels.config import kernels_enabled
from repro.kernels.join import semijoin_mask
from repro.kernels.partition import try_route
from repro.mpc.cluster import Cluster
from repro.mpc.stats import RunStats

Row = tuple[Any, ...]


@dataclass
class MultiwayRun:
    """Output and cost of one distributed multiway-join execution."""

    output: Relation
    stats: RunStats
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def load(self) -> int:
        return self.stats.max_load

    @property
    def rounds(self) -> int:
        return self.stats.num_rounds


def shuffle_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
    label: str = "join",
    output_name: str = "J",
    audit: bool | None = None,
) -> tuple[Relation, RunStats]:
    """One-round hash join; returns the (gathered) result and its cost."""
    shared = r.schema.common(s.schema)
    if not shared:
        raise QueryError(
            f"{r.name} ⋈ {s.name} has no shared attributes; use the "
            f"Cartesian product primitive"
        )
    cluster = Cluster(p, seed=seed, audit=audit)
    r_frag = cluster.scatter(r, "L@in")
    s_frag = cluster.scatter(s, "R@in")
    h = cluster.hash_function(0)
    r_idx = r.schema.indices(shared)
    s_idx = s.schema.indices(shared)
    with cluster.round(label) as rnd:
        for frag, idx, out in ((r_frag, r_idx, "L@j"), (s_frag, s_idx, "R@j")):
            for server in cluster.servers:
                rows, cols = server.take_with_columns(frag, tuple(idx))
                if not try_route(rnd, rows, idx, h, out, columns=cols):
                    for row in rows:
                        rnd.send(h(tuple(row[i] for i in idx)), out, row)
    distributed_local_join(cluster, "L@j", "R@j", r, s, "out")
    attrs = list(r.schema.attributes) + [
        a for a in s.schema.attributes if a not in r.schema
    ]
    return cluster.gather_relation("out", output_name, attrs), cluster.stats


def shuffle_semijoin(
    target: Relation,
    reducer: Relation,
    p: int,
    seed: int = 0,
    label: str = "semijoin",
    audit: bool | None = None,
) -> tuple[Relation, RunStats]:
    """One-round distributed semijoin ``target ⋉ reducer``."""
    result, stats = shuffle_multi_semijoin(
        target, [reducer], p, seed=seed, label=label, audit=audit
    )
    return result, stats


def shuffle_multi_semijoin(
    target: Relation,
    reducers: list[Relation],
    p: int,
    seed: int = 0,
    label: str = "semijoin",
    audit: bool | None = None,
) -> tuple[Relation, RunStats]:
    """Reduce ``target`` by several reducers in a single round, skew-aware.

    All reducers must share the *same* key attributes with the target (a
    GYM parent whose children attach through one variable set — slide 90's
    simultaneous upward semijoins). A target tuple survives iff its key
    appears in every reducer.

    Light keys (degree < IN/p in the target) are hash-partitioned together
    with the reducers' distinct keys. Heavy keys would overload a single
    hash bucket, so their target tuples *stay in place* and only the
    membership verdicts of the ≤ p heavy keys are broadcast — this is
    what keeps a semijoin at L = O(IN/p) under arbitrary skew (slide 58).
    """
    if not reducers:
        raise QueryError("shuffle_multi_semijoin needs at least one reducer")
    keys = [target.schema.common(red.schema) for red in reducers]
    if any(not k for k in keys):
        raise QueryError(f"a reducer shares no attributes with {target.name}")
    if len(set(keys)) != 1:
        raise QueryError(
            f"simultaneous semijoins need one key; got {sorted(set(keys))}"
        )
    shared = keys[0]
    t_idx = target.schema.indices(shared)
    cluster = Cluster(p, seed=seed, audit=audit)

    # Heavy keys by target degree (statistics assumed known, as in the
    # tutorial's skew algorithms; a real engine samples them).
    degrees = _key_degrees(target, t_idx)
    in_size = len(target) + sum(len(r) for r in reducers)
    threshold = max(in_size / p, 2.0)
    heavy = {k for k, c in degrees.items() if c >= threshold}

    t_frag = cluster.scatter(target, "T@in")
    reducer_frags = []
    reducer_key_sets: list[set[Row]] = []
    for i, red in enumerate(reducers):
        distinct_keys = red.project(list(shared)).distinct()
        reducer_key_sets.append(set(distinct_keys.rows_readonly()))
        light_keys = (
            distinct_keys
            if not heavy
            else distinct_keys.select(lambda row: row not in heavy)
        )
        reducer_frags.append(cluster.scatter(light_keys, f"K{i}@in"))

    # Heavy keys surviving every reducer get their verdict broadcast.
    heavy_alive = sorted(
        k for k in heavy if all(k in ks for ks in reducer_key_sets)
    )

    h = cluster.hash_function(0)
    key_arity = tuple(range(len(shared)))
    with cluster.round(label) as rnd:
        for server in cluster.servers:
            taken, cols = server.take_with_columns(t_frag, t_idx)
            stay = _route_light(rnd, taken, t_idx, heavy, h, cols)
            server.put("T@stay", stay)
        for i, frag in enumerate(reducer_frags):
            for server in cluster.servers:
                rows, cols = server.take_with_columns(frag, key_arity)
                if not try_route(rnd, rows, key_arity, h, f"K{i}@j", columns=cols):
                    for row in rows:
                        rnd.send(h(row), f"K{i}@j", row)
        for key in heavy_alive:
            rnd.broadcast("H@alive", key)

    payloads = []
    for server in cluster.servers:
        server.take("H@alive")  # consumed: contents mirror `heavy_alive`
        payloads.append(
            (
                [server.take(f"K{i}@j") for i in range(len(reducers))],
                server.take("T@j"),
                server.take("T@stay"),
            )
        )
    results = cluster.map_servers(
        "semijoin.filter", payloads, (tuple(t_idx), tuple(heavy_alive))
    )
    for server, survivors in zip(cluster.servers, results):
        server.put("out", survivors)
    result = cluster.gather_relation("out", target.name, target.schema.attributes)
    return result, cluster.stats


def _key_degrees(rel: Relation, key_idx: tuple[int, ...]) -> Counter:
    """``Counter`` of the key tuples of ``rel`` (columnar when it can be)."""
    cols = rel.columns()
    if cols is not None:
        return Counter(zip(*[cols[i].tolist() for i in key_idx]))
    return Counter(tuple(row[i] for i in key_idx) for row in rel.rows_readonly())


def _route_light(
    rnd: Any,
    rows: list[Row],
    t_idx: tuple[int, ...],
    heavy: set[Row],
    h: Any,
    columns: list | None = None,
) -> list[Row]:
    """Route light rows to ``h(key)``; return the heavy rows (they stay).

    Vectorized heavy/light split + batched routing when the key columns
    are integers; otherwise the original tuple-at-a-time loop. Without
    heavy keys every row is light and routes with its side-car
    ``columns`` (the key columns, when the scatter supplied them).
    """
    if not heavy:
        if try_route(rnd, rows, t_idx, h, "T@j", columns=columns):
            return []
    elif kernels_enabled() and rows:
        mask = semijoin_mask(rows, t_idx, list(heavy))
        if mask is not None:
            stay = [row for row, is_heavy in zip(rows, mask) if is_heavy]
            light = [row for row, is_heavy in zip(rows, mask) if not is_heavy]
            if try_route(rnd, light, t_idx, h, "T@j"):
                return stay
    stay = []
    for row in rows:
        key = tuple(row[i] for i in t_idx)
        if key in heavy:
            stay.append(row)  # no communication: stays in place
        else:
            rnd.send(h(key), "T@j", row)
    return stay


def semijoin_filter_chunk(payloads: list, common) -> list:
    """Exec task ``semijoin.filter``: the local phase of the multi-semijoin.

    Each payload is ``(per-reducer key row lists, routed target rows,
    heavy stay-in-place rows)``; the survivors are the light rows whose
    key appears in every reducer plus the heavy rows whose key survived
    globally (``heavy_alive``, broadcast by the coordinator). Pure over
    its inputs, so inline and worker execution agree byte-for-byte.
    """
    t_idx, heavy_alive = common
    alive = set(heavy_alive)
    out = []
    for key_rows, t_rows, stay_rows in payloads:
        key_sets = [set(rows) for rows in key_rows]
        survivors = _filter_members(t_rows, t_idx, key_sets)
        survivors.extend(
            row for row in stay_rows if tuple(row[i] for i in t_idx) in alive
        )
        out.append(survivors)
    return out


def _filter_members(
    rows: list[Row], t_idx: tuple[int, ...], key_sets: list[set[Row]]
) -> list[Row]:
    """Rows whose key tuple appears in *every* key set (order preserved)."""
    if kernels_enabled() and rows:
        combined = None
        for ks in key_sets:
            mask = semijoin_mask(rows, t_idx, list(ks))
            if mask is None:
                break
            combined = mask if combined is None else combined & mask
        else:
            if combined is None:  # no reducers: everything survives
                return list(rows)
            return [row for row, keep in zip(rows, combined) if keep]
    return [
        row
        for row in rows
        if all(tuple(row[i] for i in t_idx) in ks for ks in key_sets)
    ]


def shuffle_aggregate(
    rows: list[Row],
    key_positions: tuple[int, ...],
    combine: Any,
    p: int,
    seed: int = 0,
    label: str = "aggregate",
    audit: bool | None = None,
) -> tuple[list[Row], RunStats]:
    """One-round hash aggregation: route rows by key, fold groups locally.

    ``combine(key, group_rows) -> row`` produces one output row per group.
    Used by the SQL-on-MPC matrix multiplication's GROUP BY stage.
    """
    cluster = Cluster(p, seed=seed, audit=audit)
    cluster.scatter_rows(rows, "A@in")
    h = cluster.hash_function(0)
    with cluster.round(label) as rnd:
        for server in cluster.servers:
            taken = server.take("A@in")
            if not try_route(rnd, taken, key_positions, h, "A@j"):
                for row in taken:
                    rnd.send(h(tuple(row[i] for i in key_positions)), "A@j", row)
    # An unpicklable ``combine`` (a closure) transparently degrades the
    # process backend to inline execution for this call.
    payloads = [server.take("A@j") for server in cluster.servers]
    results = cluster.map_servers(
        "aggregate.groups", payloads, (tuple(key_positions), combine)
    )
    out: list[Row] = [row for rows in results for row in rows]
    return out, cluster.stats


def aggregate_groups_chunk(payloads: list, common) -> list:
    """Exec task ``aggregate.groups``: fold each server's groups locally.

    Group order follows first-arrival order of each key (dict insertion
    order), identical across backends because the routed rows arrive in
    the same order either way.
    """
    key_positions, combine = common
    out = []
    for rows in payloads:
        groups: dict[Row, list[Row]] = {}
        for row in rows:
            groups.setdefault(tuple(row[i] for i in key_positions), []).append(row)
        out.append([combine(key, group) for key, group in groups.items()])
    return out
