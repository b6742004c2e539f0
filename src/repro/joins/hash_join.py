"""The parallel hash join (slide 23).

Round 1 communication: every tuple of R and S is sent to server
``h(join key)``; round 1 computation: each server joins what it received
locally. With skew-free data (every join value of degree ≤ IN/p·…) the
load concentrates at L = Θ(IN/p) (slides 24–25); a single heavy value of
degree d pushes the load to Θ(d).
"""

from __future__ import annotations

from repro.data.relation import Relation
from repro.joins.base import JoinRun, distributed_local_join, require_join_key
from repro.kernels.partition import try_route
from repro.mpc.cluster import Cluster


def parallel_hash_join(
    r: Relation,
    s: Relation,
    p: int,
    seed: int = 0,
    output_name: str = "OUT",
    audit: bool | None = None,
) -> JoinRun:
    """One-round hash-partitioned natural join of R and S on ``p`` servers.

    ``audit=True`` runs the round under the conservation checks of
    :mod:`repro.mpc.audit` (default: the ambient ``audited()`` setting).
    """
    require_join_key(r, s)
    cluster = Cluster(p, seed=seed, audit=audit)
    hash_partition_join(cluster, r, s, output_fragment="out")
    output = cluster.gather_relation("out", output_name, _out_attrs(r, s))
    return JoinRun(output, cluster.stats)


def hash_partition_join(
    cluster: Cluster,
    r: Relation,
    s: Relation,
    output_fragment: str = "out",
    hash_index: int = 0,
) -> None:
    """In-cluster primitive: scatter, shuffle by join key, join locally.

    Leaves the output distributed in ``output_fragment`` so multi-round
    plans can keep composing without gathering.
    """
    shared = require_join_key(r, s)
    r_frag = cluster.scatter(r, f"{r.name}@in")
    s_frag = cluster.scatter(s, f"{s.name}@in")
    shuffle_fragments_by_key(cluster, r, s, r_frag, s_frag, shared, hash_index)
    distributed_local_join(
        cluster, f"{r.name}@j", f"{s.name}@j", r, s, output_fragment
    )


def shuffle_fragments_by_key(
    cluster: Cluster,
    r: Relation,
    s: Relation,
    r_fragment: str,
    s_fragment: str,
    shared: tuple[str, ...],
    hash_index: int = 0,
) -> None:
    """The round-1 communication: route both fragments by hashed join key.

    Per-(destination, fragment) arrival order is source-server ascending.
    """
    h = cluster.hash_function(hash_index)
    r_idx = r.schema.indices(shared)
    s_idx = s.schema.indices(shared)
    with cluster.round("hash-shuffle") as rnd:
        for fragment, idx, out in (
            (r_fragment, r_idx, f"{r.name}@j"),
            (s_fragment, s_idx, f"{s.name}@j"),
        ):
            for server in cluster.servers:
                rows, cols = server.take_with_columns(fragment, tuple(idx))
                if not try_route(rnd, rows, idx, h, out, columns=cols):
                    for row in rows:
                        rnd.send(h(tuple(row[i] for i in idx)), out, row)


def _out_attrs(r: Relation, s: Relation) -> list[str]:
    return list(r.schema.attributes) + [
        a for a in s.schema.attributes if a not in r.schema
    ]
