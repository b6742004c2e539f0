"""The HyperCube (Shares) algorithm — one-round multiway join (slides 34–44).

Servers are arranged in a grid with one dimension per query variable;
the variable's *share* is the dimension's extent. Each tuple of atom
``S_j`` knows the grid coordinates of the variables it contains (via one
independent hash function per variable) and is replicated to every
server agreeing with them. Every server then evaluates the whole query
on its local fragments; each output tuple is produced at exactly one
server.

With optimal shares the expected load is the slide-40 formula

    L = max over edge packings u of (Π_j |S_j|^{u_j} / p)^{1/Σ u_j}

— equal to ``N / p^{1/τ*}`` for equal sizes — and this is optimal among
one-round algorithms on skew-free data (slide 36 for the triangle).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.kernels.config import kernels_enabled
from repro.kernels.memo import count_fused
from repro.kernels.partition import try_route_grid
from repro.mpc.cluster import Cluster
from repro.mpc.topology import Grid
from repro.multiway.base import MultiwayRun
from repro.query.cq import ConjunctiveQuery
from repro.query.shares import ShareAssignment, optimal_shares


@dataclass
class StagedHypercube:
    """A HyperCube run routed but not yet evaluated (route/eval split).

    :func:`hypercube_route` performs the scatter and the replication
    round — everything that needs the coordinator — and parks the
    per-server evaluation payloads here. The caller then either runs
    :meth:`evaluate` (what :func:`hypercube_join` does) or, when holding
    several independent staged runs, ships all their ``hypercube.eval``
    dispatches as one batched backend call and hands each result list to
    :meth:`finish`. SkewHC uses the latter: its residual jobs live on
    disjoint server pools, so their eval rounds are coordinator-
    independent and collapse into one queue round-trip per worker.
    """

    query: ConjunctiveQuery
    cluster: Cluster
    grid: Grid
    payloads: list
    common: tuple
    shares: dict[str, int]
    assignment: ShareAssignment | None

    def evaluate(self, output_name: str = "OUT") -> MultiwayRun:
        """Dispatch the eval round on this run's own cluster and finish."""
        results = self.cluster.map_servers(
            "hypercube.eval", self.payloads, self.common
        )
        return self.finish(results, output_name)

    def finish(self, results: list, output_name: str = "OUT") -> MultiwayRun:
        """Store per-server eval results and gather the output relation."""
        for sid, rows in enumerate(results):
            if rows is not None:
                self.cluster.servers[sid].put("out", rows)
        output = self.cluster.gather_relation(
            "out", output_name, list(self.query.variables)
        )
        details: dict = {"shares": dict(self.shares)}
        if self.assignment is not None:
            details["assignment"] = self.assignment
        return MultiwayRun(output, self.cluster.stats, details)


def hypercube_route(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    shares: dict[str, int] | None = None,
    local: str = "plan",
    audit: bool | None = None,
) -> StagedHypercube:
    """Scatter and route a HyperCube run, deferring the eval dispatch."""
    if local not in ("plan", "generic"):
        raise QueryError(f"unknown local evaluator {local!r}")
    rels = {a.name: _relation_for(query, a.name, relations) for a in query.atoms}
    sizes = {name: len(rel) for name, rel in rels.items()}
    assignment: ShareAssignment | None = None
    if shares is None:
        assignment = optimal_shares(query, sizes, p)
        shares = assignment.integral
    extents = [shares[v] for v in query.variables]
    grid = Grid(extents)
    if grid.size > p:
        raise QueryError(f"shares {shares} need {grid.size} servers, only {p} given")

    cluster = Cluster(p, seed=seed, audit=audit)
    hash_functions = {
        v: cluster.hash_function(i, extents[i]) for i, v in enumerate(query.variables)
    }
    var_position = {v: i for i, v in enumerate(query.variables)}

    # Scatter inputs (free), then the single replication round.
    fragments = {}
    for atom in query.atoms:
        fragments[atom.name] = cluster.scatter(rels[atom.name], f"{atom.name}@in")

    salts = [hash_functions[v].salt for v in query.variables]
    with cluster.round("hypercube") as rnd:
        for atom in query.atoms:
            column_dims = [var_position[v] for v in atom.variables]
            arity = tuple(range(len(atom.variables)))
            for server in cluster.servers:
                rows, cols = server.take_with_columns(fragments[atom.name], arity)
                if try_route_grid(
                    rnd, rows, column_dims, salts, extents, grid.strides,
                    f"{atom.name}@hc", columns=cols,
                ):
                    continue
                for row in rows:
                    partial: list[int | None] = [None] * len(extents)
                    for value, v in zip(row, atom.variables):
                        partial[var_position[v]] = hash_functions[v](value)
                    for dest in grid.matching(partial):
                        rnd.send(dest, f"{atom.name}@hc", row)

    # Build the per-server eval payloads now (fragments are consumed by
    # take); the dispatch itself is the staged half. With kernels on, a
    # payload whose full-arity side-car survived delivery is *fused*: the
    # eval chunk builds the local relation straight from the column
    # blocks instead of re-wrapping the row list.
    fused = kernels_enabled()
    payloads = []
    for sid in range(grid.size):
        server = cluster.servers[sid]
        per_atom = []
        for atom in query.atoms:
            arity = tuple(range(len(atom.variables)))
            rows, cols = server.take_with_columns(f"{atom.name}@hc", arity)
            if fused and cols is not None and rows:
                count_fused(cluster.stats.memo)
            per_atom.append((rows, cols))
        payloads.append(per_atom)
    return StagedHypercube(
        query=query,
        cluster=cluster,
        grid=grid,
        payloads=payloads,
        common=(query, local, fused),
        shares=dict(shares),
        assignment=assignment,
    )


def hypercube_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    seed: int = 0,
    shares: dict[str, int] | None = None,
    output_name: str = "OUT",
    local: str = "plan",
    audit: bool | None = None,
) -> MultiwayRun:
    """One-round HyperCube evaluation of a full conjunctive query.

    ``relations`` maps atom names to relations whose attributes are the
    atom's variables. ``shares`` overrides the optimized integral shares
    (ablation hook); its product must not exceed ``p``. ``local`` picks
    the per-server evaluation engine: ``"plan"`` (left-deep binary joins)
    or ``"generic"`` (the worst-case optimal join of
    :mod:`repro.multiway.wcoj`, as in BiGJoin-style systems — slide 97).
    Communication costs are identical; only server-local work differs.

    The local evaluation is fanned out via the exec backend (with the
    process backend the grid servers of a worker's range evaluate
    concurrently; side-car columns ride shared memory).
    """
    staged = hypercube_route(
        query, relations, p, seed=seed, shares=shares, local=local, audit=audit
    )
    return staged.evaluate(output_name)


def hypercube_eval_chunk(payloads: list, common) -> list:
    """Exec task ``hypercube.eval``: evaluate the query on grid servers.

    Each payload is the server's per-atom ``(rows, columns side-car)``
    pairs in ``query.atoms`` order; fragment rows come straight from the
    simulator, so they are adopted without re-validating arity, and each
    relation's columnar cache is seeded from the delivered side-car. A
    server with an empty fragment produces ``None`` (no output stored).

    When the coordinator flagged the run as *fused* (kernels on),
    a payload carrying a full-arity side-car is turned into a
    column-primary relation directly — the delivered row list is never
    re-wrapped, and local evaluation reads the routed column blocks.
    The eval itself is column-driven either way, so fused and unfused
    payloads produce byte-identical output rows.
    """
    query, local, *rest = common
    fused = bool(rest and rest[0])
    out = []
    for per_atom in payloads:
        local_fragments = {}
        for atom, (rows, cols) in zip(query.atoms, per_atom):
            if fused and cols is not None and rows:
                rel = Relation.from_columns(atom.name, list(atom.variables), cols)
            else:
                rel = Relation.wrap(atom.name, list(atom.variables), rows)
                rel.prime_columns(cols)
            local_fragments[atom.name] = rel
        if all(len(rel) for rel in local_fragments.values()):
            if local == "generic":
                from repro.multiway.wcoj import generic_join

                result = generic_join(query, local_fragments)
            else:
                result = query.evaluate(local_fragments)
            out.append(result.rows())
        else:
            out.append(None)
    return out


def _relation_for(
    query: ConjunctiveQuery, name: str, relations: Mapping[str, Relation]
) -> Relation:
    atom = query.atom(name)
    try:
        rel = relations[name]
    except KeyError:
        raise QueryError(f"no relation bound for atom {name!r}") from None
    if set(rel.schema.attributes) != set(atom.variables):
        raise QueryError(
            f"relation {rel.name} attributes {rel.schema.attributes} do not match "
            f"atom {atom}"
        )
    if rel.schema.attributes != atom.variables:
        rel = rel.project(list(atom.variables))
    return rel


def triangle_hypercube(
    r: Relation,
    s: Relation,
    t: Relation,
    p: int,
    seed: int = 0,
    audit: bool | None = None,
) -> MultiwayRun:
    """Convenience wrapper: HyperCube on Δ(x,y,z) = R(x,y) ⋈ S(y,z) ⋈ T(z,x)."""
    from repro.query.cq import triangle_query

    return hypercube_join(
        triangle_query(), {"R": r, "S": s, "T": t}, p, seed=seed, audit=audit
    )
