"""GYM: distributed Yannakakis over a GHD (slides 78–95).

GYM runs Yannakakis' three phases as MPC rounds:

- **vanilla** — one semijoin or join per round, sequentially:
  r = O(n) rounds, L = O((IN + OUT)/p) (slides 80–89);
- **optimized** — independent operations share rounds: all semijoins of
  one tree level run simultaneously on disjoint server pools (a parent
  reduced by several same-key children needs just one round — the
  intersect trick of slides 90–92), and each join level is a single
  one-round HyperCube of a node with its children's results (slide 93's
  "Skew-HC" join phase). Rounds drop to O(depth) (slide 94).

For GHDs of width w > 1 each node's *bag* is first materialized by
joining its cover atoms — the source of the IN^w term in the trade-off
r = O(d), L = O((IN^w + OUT)/p) of slide 95.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.cartesian import cartesian_product
from repro.joins.heavy import allocate_servers
from repro.mpc.cluster import combine_parallel, combine_sequential
from repro.mpc.stats import RunStats
from repro.multiway.base import MultiwayRun, shuffle_join, shuffle_multi_semijoin
from repro.multiway.hypercube import hypercube_join
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.ghd import GHD, GHDNode, width1_ghd


def gym(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    p: int,
    ghd: GHD | None = None,
    variant: str = "optimized",
    seed: int = 0,
    output_name: str = "OUT",
) -> MultiwayRun:
    """Distributed Yannakakis on ``p`` servers.

    ``variant`` is ``"optimized"`` (r = O(depth)) or ``"vanilla"``
    (r = O(#nodes)). Works on any valid GHD of the query; defaults to the
    depth-minimized GYO join tree.
    """
    if variant not in ("optimized", "vanilla"):
        raise QueryError(f"unknown GYM variant {variant!r}")
    if ghd is None:
        ghd = width1_ghd(query)

    # A GHD may reuse an atom in several covers (e.g. the balanced path
    # decomposition). Under bag semantics reuse would square duplicate
    # multiplicities, so such runs switch to set semantics: bags are
    # deduplicated and each output tuple appears exactly once.
    cover_uses = [name for node in ghd.nodes() for name in node.cover]
    set_semantics = len(cover_uses) != len(set(cover_uses))

    phases: list[RunStats] = []
    working, materialize_stats = _materialize_bags(
        query, relations, ghd, p, seed,
        parallel=(variant == "optimized"),
        dedupe=set_semantics,
    )
    phases.extend(materialize_stats)

    levels = _levels(ghd)

    # Upward semijoin phase (deepest level reduces the one above it).
    for depth in range(len(levels) - 1, 0, -1):
        ops = [
            (parent, parent.children)
            for parent in levels[depth - 1]
            if parent.children
        ]
        phases.extend(
            _semijoin_level(working, ops, p, seed, variant, direction="up")
        )

    # Downward semijoin phase.
    for depth in range(len(levels) - 1):
        ops = [
            (parent, parent.children)
            for parent in levels[depth]
            if parent.children
        ]
        phases.extend(
            _semijoin_level(working, ops, p, seed + 1000, variant, direction="down")
        )

    # Join phase, bottom-up.
    phases.extend(_join_phase(working, levels, p, seed + 2000, variant))

    result = working[id(ghd.root)]
    output = result.project(list(query.variables), name=output_name)
    return MultiwayRun(
        output,
        combine_sequential(p, phases),
        {
            "variant": variant,
            "width": ghd.width,
            "depth": ghd.depth,
            "set_semantics": set_semantics,
        },
    )


# ------------------------------------------------------------ bag building


def _materialize_bags(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    ghd: GHD,
    p: int,
    seed: int,
    parallel: bool,
    dedupe: bool = False,
) -> tuple[dict[int, Relation], list[RunStats]]:
    """Join each node's cover atoms and project to its bag.

    Width-1 nodes cost nothing. Wider nodes run one join per step; in
    parallel mode, step t of every node shares a round.
    """
    working: dict[int, Relation] = {}
    pending: list[tuple[GHDNode, list[Relation]]] = []
    for node in ghd.nodes():
        covers = [_aligned(query, name, relations) for name in node.cover]
        if dedupe:
            covers = [rel.distinct() for rel in covers]
        if len(covers) == 1:
            working[id(node)] = _project_bag(covers[0], node, dedupe)
        else:
            pending.append((node, _greedy_join_order(covers)))

    phases: list[RunStats] = []
    step = 0
    current: dict[int, Relation] = {
        id(node): covers[0] for node, covers in pending
    }
    while pending:
        step += 1
        step_runs: list[RunStats] = []
        weights = [
            max(len(current[id(node)]) + len(covers[step]), 1)
            for node, covers in pending
        ]
        pools = allocate_servers(weights, p) if parallel else [p] * len(pending)
        for (node, covers), p_op in zip(pending, pools):
            left = current[id(node)]
            right = covers[step]
            if left.schema.common(right.schema):
                joined, stats = shuffle_join(
                    left, right, max(p_op, 1), seed=seed + step,
                    label=f"bag-join-{step}",
                )
            else:
                run = cartesian_product(left, right, max(p_op, 1), seed=seed + step)
                joined, stats = run.output, run.stats
            current[id(node)] = joined
            step_runs.append(stats)
            if step == len(covers) - 1:
                working[id(node)] = _project_bag(joined, node, dedupe)
        if parallel:
            phases.append(combine_parallel(p, step_runs))
        else:
            phases.extend(step_runs)
        pending = [
            (node, covers) for node, covers in pending if id(node) not in working
        ]
    return working, phases


def _greedy_join_order(covers: list[Relation]) -> list[Relation]:
    """Reorder cover atoms so consecutive joins share attributes if possible."""
    remaining = list(covers[1:])
    ordered = [covers[0]]
    seen = set(covers[0].schema.attributes)
    while remaining:
        connected = [r for r in remaining if seen & set(r.schema.attributes)]
        pick = connected[0] if connected else remaining[0]
        remaining.remove(pick)
        ordered.append(pick)
        seen |= set(pick.schema.attributes)
    return ordered


def _project_bag(rel: Relation, node: GHDNode, dedupe: bool = False) -> Relation:
    bag_attrs = [a for a in rel.schema.attributes if a in node.bag]
    projected = rel.project(bag_attrs, name=f"B{node.cover[0]}")
    return projected.distinct() if dedupe else projected


# ------------------------------------------------------------- semijoins


def _semijoin_level(
    working: dict[int, Relation],
    ops: list[tuple[GHDNode, list[GHDNode]]],
    p: int,
    seed: int,
    variant: str,
    direction: str,
) -> list[RunStats]:
    """All semijoins between one tree level and the next.

    ``direction="up"``: each parent is reduced by all its children;
    ``direction="down"``: each child is reduced by its parent. Optimized
    mode packs independent operations (grouped by target and key) into
    shared rounds on proportionally allocated pools.
    """
    if not ops:
        return []

    # Expand into (target_node, [reducer relations]) with a common key.
    tasks: list[tuple[GHDNode, list[Relation]]] = []
    for parent, children in ops:
        if direction == "up":
            groups: dict[tuple[str, ...], list[Relation]] = {}
            for child in children:
                key = tuple(
                    a
                    for a in working[id(parent)].schema.attributes
                    if a in working[id(child)].schema
                )
                if not key:
                    continue  # disconnected child constrains nothing
                groups.setdefault(key, []).append(working[id(child)])
            for reducers in groups.values():
                tasks.append((parent, reducers))
        else:
            for child in children:
                key = tuple(
                    a
                    for a in working[id(child)].schema.attributes
                    if a in working[id(parent)].schema
                )
                if not key:
                    continue
                tasks.append((child, [working[id(parent)]]))

    phases: list[RunStats] = []
    if variant == "optimized":
        # Tasks with the same target (several key groups of one parent)
        # cannot share a round; pack them into waves of distinct targets.
        waves: list[list[tuple[GHDNode, list[Relation]]]] = []
        for task in tasks:
            for wave in waves:
                if all(id(task[0]) != id(t[0]) for t in wave):
                    wave.append(task)
                    break
            else:
                waves.append([task])
        for wave in waves:
            weights = [
                max(len(working[id(t)]) + sum(len(r) for r in reds), 1)
                for t, reds in wave
            ]
            pools = allocate_servers(weights, p)
            runs = []
            for (target, reducers), p_op in zip(wave, pools):
                reduced, stats = shuffle_multi_semijoin(
                    working[id(target)],
                    reducers,
                    max(p_op, 1),
                    seed=seed,
                    label=f"semijoin-{direction}",
                )
                working[id(target)] = reduced
                runs.append(stats)
            phases.append(combine_parallel(p, runs))
    else:
        for target, reducers in tasks:
            for reducer in reducers:
                reduced, stats = shuffle_multi_semijoin(
                    working[id(target)],
                    [reducer],
                    p,
                    seed=seed,
                    label=f"semijoin-{direction}",
                )
                working[id(target)] = reduced
                phases.append(stats)
    return phases


# ------------------------------------------------------------- join phase


def _join_phase(
    working: dict[int, Relation],
    levels: list[list[GHDNode]],
    p: int,
    seed: int,
    variant: str,
) -> list[RunStats]:
    """Bottom-up joins. Optimized: one HyperCube round per level."""
    phases: list[RunStats] = []
    for depth in range(len(levels) - 1, 0, -1):
        parents = [n for n in levels[depth - 1] if n.children]
        if not parents:
            continue
        if variant == "optimized":
            weights = [
                max(
                    len(working[id(parent)])
                    + sum(len(working[id(c)]) for c in parent.children),
                    1,
                )
                for parent in parents
            ]
            pools = allocate_servers(weights, p)
            runs = []
            for parent, p_op in zip(parents, pools):
                merged, stats = _hypercube_merge(
                    working, parent, max(p_op, 1), seed + depth
                )
                working[id(parent)] = merged
                runs.append(stats)
            phases.append(combine_parallel(p, runs))
        else:
            for parent in parents:
                result = working[id(parent)]
                for child in parent.children:
                    child_rel = working[id(child)]
                    if result.schema.common(child_rel.schema):
                        result, stats = shuffle_join(
                            result, child_rel, p, seed=seed + depth, label="join-up"
                        )
                    else:
                        run = cartesian_product(result, child_rel, p, seed=seed + depth)
                        result, stats = run.output, run.stats
                    phases.append(stats)
                working[id(parent)] = result
    return phases


def _hypercube_merge(
    working: dict[int, Relation], parent: GHDNode, p: int, seed: int
) -> tuple[Relation, RunStats]:
    """Join a parent with all its children's results in one round."""
    parts = [working[id(parent)]] + [working[id(c)] for c in parent.children]
    atoms = []
    rels: dict[str, Relation] = {}
    for i, rel in enumerate(parts):
        name = f"P{i}"
        atoms.append(Atom(name, list(rel.schema.attributes)))
        rels[name] = Relation(name, rel.schema, rel.rows_readonly())
    subquery = ConjunctiveQuery(atoms)
    run = hypercube_join(subquery, rels, p, seed=seed)
    return run.output, run.stats


def _levels(ghd: GHD) -> list[list[GHDNode]]:
    levels: list[list[GHDNode]] = []
    frontier = [ghd.root]
    while frontier:
        levels.append(frontier)
        frontier = [c for node in frontier for c in node.children]
    return levels


def _aligned(
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
