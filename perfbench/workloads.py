"""The benchmark's three workloads: seeded op streams, timed runs, references.

Every op gets fresh inputs derived from the workload seed and the op's
index, so no op can reuse another op's relations (the runs are cold by
construction). Inputs are generated and ingested (columns built, tuple
view derived) outside the timed region; the timed region is the
operator or query call plus materializing its output tuples, or for a
service read the time from submission to the result. Each op's
output is checked outside the timed region against a reference that
shares no code with the operator: dict-index joins, ``sorted``, a numpy
matrix product, the nested-loop oracle, or a serial ``Engine`` over a
private copy of the catalog.

Value domains: every column is homogeneous -- all ``int`` or, for the
``str``-keyed engine ops, all ``str``. Mixed ``int``/``float`` key
columns are left out on purpose: whether ``1`` and ``1.0`` must meet
on one server is an open decision of the library (normalize at ingest
or reject the column), and until it is made there is no correct output
to check such ops against. The routing defect stays open in the
library; this benchmark does not paper over it.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import Engine, Relation
from repro.bench.experiments import _dict_join_rows, _warm, experiment, triangle_oracle_rows
from repro.data.generators import skewed_relation, uniform_relation
from repro.data.graphs import power_law_edges, triangle_relations
from repro.data.warehouse import make_warehouse
from repro.joins.hash_join import parallel_hash_join
from repro.kernels import memo
from repro.matmul.sql import sql_matmul
from repro.multiway.base import shuffle_multi_semijoin
from repro.multiway.hypercube import triangle_hypercube
from repro.query.parser import parse_query
from repro.service.cli import WORKLOAD as SERVICE_QUERIES
from repro.service.service import QueryService
from repro.sorting.psrs import psrs_sort
from repro.testing.oracle import oracle_join

Row = tuple[Any, ...]

# Seed streams: ops of the timed phase and the untimed warm-up ops draw
# from different streams, so warm-up inputs are never reused. The
# service workload adds a warehouse stream, a stream of per-client op
# sequences, and one stream of written rows per client.
TIMED, WARMUP, WAREHOUSE, SEQUENCE, WRITES = 0, 1, 2, 3, 4

# sql_matmul reference tolerance: the library sums float64 partial
# products in a different association order than numpy's BLAS product.
MATMUL_RTOL = 1e-9
MATMUL_ATOL = 1e-12


def op_seed(seed: int, stream: int, index: int) -> int:
    """A 31-bit generator seed for op ``index`` of a stream."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
    return int(state.generate_state(1)[0] & 0x7FFFFFFF)


def same_bag(got: Sequence[Row], expected: Sequence[Row]) -> bool:
    return len(got) == len(expected) and sorted(got) == sorted(expected)


def rows_digest(rows: Sequence[Row]) -> tuple[int, int]:
    return bag_digest([np.asarray(column, dtype=np.int64) for column in zip(*rows)],
                      len(rows))


def relation_digest(rel: Relation) -> tuple[int, int]:
    columns = rel.columns()
    if columns is None:
        return rows_digest(rel.rows_readonly())
    return bag_digest(columns, len(rel))


def bag_digest(columns: Sequence[np.ndarray], n: int) -> tuple[int, int]:
    """(row count, wrapping sum of row hashes): equal for equal bags of int rows.

    The service workload checks reads by digest, taken between segments,
    so a run keeps at most one segment's outputs alive; holding every
    read's rows would dominate peak memory.
    """
    h = np.full(n, 0x9E3779B97F4A7C15, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for position, column in enumerate(columns):
            h ^= column.astype(np.uint64) + np.uint64(position + 1)
            h *= np.uint64(0xBF58476D1CE4E5B9)
            h ^= h >> np.uint64(29)
            h *= np.uint64(0x94D049BB133111EB)
            h ^= h >> np.uint64(32)
    return n, int(h.sum(dtype=np.uint64))


@dataclass
class Record:
    """One attempted op as the client saw it."""

    kind: str
    seconds: float
    in_tuples: int
    ok: bool = True
    error: str | None = None
    executed: bool = True  # ran on the cluster: not a cache hit, not a write
    load: int = 0  # L_max over the op's rounds
    rounds: int = 0
    p: int = 1
    predicted: float | None = None  # planner's L for the chosen plan
    fallback_dispatches: int = 0
    partition_hits: int = 0  # kernels.memo partition-cache hits during the op
    submit_s: float | None = None  # service: admission time on the client
    service_s: float | None = None  # service: ServiceResult.seconds
    write: bool = False

    @property
    def load_over_in_p(self) -> float:
        return self.load * self.p / self.in_tuples if self.in_tuples else 0.0


@dataclass
class Op:
    """One op: ``run`` is timed; ``check(output)`` is not."""

    kind: str
    p: int
    in_tuples: int
    run: Callable[[], tuple[Any, Any]]  # -> (output, RunStats-like)
    check: Callable[[Any], bool]


MIN_SAMPLES = 100


class ClosedLoop:
    """One client issuing ops back to back, in a fixed cycle of kinds.

    A run ends at a boundary of ``period`` ops once the timed op time
    reaches the budget and at least ``min_samples`` ops ran, so every run
    holds the same mix of ops and, by default, at least ten latencies
    beyond its p90.
    """

    name = ""
    kinds: tuple[str, ...] = ()

    @property
    def period(self) -> int:
        """Ops after which the mix of op variants repeats."""
        return len(self.kinds)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Applied to each output before its check; the benchmark's own
        # test corrupts outputs through it to prove the check bites.
        self.corrupt: Callable[[Any], Any] | None = None

    def make_op(self, stream: int, index: int) -> Op:
        raise NotImplementedError

    def setup(self) -> None:
        """Untimed warm-up: one op per kind on warm-up-stream inputs."""
        for index in range(len(self.kinds)):
            self.make_op(WARMUP, index).run()

    def close(self) -> None:
        pass

    def run(self, seconds: float | None = None, limit: int | None = None,
            tracer: Any = None, min_samples: int = MIN_SAMPLES) -> list[Record]:
        """Run ops until ``seconds`` of op time (whole periods) or ``limit`` ops."""
        records: list[Record] = []
        busy = 0.0
        for index in itertools.count():
            if limit is not None and index >= limit:
                break
            if (limit is None and busy >= seconds and index >= min_samples
                    and index % self.period == 0):
                break
            record = self._run_op(index, tracer)
            busy += record.seconds
            records.append(record)
        return records

    def _run_op(self, index: int, tracer: Any) -> Record:
        op = self.make_op(TIMED, index)
        record = Record(op.kind, 0.0, op.in_tuples, p=op.p)
        memo_before = memo.GLOBAL.partition_hits
        # Automatic garbage collection stays on, but an op pays only for
        # collecting what it allocates itself. Everything alive before it
        # (its inputs, the library's caches, the harness) is frozen for the
        # op's duration, after emptying the young generations untimed.
        # Otherwise about one op in ten on shuffle_cold would pay a full
        # collection over the heap the kernels.memo caches keep alive
        # (300-600 ms), which op falls on it is an accident of the
        # harness's allocations, and latency_p90_ms would flip between
        # runs with and without those ops in its tail.
        gc.collect(1)
        gc.freeze()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            output, stats = op.run()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            record.ok, record.error = False, f"{type(exc).__name__}: {exc}"
        finally:
            record.seconds = time.perf_counter() - start
            gc.unfreeze()
            if tracer is not None:
                tracer.active = False
        record.partition_hits = memo.GLOBAL.partition_hits - memo_before
        if not record.ok:
            return record
        exec_stats = getattr(stats, "exec", None)
        record.load, record.rounds = stats.max_load, stats.num_rounds
        record.fallback_dispatches = exec_stats.fallback_dispatches if exec_stats else 0
        record.predicted = getattr(stats, "predicted", None)
        if self.corrupt is not None:
            output = self.corrupt(output)
        if not op.check(output):
            record.ok, record.error = False, "output differs from the reference"
        return record

    def cold_hit_problems(self, records: list[Record]) -> list[str]:
        """Partition-cache hits that an empty cache would not give.

        Inputs are fresh per op, so every hit must come from reuse inside
        the op itself (SkewHC re-routes a relation across its residual
        stages). The last op of each kind that hit, the one with the
        longest cache history behind it, is re-run on a cleared cache
        and must hit exactly as often; a cache change that carries
        entries from one op to the next fails here.
        """
        last_hit: dict[str, int] = {}
        for index, record in enumerate(records):
            if record.partition_hits:
                last_hit[record.kind] = index
        problems = []
        for kind, index in last_hit.items():
            memo.clear_memo()
            before = memo.GLOBAL.partition_hits
            self.make_op(TIMED, index).run()
            alone = memo.GLOBAL.partition_hits - before
            if alone != records[index].partition_hits:
                problems.append(f"op {index} ({kind}) had {records[index].partition_hits} "
                                f"partition-cache hits, {alone} on an empty cache")
        return problems


# --------------------------------------------------------------- shuffle_cold


class ShuffleCold(ClosedLoop):
    """Cold one-round operator calls at p=64 (p=16 for matmul).

    The kinds are the curated experiments of ``repro.bench.experiments``
    at the p they declare, with their input generators and ingest; only
    the sizes are this benchmark's own, so one op takes 50-300 ms.
    """

    name = "shuffle_cold"
    kinds = ("hash_join_uniform", "hash_join_zipf", "hypercube_triangle",
             "multi_semijoin", "psrs_sort", "sql_matmul")
    SIZES = {"hash_join_uniform": 50_000, "hash_join_zipf": 40_000,
             "hypercube_triangle": 30_000, "multi_semijoin": 50_000,
             "psrs_sort": 40_000, "sql_matmul": 32}

    def make_op(self, stream: int, index: int) -> Op:
        kind = self.kinds[index % len(self.kinds)]
        s = op_seed(self.seed, stream, index)
        n, p = self.SIZES[kind], experiment(kind).p
        inputs = experiment(kind).prepare(n, s)
        if kind in ("hash_join_uniform", "hash_join_zipf"):
            r, t = inputs

            def run():
                out = parallel_hash_join(r, t, p=p, seed=s)
                return out.output.rows_readonly(), out.stats

            return Op(kind, p, len(r) + len(t), run,
                      lambda rows: same_bag(rows, _dict_join_rows(r, t)))
        if kind == "hypercube_triangle":

            def run():
                out = triangle_hypercube(*inputs, p=p, seed=s)
                return out.output.rows_readonly(), out.stats

            return Op(kind, p, sum(len(rel) for rel in inputs), run,
                      lambda rows: same_bag(rows, triangle_oracle_rows(inputs)))
        if kind == "multi_semijoin":
            target, reducers = inputs

            def run():
                out, stats = shuffle_multi_semijoin(target, reducers, p=p, seed=s)
                return out.rows_readonly(), stats

            def check(rows):
                keep = set.intersection(*({row[0] for row in k.rows_readonly()}
                                          for k in reducers))
                expected = [row for row in target.rows_readonly() if row[1] in keep]
                return same_bag(rows, expected)

            return Op(kind, p, len(target) + sum(len(k) for k in reducers), run, check)
        if kind == "psrs_sort":

            def run():
                return psrs_sort(inputs, p=p, seed=s)

            return Op(kind, p, n, run, lambda out: out == sorted(inputs))
        a, b = inputs  # sql_matmul

        def run():
            return sql_matmul(a, b, p=p, seed=s)

        def check(c):
            return c.shape == (n, n) and bool(
                np.allclose(c, a @ b, rtol=MATMUL_RTOL, atol=MATMUL_ATOL))

        # IN counts the non-zero entries of both matrices (the tuples
        # the join round scatters).
        return Op(kind, p, 2 * n * n, run, check)


# ----------------------------------------------------------- engine_multiround


def with_str_keys(rel: Relation, attributes: Sequence[str]) -> Relation:
    """A copy of ``rel`` whose listed columns hold ``str`` values."""
    idx = set(rel.schema.indices(attributes))
    return Relation(rel.name, rel.schema.attributes, [
        tuple(f"k{v}" if i in idx else v for i, v in enumerate(row))
        for row in rel.rows_readonly()
    ])


def reference_join(query: str, relations: dict[str, Relation]) -> list[Row]:
    """The query's output by dict-index joins, in query-variable order."""
    cq = parse_query(query)
    acc: Relation | None = None
    for atom in cq.atoms:
        rel = relations[atom.name]
        aligned = Relation(atom.name, list(atom.variables),
                           [tuple(row[i] for i in rel.schema.indices(atom.variables))
                            for row in rel.rows_readonly()])
        if acc is None:
            acc = aligned
        else:
            attrs = list(acc.schema.attributes) + [
                a for a in aligned.schema.attributes if a not in acc.schema]
            acc = Relation("acc", attrs, _dict_join_rows(acc, aligned))
    order = acc.schema.indices(cq.variables)
    return [tuple(row[i] for i in order) for row in acc.rows_readonly()]


@dataclass
class _EngineStats:
    """The fields of a query result the records need."""

    max_load: int
    num_rounds: int
    exec: Any
    predicted: float | None


class EngineMultiround(ClosedLoop):
    """Cold ``Engine.query(strategy="auto")`` calls over the planner shapes.

    One shape per multi-round or skew-aware strategy family; a quarter
    of the ops carry ``str`` join keys, which take the scalar hashing
    path instead of the integer column kernels.
    """

    name = "engine_multiround"
    kinds = ("path_three", "triangle_power_law", "two_way_zipf", "star_three",
             "broadcast_small_side", "product_pair")
    # Small enough for the nested-loop oracle as the reference.
    ORACLE_KINDS = ("product_pair",)

    def shape(self, kind: str, s: int, scale: float = 1.0
              ) -> tuple[str, list[Relation], int, tuple[str, ...]]:
        """(query, relations, p, join-key attributes) for one op.

        ``scale`` multiplies every row count and value universe alike, so
        the rows per key value stay the same.
        """

        def k(size: int) -> int:
            return max(1, round(size * scale))

        if kind == "path_three":
            n, u = k(3_000), k(2_000)
            return ("R(x, y), S(y, z), T(z, w)", [
                uniform_relation("R", ("x", "y"), n, u, seed=s),
                uniform_relation("S", ("y", "z"), n, u, seed=s + 1),
                uniform_relation("T", ("z", "w"), n, u, seed=s + 2),
            ], 8, ("y", "z"))
        if kind == "triangle_power_law":
            edges = power_law_edges(k(2_000), k(300), s=1.4, seed=s)
            return ("R(x, y), S(y, z), T(z, x)", list(triangle_relations(edges)), 16,
                    ("x", "y", "z"))
        if kind == "two_way_zipf":
            n = k(6_000)
            return ("R(x, y), S(y, z)", [
                skewed_relation("R", ["x", "y"], n, "y", universe=n, s=1.1, seed=s),
                uniform_relation("S", ["y", "z"], n, n, seed=s + 1),
            ], 16, ("y",))
        if kind == "star_three":
            n, u = k(2_500), k(600)
            return ("R(x, y), S(x, z), T(x, w)", [
                uniform_relation("R", ("x", "y"), n, u, seed=s),
                uniform_relation("S", ("x", "z"), n, u, seed=s + 1),
                uniform_relation("T", ("x", "w"), n, u, seed=s + 2),
            ], 16, ("x",))
        if kind == "broadcast_small_side":
            return ("R(x, y), S(y, z)", [
                uniform_relation("R", ("x", "y"), k(12_000), k(1_200), seed=s),
                uniform_relation("S", ("y", "z"), k(150), k(1_200), seed=s + 1),
            ], 16, ("y",))
        # product_pair: variable-disjoint, so no join key; the str
        # variant puts strings in the grid-hashed columns instead.
        return ("R(a, b), S(c, d)", [
            uniform_relation("R", ("a", "b"), k(250), k(200), seed=s),
            uniform_relation("S", ("c", "d"), k(250), k(200), seed=s + 1),
        ], 16, ("a", "c"))

    # Each kind gets str keys in one cycle out of this many.
    STR_CYCLES = 4
    # The str-keyed variants run on this share of the int variant's
    # sizes: scalar hashing and str tuples make them up to four times
    # slower per row, and at full size three of them took 250-400 ms,
    # past the 50-200 ms an op is sized for.
    STR_SCALE = 0.6

    @property
    def period(self) -> int:
        return len(self.kinds) * self.STR_CYCLES

    def str_keyed(self, stream: int, index: int) -> bool:
        cycle, position = divmod(index, len(self.kinds))
        return (cycle + position + stream) % self.STR_CYCLES == 0

    def make_op(self, stream: int, index: int) -> Op:
        kind = self.kinds[index % len(self.kinds)]
        s = op_seed(self.seed, stream, index)
        str_keys = self.str_keyed(stream, index)
        query, relations, p, keys = self.shape(kind, s, self.STR_SCALE if str_keys else 1.0)
        if str_keys:
            relations = [with_str_keys(rel, [a for a in rel.schema.attributes if a in keys])
                         for rel in relations]
            kind += ":str"
        _warm(*relations)
        engine = Engine(p, seed=s)
        for rel in relations:
            engine.register(rel)
        by_name = {rel.name: rel for rel in relations}

        def run():
            result = engine.query(query, strategy="auto")
            rows = result.output.rows_readonly()
            predicted = (result.explain.chosen_plan.predicted_load
                         if result.explain is not None else None)
            return rows, _EngineStats(result.stats.max_load, result.stats.num_rounds,
                                      result.stats.exec, predicted)

        def check(rows):
            if kind.split(":")[0] in self.ORACLE_KINDS:
                expected = oracle_join(parse_query(query), by_name).rows_readonly()
            else:
                expected = reference_join(query, by_name)
            return same_bag(rows, expected)

        return Op(kind, p, sum(len(rel) for rel in relations), run, check)


# ------------------------------------------------------------------ service_rw


@dataclass
class _Write:
    client: int
    index: int
    relation: str
    rows: list[Row]
    start: int  # event sequence numbers around the extend call
    end: int


@dataclass
class _Read:
    query: str
    digest: tuple[int, int]
    start: int
    end: int
    record: Record


class ServiceRW:
    """Two closed-loop clients against ``QueryService(workers=2)``.

    The warehouse has the shape ``repro serve`` and ``bench --x8`` use:
    ``n_orders`` orders, a tenth as many customers (at least 50) with
    Zipf(1.2) order ownership, three line items per order. Each client
    follows its own seeded op sequence over it: 90% reads drawn with
    repeats from the service's built-in query mix, 10% ``extend`` writes
    of a few new rows, which invalidate the cached results of every
    query over the written relation.

    The phase runs in segments: in each, both clients start together and
    run ``SEGMENT_OPS`` ops of their sequence. Outputs are digested for
    the check between segments, outside the timed region and untraced,
    so the phase time is the sum of the segments' wall times and holds
    none of the benchmark's own work.
    """

    name = "service_rw"
    clients = 2
    workers = 2
    P = 8
    N_ORDERS = 3_000
    N_CUSTOMERS = max(50, N_ORDERS // 10)
    N_PARTS = 200  # make_warehouse's default
    WRITE_ROWS = 40
    WRITABLE = ("Orders", "Lineitems", "Customers")
    SEGMENT_OPS = 30  # three blocks of the op sequence per client

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.corrupt: Callable[[Any], Any] | None = None
        self.service: QueryService | None = None
        self.reads: list[_Read] = []
        self.writes: list[_Write] = []
        self.segments = 0
        self.atoms = {q: frozenset(a.name for a in parse_query(q).atoms)
                      for q in SERVICE_QUERIES}

    @property
    def warehouse_seed(self) -> int:
        return op_seed(self.seed, WAREHOUSE, 0)

    def _warehouse(self, warehouse_seed: int):
        return make_warehouse(n_orders=self.N_ORDERS, n_customers=self.N_CUSTOMERS,
                              seed=warehouse_seed)

    def _new_service(self, warehouse_seed: int) -> QueryService:
        warehouse = self._warehouse(warehouse_seed)
        _warm(*warehouse.relations().values())
        return QueryService(warehouse, p=self.P, workers=self.workers, seed=self.seed)

    def setup(self) -> None:
        """Warm up on a throwaway service, then build the measured one."""
        warm = self._new_service(op_seed(self.seed, WAREHOUSE, 1))
        try:
            for query in SERVICE_QUERIES:
                warm.query(query)
            warm.extend("Orders", self.write_rows(0, 0, "Orders"))
            warm.query(SERVICE_QUERIES[0])
        finally:
            warm.close()
        self.fresh_service()

    def fresh_service(self) -> None:
        self.close()
        self.service = self._new_service(self.warehouse_seed)
        self.reads, self.writes = [], []

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def write_rows(self, client: int, index: int, relation: str) -> list[Row]:
        """New rows for write ``index`` of ``client``; fresh ids never collide."""
        rng = np.random.default_rng(op_seed(self.seed, WRITES + client, index))
        fresh = 1_000_000 * (client + 1) + index * self.WRITE_ROWS
        k = self.WRITE_ROWS
        if relation == "Orders":
            return list(zip(range(self.N_ORDERS + fresh, self.N_ORDERS + fresh + k),
                            rng.integers(0, self.N_CUSTOMERS, k).tolist(),
                            rng.integers(1, 13, k).tolist()))
        if relation == "Lineitems":
            return list(zip(rng.integers(0, self.N_ORDERS, k).tolist(),
                            rng.integers(0, self.N_PARTS, k).tolist(),
                            rng.integers(1, 10, k).tolist()))
        return list(zip(range(self.N_CUSTOMERS + fresh, self.N_CUSTOMERS + fresh + k),
                        rng.integers(0, 8, k).tolist(),
                        rng.integers(0, 5, k).tolist()))

    def client_ops(self, client: int) -> Iterator[tuple[str, str]]:
        """The client's fixed op sequence: ("read", query) / ("write", relation).

        Ops come in blocks of ten: nine reads, two of each query plus
        one drawn at random, in seeded order, and one write at a seeded
        position. The written relation cycles, so every run sees the
        same read mix and the same invalidation pattern; only the order
        within each block depends on the seed.
        """
        rng = np.random.default_rng(op_seed(self.seed, SEQUENCE, client))
        queries = list(SERVICE_QUERIES)
        for block in itertools.count():
            reads = queries * 2 + [queries[int(rng.integers(len(queries)))]]
            rng.shuffle(reads)
            ops = [("read", query) for query in reads]
            relation = self.WRITABLE[(block + client) % len(self.WRITABLE)]
            ops.insert(int(rng.integers(len(ops) + 1)), ("write", relation))
            yield from ops

    def run(self, seconds: float | None = None, segments: int | None = None,
            tracer: Any = None) -> tuple[list[Record], float]:
        """Run both clients; returns (records in client order, phase seconds).

        With ``segments`` the phase runs exactly that many segments (the
        traced replay); otherwise it stops after the segment that brings
        the timed wall time to ``seconds``.
        """
        service = self.service
        lock = threading.Lock()
        events = itertools.count()

        def tick() -> int:
            with lock:
                return next(events)

        sequences = [self.client_ops(c) for c in range(self.clients)]
        per_client: list[list[Record]] = [[] for _ in range(self.clients)]
        # (client, query, output, start tick, end tick, record) of the
        # reads of the running segment, digested once it ends.
        outputs: list[list[tuple]] = [[] for _ in range(self.clients)]
        writes: list[list[_Write]] = [[] for _ in range(self.clients)]
        errors: list[BaseException] = []
        segment_start = [0.0]

        def begin() -> None:
            # Runs once, before any client passes the barrier.
            segment_start[0] = time.perf_counter()

        def client(c: int, barrier: threading.Barrier) -> None:
            try:
                barrier.wait()
                for _ in range(self.SEGMENT_OPS):
                    j = len(per_client[c])
                    what, target = next(sequences[c])
                    if what == "write":
                        rows = self.write_rows(c, j, target)
                        start = tick()
                        t0 = time.perf_counter()
                        try:
                            service.extend(target, rows)
                        except Exception as exc:  # noqa: BLE001 - a failed op
                            per_client[c].append(Record(
                                f"write:{target}", time.perf_counter() - t0, len(rows),
                                ok=False, error=f"{type(exc).__name__}: {exc}",
                                executed=False, write=True))
                            continue
                        elapsed = time.perf_counter() - t0
                        writes[c].append(_Write(c, j, target, rows, start, tick()))
                        per_client[c].append(Record(f"write:{target}", elapsed, len(rows),
                                                    executed=False, write=True))
                        continue
                    start = tick()
                    t0 = time.perf_counter()
                    try:
                        ticket = service.submit(target, tenant=f"client-{c}")
                        submitted = time.perf_counter()
                        result = ticket.result(timeout=60)
                        end = tick()
                    except Exception as exc:  # noqa: BLE001 - rejections count too
                        per_client[c].append(Record(
                            target, time.perf_counter() - t0, 0, ok=False,
                            error=f"{type(exc).__name__}: {exc}", p=self.P))
                        continue
                    elapsed = time.perf_counter() - t0
                    record = Record(
                        target, elapsed, 0, executed=not result.cache_hit,
                        load=result.max_load, rounds=result.rounds, p=self.P,
                        predicted=result.predicted_load or None,
                        submit_s=submitted - t0, service_s=result.seconds)
                    per_client[c].append(record)
                    outputs[c].append((target, result.output, start, end, record))
            except BaseException as exc:  # noqa: BLE001 - re-raised after join
                errors.append(exc)
                barrier.abort()

        wall = 0.0
        reads: list[_Read] = []
        for segment in itertools.count():
            if segments is not None and segment >= segments:
                break
            if segments is None and segment and wall >= seconds:
                break
            barrier = threading.Barrier(self.clients + 1, action=begin)
            threads = [threading.Thread(target=client, args=(c, barrier),
                                        name=f"bench-client-{c}")
                       for c in range(self.clients)]
            for thread in threads:
                thread.start()
            if tracer is not None:
                tracer.active = True
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            for thread in threads:
                thread.join()
            wall += time.perf_counter() - segment_start[0]
            if tracer is not None:
                tracer.active = False
            if errors:
                raise errors[0]
            for client_outputs in outputs:
                for query, output, start, end, record in client_outputs:
                    if self.corrupt is None:
                        digest = relation_digest(output)
                    else:
                        digest = rows_digest(self.corrupt(output.rows_readonly()))
                    reads.append(_Read(query, digest, start, end, record))
                client_outputs.clear()
            self.segments = segment + 1
        self.reads = reads
        self.writes = [w for ws in writes for w in ws]
        self.check()
        return [r for rs in per_client for r in rs], wall

    # -- reference check ---------------------------------------------------

    def check(self) -> None:
        """Check every read against a serial Engine on a matching catalog.

        A read saw every write that ended before it was submitted, none
        that started after it returned, and possibly some that overlapped
        it. The read is correct if a serial run over the base catalog
        plus one of those admissible write sets gives the same bag.
        """
        base = self._warehouse(self.warehouse_seed).relations()
        references: dict[tuple[str, frozenset], tuple[tuple[int, int], int]] = {}
        for read in self.reads:
            relevant = [w for w in self.writes if w.relation in self.atoms[read.query]]
            certain = [w for w in relevant if w.end < read.start]
            maybe = [w for w in relevant if w.start < read.end and w.end > read.start]
            matched = None
            for size in range(len(maybe) + 1):
                for extra in itertools.combinations(maybe, size):
                    key = (read.query, frozenset((w.client, w.index) for w in certain + list(extra)))
                    if key not in references:
                        references[key] = self._serial(read.query, base, certain + list(extra))
                    if read.digest == references[key][0]:
                        matched = references[key]
                        break
                if matched is not None:
                    break
            if matched is None:
                read.record.ok = False
                read.record.error = "output matches no serial run on an admissible catalog"
            else:
                read.record.in_tuples = matched[1]

    def _serial(self, query: str, base: dict[str, Relation],
                applied: list[_Write]) -> tuple[tuple[int, int], int]:
        """(output digest, input tuples) of a serial Engine run."""
        engine = Engine(self.P, seed=self.seed)
        in_tuples = 0
        for name in self.atoms[query]:
            rel = base[name]
            copy = Relation(name, rel.schema.attributes, rel.rows_readonly())
            for write in sorted(applied, key=lambda w: (w.client, w.index)):
                if write.relation == name:
                    copy.extend(write.rows)
            engine.register(copy)
            in_tuples += len(copy)
        return relation_digest(engine.query(query).output), in_tuples


WORKLOADS: dict[str, type] = {
    ShuffleCold.name: ShuffleCold,
    EngineMultiround.name: EngineMultiround,
    ServiceRW.name: ServiceRW,
}
