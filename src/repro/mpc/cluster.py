"""The MPC cluster simulator.

Implements the Massively Parallel Communication model of the tutorial:
``p`` shared-nothing servers computing in synchronous rounds. One round =
local computation + all-to-all communication delivered at a barrier.

Usage pattern (a shuffle round)::

    cluster = Cluster(p=8)
    cluster.scatter(r, "R")
    h = cluster.hash_function(index=0, buckets=cluster.p)
    with cluster.round("shuffle") as rnd:
        for server in cluster.servers:
            for row in server.take("R"):
                rnd.send(h(row[0]), "R@h", row)
    # after the `with` block every destination fragment is populated and
    # cluster.stats has a RoundStats entry for the round.

Costs follow the tutorial's conventions: the *load* of a server in a
round is the number of tuples it receives; ``L`` is the max over servers
and rounds; the initial ``scatter`` placement is free (the model grants
an O(IN/p) initial distribution), though it can optionally be recorded.

Lifecycle guarantees
--------------------

The round lifecycle is exception-safe:

- An exception raised *inside* the ``with`` block aborts the round: the
  pending sends are discarded, nothing is delivered or charged, the
  round is closed, and the cluster can immediately open a new round
  (``RunStats.aborted`` counts such aborts).
- The ``load_cap`` is enforced at the barrier *before* any tuple is
  delivered: a violating round raises
  :class:`~repro.errors.LoadExceededError`, mutates no server fragment,
  and is recorded in the statistics with ``delivered=False`` so the
  failure is inspectable — and the cluster remains usable.

With ``Cluster(p, audit=True)`` (or inside
:func:`repro.mpc.audit.audited`) every delivered round is additionally
checked against the conservation invariants of
:mod:`repro.mpc.audit`; the report is surfaced on ``cluster.stats.audit``.

With ``Cluster(p, faults=plan)`` (or inside
:func:`repro.mpc.faults.faulty`) a deterministic
:class:`~repro.mpc.faults.FaultPlan` injects crashes, stragglers, and
channel faults at the barriers; recovery runs before the audit snapshot,
so a recovered round satisfies the same invariants as a fault-free one.
The fault counters are surfaced on ``cluster.stats.faults``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.data.relation import Relation
from repro.errors import ClusterError, LoadExceededError
from repro.exec.base import ExecutionBackend, chunk_bounds, get_backend
from repro.kernels.config import kernels_enabled
from repro.kernels.memo import MemoStats
from repro.mpc.audit import AuditReport, ClusterAuditor, audit_enabled_by_default
from repro.mpc.faults import (
    FaultController,
    FaultPlan,
    FaultStats,
    fault_plan_by_default,
)
from repro.mpc.hashing import HashFamily, HashFunction
from repro.mpc.server import Row, Server
from repro.mpc.stats import ExecStats, RoundStats, RunStats


class RoundContext:
    """Collects sends during one round; delivers them at the barrier."""

    def __init__(self, cluster: "Cluster", label: str, charged: bool = True) -> None:
        self._cluster = cluster
        self.label = label
        self.charged = charged
        # _buffers[dest][fragment] = list of rows
        self._buffers: list[dict[str, list[Row]]] = [{} for _ in range(cluster.p)]
        # Column side-cars accompanying batched sends:
        # _column_buffers[dest][fragment] = [key_idx, per-column chunk lists,
        # number of rows covered]. Installed on the destination server at
        # delivery only when every row of the fragment's buffer arrived
        # with matching columns.
        self._column_buffers: list[dict[str, list]] = [{} for _ in range(cluster.p)]
        self._units: list[int] = [0] * cluster.p
        self._closed = False
        self.aborted = False
        # Round ordinal (0-based, counts every opened round, charged and
        # free) — the coordinate fault plans schedule against. Assigned
        # by Cluster._open_round.
        self.ordinal = -1

    # ------------------------------------------------------------- sending

    def send(self, dest: int, fragment: str, row: Row, units: int = 1) -> None:
        """Send one tuple to server ``dest``, to be stored under ``fragment``.

        ``units`` is the communication cost of the tuple (default one, per
        the tutorial's tuple-counting convention). It must be
        non-negative: a negative cost would silently offset other
        senders' units and could mask a load-cap violation.
        """
        if self._closed:
            raise ClusterError("round already closed")
        if not 0 <= dest < self._cluster.p:
            raise ClusterError(f"destination {dest} out of range [0, {self._cluster.p})")
        if units < 0:
            raise ClusterError(f"units must be non-negative, got {units}")
        self._buffers[dest].setdefault(fragment, []).append(row)
        self._units[dest] += units

    def send_many(self, dest: int, fragment: str, rows: Iterable[Row]) -> None:
        """Send several tuples to one destination fragment."""
        for row in rows:
            self.send(dest, fragment, row)

    def send_rows(
        self,
        dest: int,
        fragment: str,
        rows: Sequence[Row],
        key_idx: tuple[int, ...] | None = None,
        columns: Sequence[np.ndarray] | None = None,
    ) -> None:
        """Batched :meth:`send`: one call charges ``len(rows)`` units.

        Buffer contents and charged units end up exactly as if each row
        had been sent individually (the kernels' batched shuffles rely on
        this to keep loads identical to the tuple-at-a-time path).

        ``columns`` optionally carries the rows' key columns
        (``columns[i]`` = column ``key_idx[i]``, aligned with ``rows``);
        when the whole fragment arrives this way the destination server
        gets the concatenated arrays as a column side-car, so local
        computation can skip re-extracting columns from the tuples.
        """
        if self._closed:
            raise ClusterError("round already closed")
        if not 0 <= dest < self._cluster.p:
            raise ClusterError(f"destination {dest} out of range [0, {self._cluster.p})")
        self._buffers[dest].setdefault(fragment, []).extend(rows)
        self._units[dest] += len(rows)
        if columns is not None:
            entry = self._column_buffers[dest].setdefault(
                fragment, [key_idx, [[] for _ in columns], 0]
            )
            if entry[0] == key_idx and len(entry[1]) == len(columns):
                for chunks, chunk in zip(entry[1], columns):
                    chunks.append(chunk)
                entry[2] += len(rows)

    def broadcast(self, fragment: str, row: Row, servers: Sequence[int] | None = None) -> None:
        """Send one tuple to every server (or each listed server)."""
        targets = range(self._cluster.p) if servers is None else servers
        for dest in targets:
            self.send(dest, fragment, row)

    # ------------------------------------------------------------- barrier

    def _make_stats(self) -> RoundStats:
        """The round's load record (zeros when the round is uncharged)."""
        units = list(self._units) if self.charged else [0] * self._cluster.p
        return RoundStats(self.label, units)

    def _cap_violation(self) -> tuple[int, int] | None:
        """(server, load) of the worst cap violation, or None when within cap."""
        cap = self._cluster.load_cap
        if cap is None or not self.charged:
            return None
        worst: tuple[int, int] | None = None
        for sid, got in enumerate(self._units):
            if got > cap and (worst is None or got > worst[1]):
                worst = (sid, got)
        return worst

    def _deliver_buffers(self) -> None:
        """Move every buffered tuple into its destination fragment."""
        servers = self._cluster.servers
        for dest, fragments in enumerate(self._buffers):
            server = servers[dest]
            side_cars = self._column_buffers[dest]
            for fragment, rows in fragments.items():
                target = server.fragment(fragment)
                had_rows = bool(target)
                target.extend(rows)
                # Delivering rows invalidates any previous side-car; a new
                # one is installed only when this round's columns cover the
                # fragment's entire (freshly created) row list.
                server.column_cache.pop(fragment, None)
                entry = side_cars.get(fragment)
                if entry is not None and not had_rows and entry[2] == len(rows):
                    key_idx, per_column, _covered = entry
                    if any(len(chunks) > 1 for chunks in per_column):
                        # Zero-copy chunked delivery: hand the blocks over
                        # as-is; the concat happens only if a consumer asks
                        # for whole columns (Server.take_with_columns).
                        server.put_column_chunks(fragment, key_idx, per_column)
                    else:
                        server.put_columns(
                            fragment,
                            key_idx,
                            [
                                chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                                for chunks in per_column
                            ],
                        )

    def __enter__(self) -> "RoundContext":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # Exception-safe: the cluster's round state is released on every
        # exit path. A clean exit runs the barrier (which may itself raise
        # LoadExceededError or AuditError); an exceptional exit aborts the
        # round without delivering and lets the exception propagate.
        if exc_type is None:
            self._cluster._finish_round(self)
        else:
            self._cluster._abort_round(self)


class Cluster:
    """A simulated MPC cluster of ``p`` servers.

    Parameters
    ----------
    p:
        Number of servers.
    seed:
        Seed of the cluster's hash-function family (all algorithms draw
        their hash functions from here, so runs are reproducible).
    load_cap:
        Optional *maximum permitted* per-server per-round load,
        inclusive: a round delivering exactly ``load_cap`` units to a
        server is within budget; the first unit beyond it (``load_cap +
        1``) raises :class:`LoadExceededError` at the barrier *before
        delivering anything* — the round is recorded with
        ``delivered=False`` and the cluster stays usable. Used to
        *verify* that an algorithm stays within a promised load L.
    audit:
        ``True`` attaches a :class:`~repro.mpc.audit.ClusterAuditor`
        that re-checks conservation invariants after every round (see
        :mod:`repro.mpc.audit`); ``None`` (default) follows
        :func:`repro.mpc.audit.audited`'s ambient setting.
    faults:
        A :class:`~repro.mpc.faults.FaultPlan` to inject into this
        cluster's lifecycle (see :mod:`repro.mpc.faults`); ``None``
        (default) follows :func:`repro.mpc.faults.faulty`'s ambient
        setting. The plan's counters appear on ``stats.faults``.
    backend:
        Who executes per-round local computation routed through
        :meth:`map_servers`: ``"inline"`` (this process), ``"process"``
        (the persistent worker pool of :mod:`repro.exec`), an
        :class:`~repro.exec.base.ExecutionBackend` instance, or ``None``
        (default) to follow the ambient :func:`repro.exec.use_backend`
        / ``REPRO_BACKEND`` setting. Outputs, loads, rounds, audits, and
        fault replay are byte-identical across backends.
    """

    def __init__(
        self,
        p: int,
        seed: int = 0,
        load_cap: int | None = None,
        audit: bool | None = None,
        faults: FaultPlan | None = None,
        backend: "str | ExecutionBackend | None" = None,
    ) -> None:
        if p <= 0:
            raise ClusterError("a cluster needs at least one server")
        self.p = p
        self.servers = [Server(sid) for sid in range(p)]
        self.stats = RunStats(p)
        self.backend = get_backend(backend)
        self.stats.exec = self.backend.new_stats()
        self.load_cap = load_cap
        self._hash_family = HashFamily(seed)
        self._in_round = False
        self._round_ordinal = 0
        if audit is None:
            audit = audit_enabled_by_default()
        self.auditor: ClusterAuditor | None = ClusterAuditor(self) if audit else None
        if self.auditor is not None:
            self.stats.audit = self.auditor.report
        if faults is None:
            faults = fault_plan_by_default()
        self.fault_controller: FaultController | None = (
            FaultController(self, faults) if faults is not None else None
        )
        if self.fault_controller is not None:
            self.stats.faults = self.fault_controller.stats

    # ----------------------------------------------------------- utilities

    def hash_function(self, index: int, buckets: int | None = None) -> HashFunction:
        """The ``index``-th hash function of the cluster's family."""
        return self._hash_family.function(index, buckets if buckets is not None else self.p)

    def map_servers(self, task: str, payloads: Sequence[object], common: object = None) -> list:
        """Run a registered task over per-server payloads via the backend.

        ``payloads[i]`` is server i's input (usually built from fragments
        the caller just took); the result list is index-aligned with the
        payloads regardless of backend. The ``process`` backend splits
        the list into one contiguous chunk per worker — worker w computes
        for the servers of its range — and merges in chunk order, so the
        result is byte-identical to the inline single-chunk run.
        """
        return self.backend.map_payloads(task, list(payloads), common, stats=self.stats.exec)

    def map_servers_batch(
        self, calls: Sequence[tuple[str, Sequence[object], object]]
    ) -> list[list]:
        """Run several *independent* task maps as one backend dispatch.

        ``calls[k] = (task, payloads, common)``; the result is
        call-aligned, each entry what :meth:`map_servers` would have
        returned for that call alone. The calls must not read each
        other's results — the process backend ships the whole batch as a
        single queue message per worker, collapsing k round-trips into
        one (visible as ``ExecStats.queue_messages`` growing by at most
        the worker count instead of k × worker count).
        """
        return self.backend.map_payload_batch(
            [(task, list(payloads), common) for task, payloads, common in calls],
            stats=self.stats.exec,
        )

    def owning_worker(self, sid: int) -> int:
        """The backend worker whose contiguous server range contains ``sid``.

        Always 0 for the inline backend (one chunk). Used by the fault
        layer to attribute fault events to the worker that computes for
        the struck server.
        """
        if not 0 <= sid < self.p:
            raise ClusterError(f"server {sid} out of range [0, {self.p})")
        workers = getattr(self.backend, "workers", 1)
        for index, (start, stop) in enumerate(chunk_bounds(self.p, workers)):
            if start <= sid < stop:
                return index
        return 0  # pragma: no cover - bounds always cover [0, p)

    def round(self, label: str) -> RoundContext:
        """Open a communication round. Use as a context manager."""
        return self._open_round(label, charged=True)

    def free_round(self, label: str) -> RoundContext:
        """A round whose communication is *not* charged (initial placement).

        The MPC model grants the initial O(IN/p) distribution for free;
        this provides the same mechanics as :meth:`round` but records a
        zero-load entry in the statistics (and ignores ``load_cap``).
        """
        return self._open_round(label, charged=False)

    def _open_round(self, label: str, charged: bool) -> RoundContext:
        if self._in_round:
            raise ClusterError("rounds cannot be nested")
        self._in_round = True
        rnd = RoundContext(self, label, charged=charged)
        rnd.ordinal = self._round_ordinal
        self._round_ordinal += 1
        return rnd

    def _finish_round(self, rnd: RoundContext) -> None:
        """The barrier: enforce the cap, deliver, record, audit.

        The cap is checked *before* delivery so a rejected round cannot
        corrupt server state; its stats are still recorded (marked
        undelivered) for post-mortem inspection. ``_in_round`` is
        released on every path so a failure never wedges the cluster.
        """
        try:
            rnd._closed = True
            stats = rnd._make_stats()
            violation = rnd._cap_violation()
            if violation is not None:
                sid, got = violation
                stats.delivered = False
                self.stats.rounds.append(stats)
                if self.auditor is not None:
                    self.auditor.record_rejected(rnd, stats)
                assert self.load_cap is not None
                raise LoadExceededError(sid, got, self.load_cap)
            # Faults strike after the cap admitted the round and before
            # the audit snapshot: recovery completes within the barrier,
            # so the auditor sees a state satisfying every invariant.
            if self.fault_controller is not None:
                self.fault_controller.before_delivery(rnd, rnd.ordinal)
            before = c_before = None
            if self.auditor is not None:
                before = self.auditor.snapshot()
                c_before = self.stats.total_communication
            rnd._deliver_buffers()
            self.stats.rounds.append(stats)
            if self.auditor is not None:
                assert before is not None and c_before is not None
                self.auditor.after_delivery(rnd, stats, before, c_before)
            if self.fault_controller is not None:
                self.fault_controller.after_delivery(rnd, rnd.ordinal)
        finally:
            self._in_round = False

    def _abort_round(self, rnd: RoundContext) -> None:
        """Abandon a round after an exception inside its block.

        Pending sends are discarded — nothing is delivered or charged.
        Local fragment mutations made inside the block (``take``/``put``)
        are *not* rolled back; the guarantee is that the cluster's round
        lifecycle and accounting stay consistent and usable.
        """
        rnd._closed = True
        rnd.aborted = True
        rnd._buffers = [{} for _ in range(self.p)]
        rnd._column_buffers = [{} for _ in range(self.p)]
        self.stats.aborted += 1
        if self.auditor is not None:
            self.auditor.record_abort(rnd)
        self._in_round = False

    # ------------------------------------------------------- data placement

    def scatter(self, relation: Relation, name: str | None = None) -> str:
        """Place a relation round-robin across servers (free, per the model).

        Returns the fragment name used (``relation.name`` by default).
        """
        fragment = name if name is not None else relation.name
        columns = relation.columns() if kernels_enabled() else None
        self.scatter_rows(relation.rows_readonly(), fragment, columns=columns)
        return fragment

    def scatter_rows(
        self,
        rows: Sequence[Row],
        name: str,
        columns: Sequence[np.ndarray] | None = None,
    ) -> str:
        """Place raw rows round-robin across servers (free).

        Sliced placement (``rows[s::p]`` to server ``s``) — identical
        assignment to the ``i % p`` loop, p list slices instead of n
        Python-level appends. When a columnar view of ``rows`` is
        available its matching slices are attached as a column side-car
        (only on servers whose fragment was empty, so the side-car always
        covers the full stored row list).
        """
        for s in range(self.p):
            chunk = rows[s :: self.p]
            if chunk:
                target = self.servers[s].fragment(name)
                fresh = not target
                target.extend(chunk)
                if columns is not None and fresh:
                    self.servers[s].put_columns(
                        name,
                        tuple(range(len(columns))),
                        [c[s :: self.p] for c in columns],
                    )
                if self.fault_controller is not None:
                    self.fault_controller.on_scatter_chunk(s, name, chunk)
        return name

    def gather(self, fragment: str) -> list[Row]:
        """All rows of a fragment across servers, in server order.

        Gathering is an *inspection* helper for tests and result
        collection; it is not charged as communication (the model's output
        convention: results may stay distributed).

        The returned list is always a *fresh copy*, never a live server
        storage list — callers may append to, sort, or clear it without
        corrupting any fragment, even when a single server holds the
        whole fragment. (Mirrors the ``Relation.rows()`` contract; the
        mutation-guard regression suite pins this down.)
        """
        out: list[Row] = []
        for server in self.servers:
            out.extend(server.get(fragment))
        return out

    def gather_relation(self, fragment: str, name: str, attributes: Sequence[str]) -> Relation:
        """Gather a fragment into a :class:`Relation`.

        The gathered list is adopted without re-checking arities: every
        row in a fragment store was arity-checked when its relation was
        built (delivery only moves tuples between fragments).
        """
        return Relation.wrap(name, attributes, self.gather(fragment))

    def drop(self, fragment: str) -> None:
        """Delete a fragment on every server."""
        for server in self.servers:
            server.drop(fragment)

    def fragment_sizes(self, fragment: str) -> list[int]:
        """Per-server sizes of one fragment."""
        return [len(server.get(fragment)) for server in self.servers]

    def __repr__(self) -> str:
        return f"Cluster(p={self.p}, {self.stats.summary()})"


def combine_sequential(
    p_total: int, runs: Sequence[RunStats], audit: bool = False
) -> RunStats:
    """Combine stats of algorithm phases run *one after another*.

    Multi-round plans (iterative binary joins, GYM) execute phases in
    sequence on the same servers: rounds concatenate, ``L`` is the max
    over phases, ``C`` the sum. With ``audit=True`` the combination
    arithmetic is re-checked (:func:`repro.mpc.audit.verify_combined`).
    """
    combined = RunStats(p_total)
    for run in runs:
        combined.rounds.extend(run.rounds)
        combined.aborted += run.aborted
    combined.audit = AuditReport.merged(
        run.audit for run in runs if run.audit is not None
    )
    combined.faults = FaultStats.merged(
        run.faults for run in runs if run.faults is not None
    )
    combined.exec = ExecStats.merged([run.exec for run in runs])
    combined.memo = MemoStats.merged([run.memo for run in runs])
    if audit:
        from repro.mpc.audit import verify_combined

        verify_combined(combined, runs, parallel=False)
    return combined


def combine_parallel(
    p_total: int, runs: Sequence[RunStats], audit: bool = False
) -> RunStats:
    """Combine stats of algorithms run *in parallel on disjoint servers*.

    SkewHC runs each residual query on its own exclusive sub-cluster; in
    the MPC model those executions happen simultaneously. The combined
    cost has ``r = max rounds``, per-round ``L = max over sub-runs`` and
    ``C = Σ``. Rounds are aligned by index (undelivered — cap-rejected —
    sub-rounds are excluded: they moved nothing).

    With ``audit=True`` the sub-cluster sizes must partition ``p_total``
    (:func:`repro.mpc.audit.verify_partition`) and the combination
    arithmetic is re-checked. This is opt-in rather than tied to the
    ambient audit default because some callers (the parallel sort join)
    intentionally account heavy-value fallback servers on top of ``p``.
    """
    if audit:
        from repro.mpc.audit import verify_partition

        verify_partition(p_total, runs)
    combined = RunStats(p_total)
    combined.aborted = sum(run.aborted for run in runs)
    sequences = [[rd for rd in run.rounds if rd.delivered] for run in runs]
    depth = max((len(seq) for seq in sequences), default=0)
    for i in range(depth):
        received: list[int] = []
        labels: list[str] = []
        for seq in sequences:
            if i < len(seq):
                received.extend(seq[i].received)
                labels.append(seq[i].label)
        combined.rounds.append(RoundStats("+".join(dict.fromkeys(labels)), received))
    combined.audit = AuditReport.merged(
        run.audit for run in runs if run.audit is not None
    )
    combined.faults = FaultStats.merged(
        run.faults for run in runs if run.faults is not None
    )
    combined.exec = ExecStats.merged([run.exec for run in runs])
    combined.memo = MemoStats.merged([run.memo for run in runs])
    if audit:
        from repro.mpc.audit import verify_combined

        verify_combined(combined, runs, parallel=True)
    return combined
