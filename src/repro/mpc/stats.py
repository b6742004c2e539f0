"""Cost accounting for MPC runs.

The tutorial measures exactly two quantities (slide 20):

- ``L`` — the maximum communication load of any server in any round
  (tuples *received* per server per round);
- ``r`` — the number of rounds.

We additionally track total communication ``C = Σ loads`` (used in the
matrix-multiplication section, where ``C = p · r · L`` up to balance) and
the per-round load distribution, so experiments can report realized skew.

Lifecycle bookkeeping
---------------------

A :class:`RoundStats` entry is recorded for every round that reached the
barrier, including one rejected by the load cap: such an entry carries
``delivered=False`` and is *excluded* from the ``L``/``r``/``C``
aggregates (nothing was communicated) while staying inspectable in
``rounds``. Rounds aborted by an exception inside the ``with`` block
never reach the barrier; they only bump :attr:`RunStats.aborted`.

When the owning cluster was created with ``audit=True``, the
:attr:`RunStats.audit` field holds the live
:class:`~repro.mpc.audit.AuditReport` of invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.kernels.memo import MemoStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpc.audit import AuditReport
    from repro.mpc.faults import FaultStats


@dataclass
class RoundStats:
    """Loads of one communication round.

    ``delivered`` is ``False`` for a round rejected by the load cap at
    the barrier: its attempted loads are recorded for post-mortem
    inspection but nothing actually moved.
    """

    label: str
    received: list[int]
    delivered: bool = True

    @property
    def max_load(self) -> int:
        """L of this round: maximum tuples received by any server."""
        return max(self.received) if self.received else 0

    @property
    def total(self) -> int:
        """Total tuples communicated in this round."""
        return sum(self.received)

    @property
    def mean_load(self) -> float:
        return self.total / len(self.received) if self.received else 0.0

    @property
    def imbalance(self) -> float:
        """max / mean load — 1.0 means perfectly balanced."""
        mean = self.mean_load
        return self.max_load / mean if mean else 0.0

    def __repr__(self) -> str:
        flag = "" if self.delivered else ", undelivered"
        return (
            f"RoundStats({self.label!r}, L={self.max_load}, "
            f"total={self.total}, imbalance={self.imbalance:.2f}{flag})"
        )


@dataclass
class ExecStats:
    """Execution-backend accounting, mergeable across workers and runs.

    Counters cover only work dispatched through the backend layer
    (:meth:`repro.mpc.cluster.Cluster.map_servers`); purely inline loops
    that never cross it cost nothing and appear nowhere. ``worker_seconds``
    is the summed in-worker wall time of all chunks — with w workers
    running concurrently it can legitimately exceed the coordinator's
    elapsed time, which is exactly the parallelism being measured.
    """

    backend: str = "inline"
    workers: int = 1
    transport: str = "none"
    protocol: str = "none"  # dispatch protocol label: resident | snapshot
    dispatches: int = 0  # map_servers / batch calls routed through the backend
    chunks: int = 0  # worker jobs (== dispatches for inline)
    items: int = 0  # per-server payloads processed
    shm_bytes_out: int = 0  # array bytes shipped coordinator -> workers
    shm_bytes_in: int = 0  # array bytes shipped workers -> coordinator
    pickle_bytes_out: int = 0  # queue pickle bytes coordinator -> workers
    pickle_bytes_in: int = 0  # queue pickle bytes workers -> coordinator
    worker_seconds: float = 0.0
    fallbacks: int = 0  # process dispatches run inline (unpicklable payload)
    queue_messages: int = 0  # queue round-trips (batching collapses these)
    snapshot_dispatches: int = 0  # messages shipping a full payload snapshot
    resident_hits: int = 0  # blocks that traveled as tokens, not bytes
    resident_misses: int = 0  # cacheable blocks that had to ship
    resident_bytes_saved: int = 0  # bytes the resident hits did not re-ship
    fallback_dispatches: int = 0  # encodes where hot rows fell back to pickle

    # Every additive counter, in declaration order; merged()/delta() walk
    # this list so a new field cannot be silently dropped from either.
    _COUNTERS = (
        "dispatches", "chunks", "items",
        "shm_bytes_out", "shm_bytes_in",
        "pickle_bytes_out", "pickle_bytes_in",
        "worker_seconds", "fallbacks",
        "queue_messages", "snapshot_dispatches",
        "resident_hits", "resident_misses", "resident_bytes_saved",
        "fallback_dispatches",
    )

    @property
    def dispatch_bytes_out(self) -> int:
        """Total bytes a dispatch shipped coordinator -> workers."""
        return self.shm_bytes_out + self.pickle_bytes_out

    @property
    def dispatch_bytes_in(self) -> int:
        """Total bytes shipped workers -> coordinator."""
        return self.shm_bytes_in + self.pickle_bytes_in

    @property
    def bytes_per_message(self) -> "float | None":
        """Mean outbound bytes per queue message (bytes-per-round proxy).

        ``None`` when no queue message was ever sent (the inline backend,
        or a process run that never dispatched): a mean over zero
        messages is undefined, and the former ``0.0`` read as "messages
        were free" in traces and reports.
        """
        if not self.queue_messages:
            return None
        return self.dispatch_bytes_out / self.queue_messages

    @classmethod
    def merged(cls, parts: "list[ExecStats]") -> "ExecStats | None":
        """Combine per-run stats; labels come from the first part."""
        parts = [part for part in parts if part is not None]
        if not parts:
            return None
        total = cls(
            backend=parts[0].backend,
            workers=parts[0].workers,
            transport=parts[0].transport,
            protocol=parts[0].protocol,
        )
        for part in parts:
            for name in cls._COUNTERS:
                setattr(total, name, getattr(total, name) + getattr(part, name))
        return total

    def snapshot(self) -> "ExecStats":
        """A frozen copy of the current counters (for later delta())."""
        copied = ExecStats(
            backend=self.backend,
            workers=self.workers,
            transport=self.transport,
            protocol=self.protocol,
        )
        for name in self._COUNTERS:
            setattr(copied, name, getattr(self, name))
        return copied

    def delta(self, since: "ExecStats") -> "ExecStats":
        """Counters accumulated after ``since`` was snapshotted.

        The per-query accounting primitive: a long-lived service takes a
        snapshot before each query and reports the difference, so one
        query's report never includes bytes another query moved.
        """
        diff = ExecStats(
            backend=self.backend,
            workers=self.workers,
            transport=self.transport,
            protocol=self.protocol,
        )
        for name in self._COUNTERS:
            setattr(diff, name, getattr(self, name) - getattr(since, name))
        return diff


@dataclass
class RunStats:
    """Accumulated cost of a full MPC algorithm execution."""

    p: int
    rounds: list[RoundStats] = field(default_factory=list)
    aborted: int = 0
    audit: "AuditReport | None" = None
    faults: "FaultStats | None" = None
    exec: "ExecStats | None" = None
    memo: MemoStats = field(default_factory=MemoStats)

    @property
    def num_rounds(self) -> int:
        """r: rounds that actually communicated at least one tuple."""
        return sum(1 for r in self.rounds if r.delivered and r.total > 0)

    @property
    def max_load(self) -> int:
        """L: the max per-server per-round load over the whole run."""
        return max((r.max_load for r in self.rounds if r.delivered), default=0)

    @property
    def total_communication(self) -> int:
        """C: total tuples communicated over all rounds and servers."""
        return sum(r.total for r in self.rounds if r.delivered)

    def load_of(self, label: str) -> int:
        """Max load of the *delivered* round(s) with the given label.

        Cap-rejected rounds are excluded, consistent with every other
        aggregate: their attempted loads never moved a tuple, so counting
        them would report a load the algorithm did not realize.
        """
        loads = [
            r.max_load for r in self.rounds if r.label == label and r.delivered
        ]
        if not loads:
            raise KeyError(f"no delivered round labelled {label!r}")
        return max(loads)

    def summary(self) -> str:
        """One-line human-readable cost summary."""
        text = (
            f"p={self.p} r={self.num_rounds} L={self.max_load} "
            f"C={self.total_communication}"
        )
        if self.aborted:
            text += f" aborted={self.aborted}"
        rejected = sum(1 for r in self.rounds if not r.delivered)
        if rejected:
            text += f" rejected={rejected}"
        if self.faults is not None and self.faults.injected:
            text += f" faults={self.faults.injected}"
            if self.faults.unrecovered:
                text += f" unrecovered={self.faults.unrecovered}"
        if self.exec is not None and self.exec.backend != "inline":
            text += (
                f" backend={self.exec.backend}x{self.exec.workers}"
                f" chunks={self.exec.chunks}"
            )
            # None (no queue message ever sent) is reported as n/a, never
            # as a free-looking 0.
            bpm = self.exec.bytes_per_message
            text += f" bytes/msg={'n/a' if bpm is None else format(bpm, '.0f')}"
        return text

    def __repr__(self) -> str:
        return f"RunStats({self.summary()})"
