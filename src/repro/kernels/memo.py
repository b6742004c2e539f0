"""Kernel work counters: hashed rows and fused HyperCube payloads.

``hash_ops`` counts rows x hashed dimensions pushed through the bucket
kernels (:func:`count_hash_ops`, charged by ``try_route`` /
``try_route_grid``); ``fused_payloads`` counts HyperCube local
evaluations fed routed column blocks directly (:func:`count_fused`).
Every bump lands on the run's ``RunStats.memo`` record and on the
process-wide :data:`GLOBAL` mirror, which tools snapshot and delta to
measure whole workloads.

Nothing is cached across rounds or queries. The cache hit, miss and
saved counters, :func:`memo_enabled` and :func:`clear_memo` are constant
stand-ins kept only because ``perfbench/`` still reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpc.cluster import RoundContext


def memo_enabled() -> bool:
    """Always ``False``: there are no caches to enable."""
    return False


def clear_memo() -> None:
    """No-op: there are no caches to clear."""


@dataclass
class MemoStats:
    """Kernel work counters, mergeable across runs."""

    fused_payloads: int = 0
    hash_ops: int = 0

    # merged()/snapshot()/delta() walk this list, so a new counter cannot
    # be silently dropped from any of them.
    _COUNTERS = ("fused_payloads", "hash_ops")

    # Always zero (nothing is cached); read by perfbench/.
    partition_hits = partition_misses = view_hits = view_misses = 0
    hash_ops_saved = 0

    @property
    def any_activity(self) -> bool:
        return any(getattr(self, name) for name in self._COUNTERS)

    @classmethod
    def merged(cls, parts: "list[MemoStats | None]") -> "MemoStats":
        total = cls()
        for part in parts:
            if part is None:
                continue
            for name in cls._COUNTERS:
                setattr(total, name, getattr(total, name) + getattr(part, name))
        return total

    def snapshot(self) -> "MemoStats":
        return MemoStats.merged([self])

    def delta(self, since: "MemoStats") -> "MemoStats":
        diff = MemoStats()
        for name in self._COUNTERS:
            setattr(diff, name, getattr(self, name) - getattr(since, name))
        return diff

    def summary(self) -> str:
        """One-line counter summary (appended to trace())."""
        return f"kernels: fused={self.fused_payloads} hash_ops={self.hash_ops}"


#: Process-wide mirror of every per-run counter bump.
GLOBAL = MemoStats()


def _bump(stats: "MemoStats | None", name: str, amount: int) -> None:
    if stats is not None:
        setattr(stats, name, getattr(stats, name) + amount)
    setattr(GLOBAL, name, getattr(GLOBAL, name) + amount)


def count_hash_ops(rnd: "RoundContext", ops: int) -> None:
    """Record bucket-kernel work done by try_route/try_route_grid."""
    cluster = getattr(rnd, "_cluster", None)
    memo = getattr(getattr(cluster, "stats", None), "memo", None)
    _bump(memo, "hash_ops", ops)


def count_fused(stats: "MemoStats | None", amount: int = 1) -> None:
    """Record fused scatter→join payloads (columns fed straight to eval)."""
    _bump(stats, "fused_payloads", amount)
