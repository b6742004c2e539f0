"""Diff two BENCH files and flag wall-time regressions.

``compare_bench`` matches experiments by name and classifies each one:

- ``regressed`` — current time exceeds baseline by more than the
  threshold (default 20%), and the pair is above the noise floor;
- ``improved`` — current time beats baseline by more than the threshold;
- ``ok`` — within the threshold, or both runs under the noise floor
  (``min_seconds``), where ratios are dominated by timer jitter;
- ``missing`` — the baseline experiment did not run at all this time
  (treated as a failure: silently dropping a benchmark is how
  regressions hide);
- ``incomparable`` — the pair exists but no meaningful ratio can be
  formed (zero or negative recorded time against a measurement above
  the noise floor — a corrupt or hand-edited file). Also treated as a
  failure: a pair that cannot be checked must not pass silently;
- ``new`` — present now but not in the baseline (informational).

When both files carry an ``x7`` planner section, the same classification
is applied per ``(scenario, strategy)`` pair to the measured/predicted
load *ratio* (entries named ``x7:{scenario}/{strategy}``, unit ``x``):
a ratio drifting more than the threshold against the baseline means the
cost model and the executors moved apart and is flagged ``regressed``.

``x8`` (concurrent service) and ``x9`` (dispatch protocol) sections are
compared as *higher-is-better* quantities: per-arm throughput
(``x8:{arm}``, unit ``q/s``) and the resident-over-snapshot savings
ratios (``x9:{workload}/dispatch`` and ``x9:{workload}/pickle``, unit
``x``). For these a *drop* beyond the threshold is the regression — the
service got slower, or the protocol stopped saving what it used to.

Comparing files measured at different sizes (``--quick`` vs full) is
refused: the ratio would be meaningless. So is comparing files measured
under different execution backends (``machine.backend`` — inline vs a
process pool), unless ``force=True`` (CLI ``--force``): the wall-clock
difference would measure the backend, not the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["BenchComparison", "ComparisonEntry", "compare_bench"]


@dataclass(frozen=True)
class ComparisonEntry:
    """One experiment's baseline-vs-current verdict.

    ``unit`` is ``"s"`` for wall-time entries and ``"x"`` for the x7
    planner entries, whose compared quantity is the dimensionless
    measured/predicted load ratio (the field names keep ``seconds`` for
    compatibility; they hold whatever quantity ``unit`` says).
    """

    name: str
    baseline_seconds: float | None
    current_seconds: float | None
    status: str  # ok | improved | regressed | missing | incomparable | new
    unit: str = "s"

    @property
    def ratio(self) -> float | None:
        """current / baseline, when both sides exist and baseline > 0."""
        if (
            self.baseline_seconds is None
            or self.baseline_seconds <= 0
            or self.current_seconds is None
        ):
            return None
        return self.current_seconds / self.baseline_seconds


@dataclass
class BenchComparison:
    """All per-experiment verdicts of one baseline/current diff."""

    threshold: float
    min_seconds: float
    entries: list[ComparisonEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[ComparisonEntry]:
        return [
            e
            for e in self.entries
            if e.status in ("regressed", "missing", "incomparable")
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format_table(self) -> str:
        header = f"{'experiment':<22} {'baseline':>9} {'current':>9} {'ratio':>7}  status"
        lines = [header, "-" * len(header)]
        for e in self.entries:
            base = (
                f"{e.baseline_seconds:.3f}{e.unit}"
                if e.baseline_seconds is not None else "-"
            )
            cur = (
                f"{e.current_seconds:.3f}{e.unit}"
                if e.current_seconds is not None else "-"
            )
            ratio = f"{e.ratio:.2f}x" if e.ratio is not None else "-"
            lines.append(f"{e.name:<22} {base:>9} {cur:>9} {ratio:>7}  {e.status}")
        verdict = "PASS" if self.ok else f"FAIL ({len(self.regressions)} regressions)"
        lines.append("-" * len(header))
        lines.append(f"threshold=+{self.threshold:.0%} floor={self.min_seconds}s "
                     f"verdict={verdict}")
        return "\n".join(lines)


def _times_by_name(document: dict[str, Any]) -> dict[str, float]:
    return {
        record["name"]: float(record["seconds"])
        for record in document.get("experiments", [])
    }


def _x7_ratios_by_pair(document: dict[str, Any]) -> dict[str, float]:
    """``x7:{scenario}/{strategy}`` -> measured/predicted load ratio."""
    return {
        f"x7:{record['name']}/{record['strategy']}": float(record["ratio"])
        for record in document.get("x7", [])
    }


def _x8_throughputs_by_arm(document: dict[str, Any]) -> dict[str, float]:
    """``x8:{arm}`` -> queries per second (higher is better)."""
    return {
        f"x8:{record['name']}": float(record["queries_per_second"])
        for record in document.get("x8", [])
    }


def _x9_ratios_by_workload(document: dict[str, Any]) -> dict[str, float]:
    """``x9:{workload}/{quantity}`` -> snapshot/resident savings ratio.

    Both arm records of a workload carry the same pair ratios; reading
    the ``resident`` arm picks each exactly once.
    """
    ratios: dict[str, float] = {}
    for record in document.get("x9", []):
        if record.get("protocol") != "resident":
            continue
        ratios[f"x9:{record['name']}/dispatch"] = float(record["dispatch_ratio"])
        ratios[f"x9:{record['name']}/pickle"] = float(record["pickle_ratio"])
    return ratios


def _backend_fingerprint(document: dict[str, Any]) -> tuple[str, int]:
    """(backend, workers) a BENCH file was measured under.

    Files written before the backend layer carry no ``machine.backend``;
    they were necessarily measured inline, so that is the default.
    """
    machine = document.get("machine") or {}
    return (machine.get("backend", "inline"), machine.get("workers", 1))


def compare_bench(
    baseline: dict[str, Any],
    current: dict[str, Any],
    threshold: float = 0.20,
    min_seconds: float = 0.05,
    force: bool = False,
) -> BenchComparison:
    """Classify every experiment of ``baseline``/``current`` (see module doc)."""
    if baseline.get("quick") != current.get("quick"):
        raise ValueError(
            "refusing to compare BENCH files at different sizes: "
            f"baseline quick={baseline.get('quick')}, "
            f"current quick={current.get('quick')}"
        )
    base_backend = _backend_fingerprint(baseline)
    cur_backend = _backend_fingerprint(current)
    if base_backend != cur_backend and not force:
        raise ValueError(
            "refusing to compare BENCH files from different execution "
            f"backends: baseline {base_backend[0]} (workers="
            f"{base_backend[1]}), current {cur_backend[0]} (workers="
            f"{cur_backend[1]}); pass --force to diff anyway"
        )
    base_times = _times_by_name(baseline)
    cur_times = _times_by_name(current)
    comparison = BenchComparison(threshold=threshold, min_seconds=min_seconds)
    for name, base_s in base_times.items():
        if name not in cur_times:
            comparison.entries.append(
                ComparisonEntry(name, base_s, None, "missing")
            )
            continue
        cur_s = cur_times[name]
        if base_s < min_seconds and cur_s < min_seconds:
            status = "ok"  # both under the noise floor
        elif base_s <= 0 or cur_s <= 0:
            # No ratio can be formed: a genuine measurement is never
            # exactly zero (and negative means a corrupt file), while the
            # other side is above the noise floor. Flag it instead of
            # letting it fall through as "ok".
            status = "incomparable"
        elif cur_s > base_s * (1 + threshold):
            status = "regressed"
        elif cur_s < base_s / (1 + threshold):
            status = "improved"
        else:
            status = "ok"
        comparison.entries.append(ComparisonEntry(name, base_s, cur_s, status))
    for name, cur_s in cur_times.items():
        if name not in base_times:
            comparison.entries.append(ComparisonEntry(name, None, cur_s, "new"))
    # x7 planner entries: compare the measured/predicted load ratio per
    # (scenario, strategy) pair. The quantity is dimensionless and
    # deterministic at the committed seeds — no noise floor applies; a
    # drift beyond the threshold means the cost model's predictions
    # genuinely moved against the executors (or vice versa).
    base_x7 = _x7_ratios_by_pair(baseline)
    cur_x7 = _x7_ratios_by_pair(current)
    for name, base_r in base_x7.items():
        if name not in cur_x7:
            comparison.entries.append(
                ComparisonEntry(name, base_r, None, "missing", unit="x")
            )
            continue
        cur_r = cur_x7[name]
        if base_r <= 0 or cur_r <= 0:
            # A genuine ratio is strictly positive (predicted and
            # measured loads both are); zero or negative means a corrupt
            # or hand-edited file and must not pass silently.
            status = "incomparable"
        elif cur_r > base_r * (1 + threshold):
            status = "regressed"
        elif cur_r < base_r / (1 + threshold):
            status = "improved"
        else:
            status = "ok"
        comparison.entries.append(
            ComparisonEntry(name, base_r, cur_r, status, unit="x")
        )
    for name, cur_r in cur_x7.items():
        if name not in base_x7:
            comparison.entries.append(
                ComparisonEntry(name, None, cur_r, "new", unit="x")
            )
    # x8 throughput and x9 protocol-savings entries: higher is better,
    # so the classification flips — a drop beyond the threshold is the
    # regression. Both quantities are strictly positive in a genuine
    # file; zero or negative on either side is flagged, not skipped.
    for higher_better, unit in (
        (( _x8_throughputs_by_arm(baseline), _x8_throughputs_by_arm(current)),
         "q/s"),
        ((_x9_ratios_by_workload(baseline), _x9_ratios_by_workload(current)),
         "x"),
    ):
        base_values, cur_values = higher_better
        for name, base_v in base_values.items():
            if name not in cur_values:
                comparison.entries.append(
                    ComparisonEntry(name, base_v, None, "missing", unit=unit)
                )
                continue
            cur_v = cur_values[name]
            if base_v <= 0 or cur_v <= 0:
                status = "incomparable"
            elif cur_v < base_v / (1 + threshold):
                status = "regressed"
            elif cur_v > base_v * (1 + threshold):
                status = "improved"
            else:
                status = "ok"
            comparison.entries.append(
                ComparisonEntry(name, base_v, cur_v, status, unit=unit)
            )
        for name, cur_v in cur_values.items():
            if name not in base_values:
                comparison.entries.append(
                    ComparisonEntry(name, None, cur_v, "new", unit=unit)
                )
    return comparison
