"""``python -m repro selftest`` — the repo-wide correctness gate.

One command that differentially validates all sixteen algorithm entry
points against the single-node oracle on a budget of randomized
instances (uniform, Zipf-skewed, graph-shaped), runs the metamorphic
checks on a sample of them, and verifies the analytic-bound conformance
(load formulas and the AGM output bound). Exit status 0 means every
check passed; the report table lists per-algorithm outcomes either way.

Intended uses:

- CI gate: ``python -m repro selftest`` (defaults: 120 instances);
- quick local smoke: ``python -m repro selftest --instances 16``;
- debugging one algorithm: ``python -m repro selftest --algorithm
  skew_join --verbose``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.testing.differential import (
    ALGORITHMS,
    DifferentialReport,
    algorithm,
    generate_instances,
    run_differential,
)
from repro.testing.properties import PropertyResult, run_metamorphic


@dataclass
class SelftestReport:
    """Everything one selftest run measured."""

    differential: DifferentialReport
    metamorphic: list[PropertyResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.differential.ok and all(r.ok for r in self.metamorphic)

    @property
    def failures(self) -> list[str]:
        lines = [r.describe() for r in self.differential.failures]
        lines += [r.describe() for r in self.metamorphic if not r.ok]
        return lines

    def summary_table(self) -> str:
        """Per-algorithm rollup of the differential sweep."""
        header = (
            f"{'algorithm':<24} {'runs':>5} {'output':>7} {'agm':>5} "
            f"{'load':>5} {'maxL':>6} {'claim-use':>10}"
        )
        lines = [header, "-" * len(header)]
        for name, records in sorted(self.differential.by_algorithm().items()):
            out_ok = sum(1 for r in records if r.output_ok)
            agm_ok = sum(1 for r in records if r.agm_ok)
            load_ok = sum(1 for r in records if r.load_ok)
            max_load = max((r.max_load for r in records), default=0)
            ratios = [r.claim.ratio(r.max_load) for r in records if r.claim is not None]
            worst = max(ratios, default=0.0)
            lines.append(
                f"{name:<24} {len(records):>5} {out_ok:>3}/{len(records):<3} "
                f"{agm_ok:>5} {load_ok:>5} {max_load:>6} {worst:>9.0%}"
            )
        meta_ok = sum(1 for r in self.metamorphic if r.ok)
        lines.append("-" * len(header))
        lines.append(
            f"instances={self.differential.instances} "
            f"executions={len(self.differential.records)} "
            f"metamorphic={meta_ok}/{len(self.metamorphic)} "
            f"verdict={'PASS' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def run_selftest(
    instances: int = 120,
    seed: int = 0,
    kinds: list[str] | None = None,
    algorithms: list[str] | None = None,
    metamorphic_every: int = 8,
    monotonic_every: int = 24,
    audit: bool = True,
    verbose: bool = False,
    kernels: bool | None = None,
    faults: bool = False,
    backend: str | None = None,
) -> SelftestReport:
    """Run the whole harness under one instance budget.

    Every instance goes through the differential sweep; every
    ``metamorphic_every``-th also gets the metamorphic checks and every
    ``monotonic_every``-th the (4-run) load-monotonicity ladder, keeping
    the total execution count proportional to the budget. ``kernels``
    forces the columnar kernels on or off for the whole run (``None``
    keeps the ambient ``REPRO_KERNELS`` setting); ``backend`` does the
    same for the execution backend (``REPRO_BACKEND``).
    ``faults=True`` runs every differential execution under a
    reproducible randomized :class:`~repro.mpc.faults.FaultPlan` with
    recovery enabled and demands the same outputs, loads, and clean
    audits as a fault-free run (metamorphic checks are skipped in this
    mode — their re-runs vary ``p`` and seeds, which would change the
    plans mid-comparison).
    """
    from repro.exec.config import use_backend
    from repro.kernels.config import use_kernels

    with use_kernels(kernels), use_backend(backend):
        return _run_selftest(
            instances, seed, kinds, algorithms,
            0 if faults else metamorphic_every,
            0 if faults else monotonic_every,
            audit, verbose, faults,
        )


def _run_selftest(
    instances: int,
    seed: int,
    kinds: list[str] | None,
    algorithms: list[str] | None,
    metamorphic_every: int,
    monotonic_every: int,
    audit: bool,
    verbose: bool,
    faults: bool = False,
) -> SelftestReport:
    cases = (
        ALGORITHMS
        if algorithms is None
        else tuple(algorithm(name) for name in algorithms)
    )
    workload = generate_instances(instances, seed=seed, kinds=kinds)

    def narrate(record) -> None:
        if verbose:
            print(record.describe())

    differential = run_differential(
        workload, cases, audit=audit, faults=faults,
        on_record=narrate if verbose else None,
    )

    metamorphic: list[PropertyResult] = []
    if metamorphic_every:
        sample = workload[::metamorphic_every]
        metamorphic += run_metamorphic(sample, cases, monotonicity=False)
    if monotonic_every:
        sample = workload[::monotonic_every]
        metamorphic += run_metamorphic(sample, cases, checks=(), monotonicity=True)
    if verbose:
        for result in metamorphic:
            print(result.describe())
    return SelftestReport(differential, metamorphic)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro selftest",
        description="Differentially validate every MPC algorithm against the oracle.",
    )
    parser.add_argument("--instances", type=int, default=120,
                        help="randomized instance budget (default 120)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--kinds", nargs="*", default=None,
                        help="restrict instance kinds (two_way triangle path "
                             "star product sort band matmul)")
    parser.add_argument("--algorithm", action="append", dest="algorithms",
                        default=None, help="restrict to one entry point "
                        "(repeatable)")
    parser.add_argument("--no-metamorphic", action="store_true",
                        help="skip the metamorphic checks")
    parser.add_argument("--no-audit", action="store_true",
                        help="skip the cluster conservation audits")
    parser.add_argument("--verbose", action="store_true",
                        help="print every record as it completes")
    parser.add_argument("--kernels", choices=("on", "off", "both"), default=None,
                        help="force the columnar kernels on/off, or run the "
                             "sweep under both modes and cross-check loads "
                             "(default: ambient REPRO_KERNELS setting)")
    parser.add_argument("--faults", action="store_true",
                        help="run every execution under a reproducible "
                             "randomized fault plan (crashes, stragglers, "
                             "channel faults) with recovery enabled; outputs "
                             "and audits must match the fault-free contract")
    parser.add_argument("--backend", choices=("inline", "process", "both"),
                        default=None,
                        help="force the execution backend, or run the sweep "
                             "under both backends and cross-check outputs, "
                             "loads, and rounds (default: ambient "
                             "REPRO_BACKEND setting)")
    parser.add_argument("--service", action="store_true",
                        help="validate every entry point under concurrent "
                             "execution instead: the full sweep runs once "
                             "serially (audits on) and once across "
                             "--threads barrier-started threads, and every "
                             "concurrent result must be byte-identical to "
                             "its serial twin (see repro.testing.service)")
    parser.add_argument("--threads", type=int, default=4,
                        help="thread count for --service (default 4)")
    parser.add_argument("--planner", action="store_true",
                        help="validate the cost-based optimizer instead: "
                             "auto-planned output must be byte-identical to "
                             "the oracle and to the forced chosen strategy, "
                             "and measured L_max must sit within each "
                             "prediction's constant envelope (see "
                             "repro.testing.planner)")
    args = parser.parse_args(argv)

    if args.service:
        from repro.testing.service import run_service_selftest

        kernels_mode = {"on": True, "off": False, "both": None, None: None}[
            args.kernels
        ]
        backend_mode = None if args.backend == "both" else args.backend
        from repro.exec.config import use_backend
        from repro.kernels.config import use_kernels

        with use_kernels(kernels_mode), use_backend(backend_mode):
            report = run_service_selftest(
                instances=args.instances if args.instances != 120 else 24,
                threads=args.threads, seed=args.seed, kinds=args.kinds,
                verbose=args.verbose,
            )
        print(report.summary_table())
        if not report.ok:
            print("\nfailures:", file=sys.stderr)
            for line in report.failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        return 0

    if args.planner:
        from repro.testing.planner import run_planner_selftest

        if args.kernels == "both" or args.backend == "both":
            status = 0
            modes = (
                [(True, None), (False, None)] if args.kernels == "both"
                else [(None, "inline"), (None, "process")]
            )
            for kernels_mode, backend_mode in modes:
                label = (
                    f"kernels {'on' if kernels_mode else 'off'}"
                    if backend_mode is None else f"backend {backend_mode}"
                )
                print(f"=== planner / {label} ===")
                report = run_planner_selftest(
                    instances=args.instances, seed=args.seed,
                    kinds=args.kinds, verbose=args.verbose,
                    kernels=kernels_mode, backend=backend_mode,
                )
                print(report.summary_table())
                if not report.ok:
                    for record in report.failures:
                        print(f"  {record.describe()}", file=sys.stderr)
                    status = 1
            return status
        kernels_mode = {"on": True, "off": False, None: None}[args.kernels]
        report = run_planner_selftest(
            instances=args.instances, seed=args.seed, kinds=args.kinds,
            verbose=args.verbose, kernels=kernels_mode,
            backend=args.backend,
        )
        print(report.summary_table())
        if not report.ok:
            print("\nfailures:", file=sys.stderr)
            for record in report.failures:
                print(f"  {record.describe()}", file=sys.stderr)
            return 1
        return 0

    def run(kernels: bool | None, backend: str | None) -> SelftestReport:
        return run_selftest(
            instances=args.instances,
            seed=args.seed,
            kinds=args.kinds,
            algorithms=args.algorithms,
            metamorphic_every=0 if args.no_metamorphic else 8,
            monotonic_every=0 if args.no_metamorphic else 24,
            audit=not args.no_audit,
            verbose=args.verbose,
            kernels=kernels,
            faults=args.faults,
            backend=backend,
        )

    def report_failures(report: SelftestReport) -> None:
        print("\nfailures:", file=sys.stderr)
        for line in report.failures:
            print(f"  {line}", file=sys.stderr)

    # The sweep is the cell product of every axis given as "both": up to
    # the full kernels x backend 2x2 grid. Every cell must pass on its
    # own, then cells differing in exactly one axis are compared
    # pairwise: the kernels axis must preserve model costs (loads), the
    # backend axis full observational identity (outputs, loads, and
    # rounds).
    kernels_cells: list[bool | None] = (
        [True, False] if args.kernels == "both"
        else [{"on": True, "off": False, None: None}[args.kernels]]
    )
    backend_cells: list[str | None] = (
        ["inline", "process"] if args.backend == "both" else [args.backend]
    )
    cells = [
        (kernels, backend)
        for kernels in kernels_cells
        for backend in backend_cells
    ]

    if len(cells) == 1:
        report = run(*cells[0])
        print(report.summary_table())
        if not report.ok:
            report_failures(report)
            return 1
        return 0

    def cell_label(kernels: bool | None, backend: str | None) -> str:
        parts = []
        if args.kernels == "both":
            parts.append(f"kernels {'on' if kernels else 'off'}")
        if args.backend == "both":
            parts.append(str(backend))
        return " / ".join(parts)

    status = 0
    reports: dict[tuple, SelftestReport] = {}
    for cell in cells:
        print(f"=== {cell_label(*cell)} ===")
        report = run(*cell)
        reports[cell] = report
        print(report.summary_table())
        if not report.ok:
            report_failures(report)
            status = 1

    def check(drift: list[str], title: str) -> None:
        nonlocal status
        if drift:
            print(f"\n{title}:", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            status = 1

    if args.kernels == "both":
        for backend in backend_cells:
            held = f" ({backend})" if args.backend == "both" else ""
            check(
                cross_mode_drift(reports[(True, backend)], reports[(False, backend)]),
                "kernels on/off drift" + held,
            )
    if args.backend == "both":
        for kernels in kernels_cells:
            held = (
                f" (kernels {'on' if kernels else 'off'})"
                if args.kernels == "both" else ""
            )
            check(
                cross_backend_drift(
                    reports[(kernels, "inline")], reports[(kernels, "process")]
                ),
                "inline/process drift" + held,
            )

    if status == 0:
        swept = [
            name for name, flag in (
                ("kernels", args.kernels == "both"),
                ("backend", args.backend == "both"),
            ) if flag
        ]
        print("no cross-mode drift across the full "
              + " x ".join(swept) + " sweep")
    return status


def cross_mode_drift(
    on: SelftestReport, off: SelftestReport
) -> list[str]:
    """Differences in model-visible cost between the two kernel modes.

    The kernels must not change what the simulator *measures* — compare
    the per-execution ``(algorithm, max_load)`` sequences of two sweeps
    over the same workload.
    """
    on_records = on.differential.records
    off_records = off.differential.records
    if len(on_records) != len(off_records):
        return [
            f"execution counts differ: {len(on_records)} with kernels on, "
            f"{len(off_records)} off"
        ]
    return [
        f"{a.algorithm}: max_load {a.max_load} with kernels on, {b.max_load} off"
        for a, b in zip(on_records, off_records)
        if a.algorithm != b.algorithm or a.max_load != b.max_load
    ]


def cross_backend_drift(
    inline: SelftestReport, process: SelftestReport
) -> list[str]:
    """Differences between the inline and process execution backends.

    The backends must be observationally identical, not just load-equal:
    every execution is compared on output size, max load, *and* round
    count (output contents are already differentially validated against
    the oracle inside each sweep, so equal sizes + both oracle-exact
    means equal multisets).
    """
    return observational_drift(inline, process, "inline", "process")


def observational_drift(
    a_report: SelftestReport, b_report: SelftestReport,
    a_label: str, b_label: str,
) -> list[str]:
    """Full per-execution (out_size, max_load, rounds) comparison."""
    a_records = a_report.differential.records
    b_records = b_report.differential.records
    if len(a_records) != len(b_records):
        return [
            f"execution counts differ: {len(a_records)} {a_label}, "
            f"{len(b_records)} {b_label}"
        ]
    drift = []
    for a, b in zip(a_records, b_records):
        if a.algorithm != b.algorithm or a.instance != b.instance:
            drift.append(
                f"sweep order diverged: {a.algorithm}/{a.instance} {a_label} "
                f"vs {b.algorithm}/{b.instance} {b_label}"
            )
        elif (a.out_size, a.max_load, a.rounds) != (
            b.out_size, b.max_load, b.rounds
        ):
            drift.append(
                f"{a.algorithm} on {a.instance}: "
                f"(out={a.out_size}, L={a.max_load}, rounds={a.rounds}) "
                f"{a_label} vs (out={b.out_size}, L={b.max_load}, "
                f"rounds={b.rounds}) {b_label}"
            )
    return drift


if __name__ == "__main__":
    raise SystemExit(main())
