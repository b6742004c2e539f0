"""Per-layer diff of two traced benchmark results.

Usage::

    python3 perfbench/run.py --workload shuffle_cold --seed 1 --seconds 16 --trace 1 > base.txt
    # ... change the library ...
    python3 perfbench/run.py --workload shuffle_cold --seed 1 --seconds 16 --trace 1 > new.txt
    python3 perfbench/diff.py base.txt new.txt

Each file is a run's standard output (the ``# machine`` line and the
final JSON line are read; everything else is ignored). Self times are
listed first, sorted by absolute change, so when an end-to-end metric
moves the layer that moved it heads the list; counters and ratios
follow, sorted by relative change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> tuple[dict, dict]:
    """(machine info, metrics) of one saved run."""
    machine: dict = {}
    result = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# machine "):
            machine = json.loads(line[len("# machine "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        raise SystemExit(f"{path}: no result line")
    return machine, {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}


def rows(base: dict, new: dict) -> tuple[list, list]:
    """(self-time rows, other rows) as (name, unit, base, new, change)."""
    times, others = [], []
    for name in sorted(base.keys() & new.keys()):
        (old, unit), (value, _) = base[name], new[name]
        row = (name, unit, old, value, value - old)
        (times if name.endswith(".self_s") else others).append(row)
    times.sort(key=lambda r: -abs(r[4]))
    others.sort(key=lambda r: -(abs(r[4]) / abs(r[2]) if r[2] else (abs(r[4]) and float("inf"))))
    return times, others


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_machine, base), (new_machine, new) = load(argv[0]), load(argv[1])
    for key in ("workload", "cpu_count", "python", "numpy", "backend", "trace"):
        if base_machine.get(key) != new_machine.get(key):
            print(f"warning: {key} differs: {base_machine.get(key)!r} vs "
                  f"{new_machine.get(key)!r}")
    times, others = rows(base, new)
    for title, group in (("self time by layer", times), ("counters and ratios", others)):
        print(f"{title}:")
        for name, unit, old, value, change in group:
            share = f"{change / old:+8.1%}" if old else "     new" if change else "       ="
            print(f"  {name:34s} {old:12.6g} -> {value:12.6g} {unit:6s} {change:+12.6g} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
