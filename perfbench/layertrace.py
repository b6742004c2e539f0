"""In-memory layer tracing for the traced benchmark run.

The benchmark attributes wall time to the library's layers without
editing them: :func:`install` wraps the public entry points of every
layer module (module-level functions and the public methods of classes
defined there) from the outside, and rebinds every reference to the
original function held in a ``repro`` module namespace, including
``from x import f`` copies and registry dicts such as the exec task
table.

A span is one call of a wrapped function, or one ``with cluster.round()``
block. Spans nest on a per-thread stack. A layer's *self time* is the
duration of its spans minus the time covered by their child spans, so
self times of all layers add up to the traced time spent inside the
library. Spans are aggregated as they close (per thread, merged on
read), never stored one by one: scalar hashing alone produces hundreds
of thousands of spans per operator.

Wrappers cost one flag test while the tracer is inactive, and nothing
at all before :func:`install` runs, which the benchmark calls only
after the untraced timed phase.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

# Layer of each library module: the longest matching module prefix wins.
# Modules not listed (configuration, generators, schemas, servers) are
# not wrapped; their time counts as self time of the calling layer.
LAYER_OF_MODULE: dict[str, str] = {
    "repro.mpc.hashing": "mpc.hashing",
    "repro.mpc.cluster": "mpc.cluster",
    "repro.kernels.hashing": "kernels.hashing",
    "repro.kernels.partition": "kernels.partition",
    "repro.kernels.join": "kernels.join",
    "repro.kernels.columnar": "kernels.columnar",
    "repro.kernels.splitters": "kernels.splitters",
    "repro.kernels.memo": "kernels.memo",
    "repro.joins.local": "joins.local",
    "repro.joins": "joins",
    "repro.sorting": "sorting",
    "repro.matmul": "matmul",
    "repro.multiway": "multiway",
    "repro.planner": "planner",
    "repro.query": "query",
    "repro.data.relation": "data.relation",
    "repro.data.warehouse": "data.warehouse",
    "repro.exec": "exec",
    "repro.service": "service",
    "repro.engine": "engine",
}

# Modules under a mapped prefix that are entry-point glue, not a layer.
SKIPPED_MODULES = ("repro.service.cli", "repro.exec.config")

# Dunder methods that are layer entry points.
DUNDER_ENTRY_POINTS = {("repro.mpc.hashing", "HashFunction", "__call__")}

# Public methods that block on other threads. A span around them would
# count waiting for a worker as the caller's self time.
BLOCKING_ENTRY_POINTS = {
    ("repro.service.service", "ServiceTicket", "result"),
    ("repro.service.service", "QueryService", "query"),
    ("repro.service.service", "QueryService", "drain"),
    ("repro.service.service", "QueryService", "close"),
}


def layer_of(module: str) -> str | None:
    """The layer a module belongs to, or ``None`` when it is not traced."""
    if module in SKIPPED_MODULES:
        return None
    best = None
    for prefix, layer in LAYER_OF_MODULE.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
            best is None or len(prefix) > len(best[0])
        ):
            best = (prefix, layer)
    return best[1] if best else None


class _ThreadTotals:
    """One thread's aggregates; only that thread writes to it."""

    __slots__ = ("stack", "self_s", "calls", "counts")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # [start, child seconds] per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)  # "layer:qualname" -> calls
        self.counts: dict[str, float] = defaultdict(float)  # observer counters


class Tracer:
    """Span aggregator with per-thread stacks.

    ``active`` gates recording; wrappers installed by :func:`install`
    call straight through while it is false.
    """

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._threads: list[_ThreadTotals] = []
        self._lock = threading.Lock()

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def open_span(self) -> _ThreadTotals:
        totals = self._totals()
        totals.stack.append([time.perf_counter(), 0.0])
        return totals

    def close_span(self, totals: _ThreadTotals, layer: str, name: str) -> None:
        start, child = totals.stack.pop()
        duration = time.perf_counter() - start
        if totals.stack:
            totals.stack[-1][1] += duration
        totals.self_s[layer] += duration - child
        totals.calls[f"{layer}:{name}"] += 1

    def count(self, name: str, amount: float = 1) -> None:
        self._totals().counts[name] += amount

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over threads."""
        merged: dict[str, float] = defaultdict(float)
        with self._lock:
            for totals in self._threads:
                for layer, seconds in totals.self_s.items():
                    merged[layer] += seconds
        return dict(merged)

    def calls(self, layer: str, names: tuple[str, ...] | None = None) -> int:
        """Calls into ``layer``, optionally only of the listed qualnames."""
        total = 0
        with self._lock:
            for totals in self._threads:
                for key, value in totals.calls.items():
                    key_layer, _, qualname = key.partition(":")
                    if key_layer == layer and (names is None or qualname in names):
                        total += value
        return total

    def counter(self, name: str) -> float:
        with self._lock:
            return sum(totals.counts.get(name, 0) for totals in self._threads)


Observer = Callable[[Tracer, tuple, dict, Any], None]


def _wrap(tracer: Tracer, fn: Callable, layer: str, name: str,
          observer: Observer | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        totals = tracer.open_span()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close_span(totals, layer, name)
        if observer is not None:
            observer(tracer, args, kwargs, result)
        return result

    traced.__layertrace_original__ = fn
    return traced


def _is_plain_function(fn: Any) -> bool:
    if not inspect.isfunction(fn):
        return False
    inner = inspect.unwrap(fn)
    # Generator functions and @contextmanager factories return before
    # their work runs; a span around the call would time nothing.
    return not (inspect.isgeneratorfunction(inner) or inspect.isasyncgenfunction(inner)
                or inner is not fn)


def _entry_points(module: Any) -> list[tuple[Any, str, Any, str]]:
    """(owner, attribute, raw attribute value, qualname) to wrap in ``module``."""
    found = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if _is_plain_function(value):
            found.append((module, name, value, name))
        elif inspect.isclass(value):
            for attr, raw in vars(value).items():
                key = (module.__name__, name, attr)
                public = not attr.startswith("_") or key in DUNDER_ENTRY_POINTS
                if not public or key in BLOCKING_ENTRY_POINTS:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if _is_plain_function(fn):
                    found.append((value, attr, raw, f"{name}.{attr}"))
    return found


class Installation:
    """The patches :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def setattr(self, owner: Any, name: str, value: Any) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def setitem(self, mapping: dict, key: Any, value: Any) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _library_modules() -> list[Any]:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer, observers: dict[str, Observer] | None = None) -> Installation:
    """Wrap every layer entry point of the imported ``repro`` modules.

    ``observers`` maps ``"<layer>:<qualname>"`` to a callback run after
    a traced call returns, for counters that need arguments or results.
    Returns the :class:`Installation` that restores the originals.
    """
    observers = observers or {}
    done = Installation()
    modules = _library_modules()
    replaced: dict[int, Callable] = {}
    for module in modules:
        layer = layer_of(module.__name__)
        if layer is None:
            continue
        for owner, attr, raw, qualname in _entry_points(module):
            observer = observers.get(f"{layer}:{qualname}")
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = _wrap(tracer, raw.__func__, layer, qualname, observer)
                done.setattr(owner, attr, type(raw)(wrapped))
            else:
                wrapped = _wrap(tracer, raw, layer, qualname, observer)
                done.setattr(owner, attr, wrapped)
                if owner is module:
                    replaced[id(raw)] = wrapped
    # Rebind copies of the wrapped module functions held elsewhere:
    # ``from module import f`` globals and registry dicts.
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in replaced and getattr(value, "__layertrace_original__", None) is None:
                done.setattr(module, name, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if callable(item) and id(item) in replaced:
                        done.setitem(value, key, replaced[id(item)])
    _install_round_spans(tracer, done)
    return done


def _install_round_spans(tracer: Tracer, done: Installation) -> None:
    """Time each ``with cluster.round(...)`` block as an ``mpc.cluster`` span.

    The span opens in ``RoundContext.__enter__`` and closes after
    ``__exit__`` (delivery at the barrier) returns, so the sends made in
    the block and the delivery are the round's time.
    """
    from repro.mpc.cluster import RoundContext

    enter, exit_ = RoundContext.__enter__, RoundContext.__exit__
    open_rounds: dict[int, Any] = {}

    def traced_enter(self):
        if tracer.active:
            open_rounds[id(self)] = tracer.open_span()
        return enter(self)

    def traced_exit(self, exc_type, exc, tb):
        totals = open_rounds.pop(id(self), None)
        try:
            return exit_(self, exc_type, exc, tb)
        finally:
            if totals is not None:
                tracer.close_span(totals, "mpc.cluster", "round-block")

    done.setattr(RoundContext, "__enter__", traced_enter)
    done.setattr(RoundContext, "__exit__", traced_exit)
