"""Span tracing installed from outside the program.

Tracer keeps a tree of spans in memory.  Each span has an id, its parent's
id and a name; repeated calls with the same name under the same parent are
aggregated into one span (calls and total seconds add up), so functions
called once per graph cost one node per caller, not one per call.  A span's
self time is its total minus the time of its child spans, so the self times
of all spans sum to the root's total.

install() wraps the public functions of specgap's modules.  A module that
did ``from .graphs import is_connected`` holds its own reference, so every
specgap module global bound to the original function is replaced, not only
the defining module's.  The tracer is single-threaded: the traced workloads
run the census with one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

MARK = "__bench_span__"

LAYERS = ("graph6", "graphs", "eigen", "indices", "census", "multipartite",
          "verify", "cli")

# module -> public functions to wrap
FUNCTIONS = {
    "graph6": ("decode", "encode"),
    "graphs": ("is_connected", "bipartition", "detect_complete_multipartite"),
    "eigen": ("spectrum", "eigensystem", "spectra_batch"),
    "indices": ("indices_batch",),
    "census": ("run_census", "enumerate_connected", "extend_census",
               "write_stats_csv", "write_histogram_csvs"),
    "multipartite": ("nonmultipartite_bounds_check", "bipartite_gap_bound",
                     "cone_lambda_max_bound", "pendant_lambda_min_bound"),
    "verify": ("run_check",),
    "cli": ("main",),
}

# (module, class, method) wrapped on the class itself
METHODS = (
    ("indices", "IndexStats", "update_many"),
    ("indices", "IndexStats", "absorb"),
    ("census", "Histogram", "update_many"),
)


SPAN_NAMES = frozenset(
    [f"{layer}.{f}" for layer, names in FUNCTIONS.items() for f in names]
    + [f"{layer}.{cls}.{meth}" for layer, cls, meth in METHODS]
    + ["census.Graph6Source"]
)


def _candidates(args: tuple, result: Any) -> dict[str, int]:
    graphs = args[0]
    return {"candidates": len(graphs) * ((1 << graphs[0].order) - 1),
            "classes": len(result)}


# span name from the call, where one function does several named jobs
LABELS: dict[str, Callable[[tuple], str]] = {
    "verify.run_check": lambda args: f"verify.run_check.{args[0]}",
}

# counters added to the span after a call returns
COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "eigen.spectra_batch": lambda args, result: {"matrices": len(args[0])},
    "census.extend_census": _candidates,
}


class Span:
    __slots__ = ("id", "parent", "name", "calls", "total", "child",
                 "counters", "kids")

    def __init__(self, id: int, parent: int | None, name: str) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.counters: dict[str, int] = {}
        self.kids: dict[str, Span] = {}

    @property
    def self_s(self) -> float:
        return self.total - self.child

    def count(self, values: dict[str, int]) -> None:
        for key, n in values.items():
            self.counters[key] = self.counters.get(key, 0) + n

    def record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "calls": self.calls, "s": self.total, "self_s": self.self_s,
                "counters": dict(self.counters)}


class Tracer:
    def __init__(self, root: str = "run",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans = [Span(0, None, root)]
        self.stack = [self.spans[0]]
        self._t0: list[float] = []

    def enter(self, name: str) -> Span:
        parent = self.stack[-1]
        span = parent.kids.get(name)
        if span is None:
            span = Span(len(self.spans), parent.id, name)
            self.spans.append(span)
            parent.kids[name] = span
        self.stack.append(span)
        self._t0.append(self.clock())
        return span

    def exit(self) -> None:
        dt = self.clock() - self._t0.pop()
        span = self.stack.pop()
        span.calls += 1
        span.total += dt
        self.stack[-1].child += dt

    def start(self) -> None:
        """Open the root span (the timed region)."""
        self._t0.append(self.clock())

    def stop(self) -> None:
        root = self.spans[0]
        root.total += self.clock() - self._t0.pop()
        root.calls += 1
        if len(self.stack) != 1:
            raise RuntimeError("unbalanced spans: "
                               + "/".join(s.name for s in self.stack))

    def records(self) -> list[dict]:
        return [s.record() for s in self.spans]


def _wrap(tracer: Tracer, fn: Callable, name: str) -> Callable:
    label = LABELS.get(name)
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.enter(label(args) if label else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter:
            span.count(counter(args, result))
        return result

    setattr(traced, MARK, True)
    return traced


def _wrap_source_iter(tracer: Tracer, orig_iter: Callable) -> Callable:
    """Graph6Source.__iter__: one span segment per item pulled from it."""
    name = "census.Graph6Source"

    @functools.wraps(orig_iter)
    def traced(self):
        it = orig_iter(self)
        yielded = 0
        while True:
            span = tracer.enter(name)
            try:
                g = next(it)
            except StopIteration:
                span.count({"yielded": yielded, "read": self.read})
                return
            finally:
                tracer.exit()
            yielded += 1
            yield g

    setattr(traced, MARK, True)
    return traced


def _modules() -> list:
    return [importlib.import_module(f"specgap.{m}") for m in LAYERS] + [
        importlib.import_module("specgap")]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function where its callers look it up.

    Returns a function that puts the originals back.
    """
    modules = _modules()
    undo: list[tuple[Any, str, Any]] = []
    for layer, names in FUNCTIONS.items():
        home = sys.modules[f"specgap.{layer}"]
        for fname in names:
            orig = getattr(home, fname)
            traced = _wrap(tracer, orig, f"{layer}.{fname}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, traced)
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"specgap.{layer}"], cls_name)
        orig = cls.__dict__[meth]
        undo.append((cls, meth, orig))
        setattr(cls, meth, _wrap(tracer, orig, f"{layer}.{cls_name}.{meth}"))
    source = sys.modules["specgap.census"].Graph6Source
    undo.append((source, "__iter__", source.__dict__["__iter__"]))
    source.__iter__ = _wrap_source_iter(tracer, source.__dict__["__iter__"])

    def uninstall() -> None:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return uninstall


def installed() -> list[str]:
    """Names of specgap functions currently replaced by a span wrapper."""
    found = []
    for mod in _modules():
        for key, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__.startswith("specgap"):
                found.extend(f"{mod.__name__}.{key}.{k}"
                             for k, v in vars(value).items()
                             if getattr(v, MARK, False))
    return found


def layer_table(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, s, self_s and counters summed over parents."""
    table: dict[str, dict[str, float]] = {}
    for rec in records:
        row = table.setdefault(rec["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += rec["calls"]
        row["s"] += rec["s"]
        row["self_s"] += rec["self_s"]
        for key, n in rec["counters"].items():
            row[key] = row.get(key, 0) + n
    return table
