"""Span tracing of the index's layers, from outside the package.

``Tracer.installed()`` replaces the public functions of
``dynreach.index``, ``dynreach.graph`` and ``dynreach.labeling`` with
wrappers that record one span per call (name, start, end, parent span)
into in-memory lists, and puts the originals back on exit.  ``io``,
``cli``, ``bench`` and ``workload`` are not on the measured path and are
not wrapped.

Per-element lookups that the index calls from its own inner loops are
left unwrapped (``LOOKUPS``): one span per ``find_scc`` or ``covers`` call
would mean millions of spans per run and a trace that measures mostly
itself.  Their cost stays in the self time of the function calling them.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import is_dataclass
from pathlib import Path
from statistics import median

from dynreach import graph, index, labeling

LOOKUPS = frozenset(
    {
        # graph
        "find_scc", "input_slot", "external_id", "is_current", "is_input_node",
        "node_kind", "scc_size", "dag_children", "dag_parents", "edge_multiplicity",
        "has_input_edge", "has_explicit_dag_edge", "containment_depth",
        "input_successors", "input_predecessors",
        # labeling
        "covers", "label_of", "ensure_capacity",
        # index
        "find",
    }
)

#: Counts recorded at a span's boundary: span name -> (count name, amount
#: from the call's arguments and result).
COUNTS: dict[str, tuple[str, Callable]] = {
    "index.extract_components": ("index.extract_splits", lambda args, res: 1 if res else 0),
    "graph.merge_components": ("graph.merged_components", lambda args, res: len(args[1])),
    "graph.apply_split": ("graph.split_extracted_nodes", lambda args, res: sum(map(len, args[3]))),
}


def traced_functions() -> Iterator[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped public function."""
    for mod in (index, graph, labeling):
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, name, f"{layer}.{name}"
            elif inspect.isclass(obj) and not is_dataclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") or attr in LOOKUPS:
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        yield obj, attr, f"{layer}.{attr}"


class Tracer:
    """In-memory span recorder; single-threaded, like the index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: list[int] = []  # per span: index into ``names``
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []  # -1 for a span the replay issued itself
        self.events: list[tuple[int, str, int]] = []  # (span, count name, amount)
        self.current = -1
        self.originals: list[tuple[object, str, object]] = []

    def mark(self) -> int:
        return len(self.start)

    def drop_since(self, mark: int) -> None:
        """Forget the spans recorded after ``mark`` (outside any span)."""
        for col in (self.name_of, self.start, self.end, self.parent):
            del col[mark:]
        while self.events and self.events[-1][0] >= mark:
            self.events.pop()

    def _wrap(self, span: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(span)
        name_of, start, end, parent, events = self.name_of, self.start, self.end, self.parent, self.events
        counted = COUNTS.get(span)
        tracer = self
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(tracer.current)
            end.append(0)
            tracer.current = sid
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = now()
                tracer.current = parent[sid]
            if counted is not None:
                events.append((sid, counted[0], counted[1](args, result)))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced function; restore the originals on exit."""
        try:
            for owner, attr, span in traced_functions():
                original = vars(owner)[attr]
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(span, original.__func__))
                else:
                    wrapped = self._wrap(span, original)
                self.originals.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(self.originals):
                setattr(owner, attr, original)
            self.originals.clear()

    # ------------------------------------------------------------------
    # analysis

    def self_ns(self, lo: int, hi: int) -> list[int]:
        """Self time of spans ``lo..hi-1``: duration minus child spans."""
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                own[p - lo] -= end[i] - start[i]
        return own

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over ``lo..hi-1``: calls, self ms, and calls and
        total ms of the spans the replay issued itself (top level)."""
        out: dict[str, dict[str, float]] = {}
        own = self.self_ns(lo, hi)
        for i in range(lo, hi):
            row = out.setdefault(
                self.names[self.name_of[i]], {"calls": 0, "self_ms": 0.0, "top_calls": 0, "top_ms": 0.0}
            )
            row["calls"] += 1
            row["self_ms"] += own[i - lo] / 1e6
            if self.parent[i] == -1:
                row["top_calls"] += 1
                row["top_ms"] += (self.end[i] - self.start[i]) / 1e6
        return out

    def counts(self, lo: int, hi: int) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for sid, key, amount in self.events:
            if lo <= sid < hi:
                totals[key] += amount
        return totals

    def per_call_self_ms(self, lo: int, hi: int, span: str) -> list[float]:
        own = self.self_ns(lo, hi)
        return [own[i - lo] / 1e6 for i in range(lo, hi) if self.names[self.name_of[i]] == span]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i in range(len(self.start)):
                f.write(
                    json.dumps([i, self.names[self.name_of[i]], self.start[i], self.end[i], self.parent[i]])
                )
                f.write("\n")


def layer_metrics(
    tracer: Tracer, setup: tuple[int, int], replay: tuple[int, int], out, scale: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced pass whose spans are
    ``replay``; the passes of ``out`` alternate untraced and traced.
    Times are multiplied by ``scale``, the run's factor to the reference
    host speed."""
    rows = tracer.summary(*replay)
    counts = tracer.counts(*replay)

    def row(span: str) -> dict[str, float]:
        return rows.get(span, {"calls": 0, "self_ms": 0.0, "top_calls": 0, "top_ms": 0.0})

    def mean_top(span: str) -> float:
        r = row(span)
        return r["top_ms"] / r["top_calls"] if r["top_calls"] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    queries = out.positives + out.negatives
    extract = row("index.extract_components")
    merge = row("graph.merge_components")
    split = row("graph.apply_split")
    propagate = row("labeling.propagate")
    search = row("index.collect_merge_list")
    metrics = {
        "index.insert_edge_ms": (mean_top("index.insert_edge"), "ms"),
        "index.delete_edge_ms": (mean_top("index.delete_edge"), "ms"),
        "index.insert_node_ms": (mean_top("index.insert_node"), "ms"),
        "index.delete_node_ms": (mean_top("index.delete_node"), "ms"),
        "index.reachable_ms": (mean_top("index.reachable_with_stats"), "ms"),
        "index.query_visited": (ratio(out.visited, queries), "count"),
        "index.query_pruned": (ratio(out.pruned, queries), "count"),
        "index.query_false_positive": (ratio(out.false_positives, out.negatives), "ratio"),
        "index.extract_calls": (extract["calls"], "count"),
        "index.extract_ms": (extract["self_ms"], "ms"),
        "index.extract_split_ratio": (ratio(counts["index.extract_splits"], extract["calls"]), "ratio"),
        "index.merge_search_calls": (search["calls"], "count"),
        "index.merge_search_ms": (search["self_ms"], "ms"),
        "graph.build_ms": (median(tracer.per_call_self_ms(*setup, "graph.build")), "ms"),
        "graph.merge_calls": (merge["calls"], "count"),
        "graph.merge_ms": (merge["self_ms"], "ms"),
        "graph.merged_components": (counts["graph.merged_components"], "count"),
        "graph.split_calls": (split["calls"], "count"),
        "graph.split_ms": (split["self_ms"], "ms"),
        "graph.split_extracted_nodes": (counts["graph.split_extracted_nodes"], "count"),
        "labeling.initial_ms": (median(tracer.per_call_self_ms(*setup, "labeling.initial_labels")), "ms"),
        "labeling.propagate_calls": (propagate["calls"], "count"),
        "labeling.propagate_ms": (propagate["self_ms"], "ms"),
        "labeling.relabel_split_ms": (row("labeling.relabel_split")["self_ms"], "ms"),
        "labeling.end_drift": (median(out.drift), "ratio"),
        "trace.overhead": (overhead(out), "ratio"),
    }
    return {name: (value * scale if unit == "ms" else value, unit) for name, (value, unit) in metrics.items()}


def overhead(out) -> float:
    """Traced over untraced time inside index calls: the sums of the
    steps' best times over the odd-numbered (traced) and the
    even-numbered (untraced) replays of the one part a traced run
    replays; steps that failed are left out."""
    pairs = [(u, t) for u, t in zip(*out.best[0]) if u >= 0 and t >= 0]
    return sum(t for _, t in pairs) / sum(u for u, _ in pairs)
