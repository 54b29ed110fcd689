"""Workload replay and timing across index variants.

A run replays an update stream against one engine — the plain-DFS
baseline (no index: an update costs only the input-layer edit that the
index makes too) or the condensation index with k interval dimensions —
interleaving ``qpu`` random reachability queries after every update.
Per-kind mean latencies and the total elapsed time feed the
queries-per-update comparison.
Automatic garbage collection is off while the engine is built and the
ops run, and every op is timed: there is no warm-up.

``run_bench`` returns one flat report dict:

* ``dataset``, ``variant``, ``qpu``, ``seed``: the run's inputs;
* ``ops``: the workload's length, Query ops included;
* ``<kind>_count`` and ``<kind>_mean_ms`` for each op kind ``q``
  (queries), ``ei``/``ed`` (edge insert/delete) and ``ni``/``nd`` (node
  insert/delete): calls, and mean milliseconds per call (0.0 for none);
* ``query_hits``: queries answered true;
* ``answers_hash``: SHA-256 hex of every answer in order, one byte each;
* ``final_nodes``, ``final_edges``: input nodes and edges after the run;
* ``final_dag_nodes``, ``final_largest_scc``: components after the run
  and the largest one's node count, -1 for ``dfs``;
* ``build_s``, ``total_s``: seconds to build the engine and to replay.
"""
from __future__ import annotations

import gc
import hashlib
import random
import re
import time
from collections.abc import Sequence

from .errors import InputError
from .graph import SccGraph
from .index import ReachabilityIndex
from .labeling import LabelerConfig
from .ops import DeleteEdge, DeleteNode, InsertEdge, InsertNode, Query, UpdateOp
from .workload import _IndexedSet

_VARIANT_RE = re.compile(r"^(dfs|dg(\d+))$")
_KINDS = ("q", "ei", "ed", "ni", "nd")

#: Report keys that depend on the wall clock (ignored when diffing runs).
TIMING_FIELDS = frozenset({"total_s", "build_s"} | {f"{kind}_mean_ms" for kind in _KINDS})


def parse_variant(variant: str) -> int | None:
    """Map a variant name to its label dimension count (None = baseline)."""
    m = _VARIANT_RE.match(variant)
    if not m:
        raise InputError(f"unknown variant {variant!r} (expected dfs or dg<k>)")
    return None if m.group(1) == "dfs" else int(m.group(2))


class DfsBaseline:
    """Index-free engine: ``graph`` is an ``SccGraph`` built up to its
    input layer only (``SccGraph._input_layer``).  Updates make the index's
    input-layer edits through the same calls, ids and their checks
    included; a query runs a DFS over the slots' out-lists that marks
    them with a fresh stamp in the graph's visit-mark column
    (``SccGraph._vis``), as the index's searches do."""

    def __init__(self, edges: Sequence[tuple[int, int]], num_nodes: int) -> None:
        self.graph = SccGraph._input_layer(edges, num_nodes)

    def insert_edge(self, u: int, v: int) -> None:
        g = self.graph
        g.add_input_edge(g.input_slot(u), g.input_slot(v))

    def delete_edge(self, u: int, v: int) -> None:
        g = self.graph
        g.remove_input_edge(g.input_slot(u), g.input_slot(v))

    def insert_node(self, u: int, out_edges: Sequence[int] = (), in_edges: Sequence[int] = ()) -> None:
        self.graph.add_input_node(u, (*out_edges, *in_edges))
        for w in out_edges:
            self.insert_edge(u, w)
        for w in in_edges:
            self.insert_edge(w, u)

    def delete_node(self, u: int) -> None:
        g = self.graph
        x = g.input_slot(u)
        g.remove_input_edges_at(x)
        g.remove_input_node(x)

    def reachable(self, u: int, v: int) -> bool:
        g = self.graph
        s = g.input_slot(u)
        t = g.input_slot(v)
        if s == t:
            return True
        vis = g._vis
        stamp = g._stamp = g._stamp + 1
        out = g._out_i
        vis[s] = stamp
        stack = [s]
        while stack:
            w = stack.pop()
            for c in out[w]:
                if c == t:
                    return True
                if vis[c] != stamp:
                    vis[c] = stamp
                    stack.append(c)
        return False


def build_engine(k: int | None, edges: Sequence[tuple[int, int]], num_nodes: int, seed: int):
    """The ``dfs`` baseline for ``k`` None, else the index with ``k``
    label dimensions."""
    if k is None:
        return DfsBaseline(edges, num_nodes)
    return ReachabilityIndex.build(edges, num_nodes, LabelerConfig(k=k, seed=seed))


def run_bench(
    edges: Sequence[tuple[int, int]],
    num_nodes: int,
    workload: Sequence[UpdateOp],
    variant: str = "dg1",
    qpu: int = 0,
    seed: int = 0,
    dataset: str = "",
) -> dict:
    """Replay ``workload`` on a freshly built engine, time every op, and
    return the report dict of the module docstring.

    After each update the harness issues ``qpu`` queries with both
    endpoints drawn uniformly from the current nodes (seeded, identical
    across variants), or none if no node is left; explicit Query ops in
    the workload run too.  After one untimed ``gc.collect()``, automatic
    collection is off for the build and the replay, so no op is charged
    for a scan that others' allocations set off; the caller's setting is
    then restored.  A bad variant or a negative ``qpu`` is refused before
    the build, and any failing op aborts with its index in the message.
    """
    k = parse_variant(variant)
    if qpu < 0:
        raise InputError(f"qpu must be >= 0, got {qpu}")
    rng = random.Random(seed)
    sums = dict.fromkeys(_KINDS, 0.0)
    counts = dict.fromkeys(_KINDS, 0)
    answers = bytearray()
    perf = time.perf_counter

    def timed(kind: str, call, *args):
        t = perf()
        res = call(*args)
        sums[kind] += perf() - t
        counts[kind] += 1
        return res

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf()
        engine = build_engine(k, edges, num_nodes, seed)
        build_s = perf() - t0
        # Query endpoints: the live input ids in slot order, then in order of
        # insertion, so every variant draws the same ones.
        alive = _IndexedSet(engine.graph.input_node_ids())
        t_start = perf()
        for i, op in enumerate(workload):
            try:
                if isinstance(op, Query):
                    answers.append(timed("q", engine.reachable, op.u, op.v))
                    continue
                if isinstance(op, InsertEdge):
                    timed("ei", engine.insert_edge, op.u, op.v)
                elif isinstance(op, DeleteEdge):
                    timed("ed", engine.delete_edge, op.u, op.v)
                elif isinstance(op, InsertNode):
                    timed("ni", engine.insert_node, op.u, op.out_edges, op.in_edges)
                    alive.add(op.u)
                elif isinstance(op, DeleteNode):
                    timed("nd", engine.delete_node, op.u)
                    alive.remove(op.u)
                else:
                    raise InputError(f"unsupported op {op!r}")
                if not alive.items:
                    continue
                for _ in range(qpu):
                    answers.append(timed("q", engine.reachable, alive.draw(rng), alive.draw(rng)))
            except InputError as exc:
                raise InputError(f"op {i} ({op!r}) failed: {exc}") from exc
        total_s = perf() - t_start
    finally:
        if collecting:
            gc.enable()

    if isinstance(engine, ReachabilityIndex):
        census = engine.census()
    else:
        g = engine.graph
        census = {"nodes": g.num_input_nodes, "edges": g.num_input_edges, "dag_nodes": -1, "largest_scc": -1}
    report = {
        "dataset": dataset,
        "variant": variant,
        "qpu": qpu,
        "seed": seed,
        "ops": len(workload),
        "query_hits": sum(answers),
        "answers_hash": hashlib.sha256(bytes(answers)).hexdigest(),
        "build_s": build_s,
        "total_s": total_s,
    }
    report.update({f"final_{key}": value for key, value in census.items()})
    for kind in _KINDS:
        report[f"{kind}_count"] = counts[kind]
        report[f"{kind}_mean_ms"] = sums[kind] * 1000.0 / counts[kind] if counts[kind] else 0.0
    return report
