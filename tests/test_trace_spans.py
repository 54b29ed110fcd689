"""The spans that the replay benchmark's per-layer table reads are still
traced, so renaming a function of the index cannot silently zero a
per-layer metric, and a traced query is one span."""
from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "replaybench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from dynreach import LabelerConfig, QueryStats, ReachabilityIndex  # noqa: E402

# The span names ``tracing.layer_metrics`` reads.
PER_LAYER_SPANS = {
    "labeling.propagate", "labeling.relabel_split", "labeling.initial_labels",
    "graph.build", "graph.merge_components", "graph.apply_split",
    "index.collect_merge_list", "index.extract_components", "index.reachable_with_stats",
    "index.insert_edge", "index.delete_edge", "index.insert_node", "index.delete_node",
}


def test_per_layer_spans_are_traced():
    traced = {span for _, _, span in tracing.traced_functions()}
    assert PER_LAYER_SPANS - traced == set()
    assert set(tracing.COUNTS) - traced == set()


def test_one_span_per_traced_query():
    # On the chain 0 -> ... -> 7, a pair three or more steps apart
    # searches; the rest are settled without a search.
    idx = ReachabilityIndex.build([(x, x + 1) for x in range(7)], 8, LabelerConfig(k=1, seed=1))
    pairs = [(u, v) for u in range(8) for v in range(u + 3, 8)]
    pairs += [(0, 1), (0, 2), (7, 0), (3, 3), (5, 2)]
    tracer = tracing.Tracer()
    with tracer.installed():
        stats = [idx.reachable_with_stats(u, v)[1] for u, v in pairs]
    assert sum(s != QueryStats(1, 0) for s in stats) == 15
    assert len(tracer.start) == len(pairs) == 20
    assert {tracer.names[n] for n in tracer.name_of} == {"index.reachable_with_stats"}
