"""The spans that the replay benchmark's per-layer table reads are still
traced, so renaming a function of the index cannot silently zero a
per-layer metric."""
from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "replaybench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

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
