"""Graph generators and update-sequence generation."""
from __future__ import annotations

import hashlib
import math
from collections import Counter

import pytest

from dynreach import (
    InputError,
    LabelerConfig,
    OpRatios,
    ReachabilityIndex,
    gen_ba_directed,
    gen_er,
    gen_updates,
    run_bench,
)
from dynreach.io import serialize_workload
from dynreach.ops import DeleteEdge, DeleteNode, InsertEdge, InsertNode

from oracles import Mirror, kosaraju_partition


def test_gen_er_trivial_and_exact_count():
    assert gen_er(1, 0, seed=0) == []
    edges = gen_er(50, 200, seed=1)
    assert len(edges) == 200
    assert all(0 <= u < 50 and 0 <= v < 50 for u, v in edges)


def test_gen_er_deterministic():
    assert gen_er(100, 300, seed=9) == gen_er(100, 300, seed=9)
    assert gen_er(100, 300, seed=9) != gen_er(100, 300, seed=10)


def test_gen_er_mean_degree():
    n, m = 2000, 3000
    for seed in range(10):
        edges = gen_er(n, m, seed)
        mean_out = len(edges) / n
        assert abs(mean_out - m / n) / (m / n) < 0.05


def test_gen_er_census_shape():
    # Supercritical uniform graph: one giant component, long singleton tail.
    n, m = 10_000, 15_000
    idx = ReachabilityIndex.build(gen_er(n, m, seed=3), n, LabelerConfig(k=0))
    census = idx.census()
    assert census["largest_scc"] > 0.15 * n
    assert census["dag_nodes"] > 0.5 * n
    singletons = sum(1 for p in idx.scc_partition() if len(p) == 1)
    assert singletons > 0.5 * n


def test_gen_ba_acyclic_without_reversal():
    edges = gen_ba_directed(400, 2, 0.0, seed=2)
    parts = kosaraju_partition(range(400), edges)
    assert all(len(p) == 1 for p in parts)


def test_gen_ba_census_shape():
    # With reversal at one half, roughly half the graph collapses into
    # one giant component.
    n = 10_000
    idx = ReachabilityIndex.build(gen_ba_directed(n, 2, 0.5, seed=4), n, LabelerConfig(k=0))
    census = idx.census()
    assert 0.25 * n < census["largest_scc"] < 0.8 * n


def test_gen_ba_heavy_tail():
    for seed in range(5):
        edges = gen_ba_directed(3000, 2, 0.5, seed=seed)
        deg = Counter()
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        mean = sum(deg.values()) / 3000
        assert max(deg.values()) > 10 * mean


def test_gen_ba_validates_bounds():
    with pytest.raises(InputError):
        gen_ba_directed(4, 2, 0.5, seed=0)
    with pytest.raises(InputError):
        gen_ba_directed(100, 2, 1.5, seed=0)


def test_gen_updates_ratio_mix_within_three_sigma():
    edges = gen_er(500, 800, seed=0)
    ops = gen_updates(edges, 500, 1000, OpRatios(60, 15, 20, 5), seed=1)
    assert len(ops) == 1000
    counts = Counter(type(op).__name__ for op in ops)
    for cls, share in (("InsertEdge", 0.60), ("DeleteEdge", 0.15),
                       ("InsertNode", 0.20), ("DeleteNode", 0.05)):
        expect = 1000 * share
        sigma = math.sqrt(1000 * share * (1 - share))
        assert abs(counts[cls] - expect) <= 3 * sigma, (cls, counts[cls])


def test_gen_updates_single_kind():
    ops = gen_updates([(0, 1)], 2, 50, OpRatios(0, 0, 1, 0), seed=3)
    assert all(isinstance(op, InsertNode) for op in ops)


def test_gen_updates_rejects_all_impossible():
    with pytest.raises(InputError):
        gen_updates([], 1, 5, OpRatios(0, 1, 0, 0), seed=0)  # nothing to delete


@pytest.mark.parametrize("count, d", [(-3, 2), (5, -1)])
def test_gen_updates_rejects_a_negative_count_or_degree_bound(count, d):
    # Only node inserts are drawn, so a negative bound would reach the
    # degree draw if it were not refused first.
    with pytest.raises(InputError, match="count >= 0 and d >= 0"):
        gen_updates([(0, 1)], 2, count, OpRatios(0, 0, 1, 0), seed=3, d=d)


def test_gen_updates_replays_cleanly():
    for seed in (0, 1):
        n = 300
        edges = gen_er(n, 450, seed)
        ops = gen_updates(edges, n, 400, OpRatios(), seed=seed + 50)
        idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=seed))
        mirror = Mirror(edges, n)
        for op in ops:
            if isinstance(op, InsertEdge):
                idx.insert_edge(op.u, op.v)
                mirror.insert_edge(op.u, op.v)
            elif isinstance(op, DeleteEdge):
                idx.delete_edge(op.u, op.v)
                mirror.delete_edge(op.u, op.v)
            elif isinstance(op, InsertNode):
                idx.insert_node(op.u, op.out_edges, op.in_edges)
                mirror.insert_node(op.u, op.out_edges, op.in_edges)
            else:
                idx.delete_node(op.u)
                mirror.delete_node(op.u)
        # the index's input layer ends up exactly at the shadow state
        assert sorted(idx.graph.input_edges()) == sorted(mirror.edge_list())
        assert set(idx.graph.input_node_ids()) == mirror.nodes


def test_gen_updates_deterministic():
    edges = gen_er(200, 300, seed=8)
    a = gen_updates(edges, 200, 300, OpRatios(), seed=4)
    b = gen_updates(edges, 200, 300, OpRatios(), seed=4)
    assert a == b



def _digest(ops) -> str:
    return hashlib.sha256(serialize_workload(ops).encode()).hexdigest()[:16]


# The generator's draws fix every workload file and every recorded
# ``answers_hash``: these pins catch any change to the draw sequence.
@pytest.mark.parametrize("seed, digest", [(1, "b9b756f0bb152ad3"), (2, "bcf168cb375d974f"), (3, "8baba96da1ede1e8")])
def test_gen_updates_draws_are_pinned_where_the_edges_run_dry(seed, digest):
    ops = gen_updates([(0, 1), (1, 2), (2, 0), (3, 4)], 6, 200, OpRatios(1, 8, 3, 1), seed)
    assert _digest(ops) == digest


def test_gen_updates_draws_are_pinned_on_a_ba_graph():
    ops = gen_updates(gen_ba_directed(2000, 2, 0.5, 1), 2000, 2000, OpRatios(), seed=2)
    assert _digest(ops) == "6699265c52856cd1"


def test_gen_updates_inserts_a_node_into_an_empty_graph():
    # Node deletes outweigh inserts ten to one, so the shadow empties: 81
    # of the 200 ops leave no node.  A node insert stays applicable there
    # and draws no endpoint, and the replay answers as the baseline does.
    edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
    ops = gen_updates(edges, 6, 200, OpRatios(0, 0, 1, 10), 1)
    assert _digest(ops) == "fc5deaaa71f9affd"
    assert Counter(type(op) for op in ops) == {DeleteNode: 103, InsertNode: 97}
    hashes = {v: run_bench(edges, 6, ops, v, qpu=2, seed=3)["answers_hash"] for v in ("dg1", "dfs")}
    assert hashes["dg1"] == hashes["dfs"]


def test_op_ratios_validation():
    with pytest.raises(InputError):
        OpRatios(-1, 0, 0, 0).weights()
    with pytest.raises(InputError):
        OpRatios(0, 0, 0, 0).weights()
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite"):
            OpRatios(bad, 1, 1, 1).weights()
