"""Label-pruned queries and the two baseline searches."""
from __future__ import annotations

import random

import pytest

from dynreach import InputError, LabelerConfig, LogicError, ReachabilityIndex, gen_er, gen_updates, OpRatios
from dynreach.ops import DeleteEdge, DeleteNode, InsertEdge, InsertNode

from oracles import Mirror
from samples import NODE, random_digraph, sample_comps, sample_index


def test_reachable_examples_on_sample():
    idx = sample_index(k=1)
    assert idx.reachable(NODE["R"], NODE["N"])
    assert idx.reachable(NODE["T"], NODE["T"])
    assert not idx.reachable(NODE["M"], NODE["R"])


def test_reachable_same_component_short_circuits():
    idx = sample_index(k=1)
    ok, stats = idx.reachable_with_stats(NODE["N"], NODE["S"])
    assert ok and stats.visited == 1


def test_root_label_rejection_visits_one_node():
    # With both pinned dimensions, component 2 fails to cover component 1
    # in the second dimension, so the search stops at its root.
    idx = sample_index(order="both")
    comps = sample_comps(idx.graph)
    ok, stats = idx.reachable_with_stats(NODE["D"], NODE["A"])
    assert not ok
    assert stats.visited == 1
    assert not idx.labeler.covers(comps["2"], comps["1"])


def test_reachable_unknown_node():
    idx = sample_index(k=1)
    with pytest.raises(InputError):
        idx.reachable(0, 1234)


def test_dfs_input_examples():
    idx = sample_index(k=1)
    assert idx.dfs_input(NODE["R"], NODE["S"])
    assert not idx.dfs_input(NODE["M"], NODE["R"])
    assert idx.dfs_input(NODE["A"], NODE["A"])


def test_dfs_dag_examples():
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    assert idx.dfs_dag(comps["1"], comps["3"])
    assert idx.dfs_dag(comps["3"], comps["3"])
    assert not idx.dfs_dag(comps["3"], comps["1"])
    idx.insert_edge(NODE["N"], NODE["B"])
    with pytest.raises(LogicError):
        idx.dfs_dag(comps["1"], comps["3"])  # component 1 expired


def test_dfs_dag_lifts_dfs_input():
    for seed in range(50):
        n = 20
        edges = random_digraph(n, 36, seed)
        idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=seed))
        rng = random.Random(seed)
        for _ in range(12):
            u, v = rng.randrange(n), rng.randrange(n)
            assert idx.dfs_dag(idx.find(u), idx.find(v)) == idx.dfs_input(u, v)


def test_pruned_children_are_truly_unreachable():
    # Contrapositive of label soundness, checked exhaustively: a failed
    # cover test between current components implies no DAG path.
    for order in ("ltr", "both", None):
        idx = sample_index(order=order) if order else sample_index(k=2, order=None)
        nodes = idx.graph.current_dag_nodes()
        for s in nodes:
            for t in nodes:
                if not idx.labeler.covers(s, t):
                    assert not idx.dfs_dag(s, t), (order, s, t)


def test_query_agreement_on_evolving_graph():
    # 1,000-node uniform random graph evolving through generated updates;
    # 10,000 queries checked against the trusted mirror.
    n, m = 1000, 1500
    edges = gen_er(n, m, seed=5)
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=5))
    mirror = Mirror(edges, n)
    ops = gen_updates(edges, n, 200, OpRatios(), seed=6)
    rng = random.Random(7)
    stages = 20
    per_stage = len(ops) // stages
    checked = 0
    for stage in range(stages):
        for op in ops[stage * per_stage : (stage + 1) * per_stage]:
            if isinstance(op, InsertEdge):
                idx.insert_edge(op.u, op.v)
                mirror.insert_edge(op.u, op.v)
            elif isinstance(op, DeleteEdge):
                idx.delete_edge(op.u, op.v)
                mirror.delete_edge(op.u, op.v)
            elif isinstance(op, InsertNode):
                idx.insert_node(op.u, op.out_edges, op.in_edges)
                mirror.insert_node(op.u, op.out_edges, op.in_edges)
            elif isinstance(op, DeleteNode):
                idx.delete_node(op.u)
                mirror.delete_node(op.u)
        alive = sorted(mirror.nodes)
        for _ in range(500):
            u = alive[rng.randrange(len(alive))]
            v = alive[rng.randrange(len(alive))]
            assert idx.reachable(u, v) == mirror.reach(u, v), (stage, u, v)
            checked += 1
    assert checked == 10_000


def test_pruning_is_monotone_in_dimensions():
    n, m = 2000, 3000
    edges = gen_er(n, m, seed=11)
    visited = {}
    for k in (0, 2):
        idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=k, seed=11))
        rng = random.Random(42)
        total = 0
        for _ in range(400):
            u, v = rng.randrange(n), rng.randrange(n)
            _, stats = idx.reachable_with_stats(u, v)
            total += stats.visited
        visited[k] = total
    assert visited[2] <= visited[0]


def test_query_stats_counts_pruned_children():
    idx = sample_index(order="both")
    pruned_total = 0
    for u in range(19):
        for v in range(19):
            _, stats = idx.reachable_with_stats(u, v)
            assert stats.visited >= 1
            pruned_total += stats.pruned
    assert pruned_total > 0
