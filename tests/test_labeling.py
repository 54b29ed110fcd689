"""Interval label assignment, subsumption, enlargement, and split redistribution."""
from __future__ import annotations

import random

import pytest

from dynreach import (
    IntervalLabeler,
    LabelerConfig,
    LogicError,
    ReachabilityIndex,
    SccGraph,
    subsumes,
)

from oracles import check_label_invariants
from samples import NODE, random_dag, sample_comps, sample_graph, sample_index

# Frozen two-dimensional labeling of the sample condensation: first
# dimension visits children left to right, second right to left.
DIM1 = {"R": (0, 19), "1": (0, 12), "2": (0, 18), "H": (0, 8), "I": (0, 9),
        "J": (0, 14), "K": (0, 13), "L": (0, 7), "3": (0, 5), "M": (5, 6)}
DIM2 = {"R": (0, 19), "1": (0, 18), "2": (0, 14), "H": (0, 10), "I": (0, 15),
        "J": (0, 7), "K": (0, 6), "L": (0, 9), "3": (0, 5), "M": (7, 8)}


def _node_id(name: str, comps: dict[str, int]) -> int:
    return comps[name] if name in comps else NODE[name]


def test_subsumes_incomparable_rectangles():
    l1 = (DIM1["1"], DIM2["1"])  # ([0,12], [0,18])
    l2 = (DIM1["2"], DIM2["2"])  # ([0,18], [0,14])
    assert not subsumes(l1, l2)
    assert not subsumes(l2, l1)


def test_subsumes_reflexive_and_nested():
    x = ((3, 9), (0, 4))
    assert subsumes(x, x)
    assert subsumes(((0, 10), (0, 10)), ((2, 5), (1, 9)))
    assert not subsumes(((2, 5), (1, 9)), ((0, 10), (0, 10)))


def test_subsumes_dimension_mismatch():
    with pytest.raises(LogicError):
        subsumes(((0, 1),), ((0, 1), (0, 2)))


def test_initial_labels_match_frozen_fixture():
    idx = sample_index(order="both")
    comps = sample_comps(idx.graph)
    for name in DIM1:
        got = idx.label_of(_node_id(name, comps))
        assert got[0] == DIM1[name], (name, got[0])
        assert got[1] == DIM2[name], (name, got[1])


def test_initial_label_single_node():
    g = SccGraph.build([], num_nodes=1)
    lab = IntervalLabeler(LabelerConfig(k=1, seed=5))
    lab.initial_labels(g)
    assert lab.label_of(0) == ((0, 1),)


def test_initial_labels_respect_containment_on_random_dags():
    for seed in (0, 1, 2):
        edges = random_dag(30, 60, seed)
        idx = ReachabilityIndex.build(edges, 30, LabelerConfig(k=3, seed=seed))
        check_label_invariants(idx)


def test_labels_deterministic_per_seed():
    edges = random_dag(40, 90, 9)

    def labels(seed):
        idx = ReachabilityIndex.build(edges, 40, LabelerConfig(k=2, seed=seed))
        return [idx.label_of(s) for s in idx.graph.current_dag_nodes()]

    assert labels(123) == labels(123)
    assert labels(123) != labels(124)


def test_label_soundness_on_sample_all_pairs():
    # Reachability between condensation nodes always implies subsumption.
    idx = sample_index(order="both")
    check_label_invariants(idx)
    nodes = idx.graph.current_dag_nodes()
    hits = sum(
        idx.dfs_dag(s, t) and s != t for s in nodes for t in nodes
    )
    assert hits > 0  # the exhaustive check above actually exercised pairs


def test_enlarge_noop_when_already_covering():
    idx = sample_index(k=1, order="ltr")
    comps = sample_comps(idx.graph)
    before = {s: idx.label_of(s) for s in idx.graph.current_dag_nodes()}
    # R already covers everything on the left traversal; a fresh edge
    # from R into the big sink component changes no label.
    idx.insert_edge(NODE["R"], NODE["T"])
    after = {s: idx.label_of(s) for s in idx.graph.current_dag_nodes()}
    assert before == after
    assert idx.graph.edge_multiplicity(NODE["R"], comps["3"]) == 1


def test_enlarge_propagates_only_to_ancestors():
    for seed in range(8):
        edges = random_dag(26, 48, seed)
        idx = ReachabilityIndex.build(edges, 26, LabelerConfig(k=2, seed=seed))
        g = idx.graph
        rng = random.Random(seed)
        nodes = g.current_dag_nodes()
        ancestors_of = {
            s: {p for p in nodes if p != s and idx.dfs_dag(p, s)} for s in nodes
        }
        before = {s: idx.label_of(s) for s in nodes}
        while True:
            s, t = rng.sample(nodes, 2)
            if s != t and not idx.dfs_dag(s, t) and not idx.dfs_dag(t, s):
                break
        idx.insert_edge(s, t)
        check_label_invariants(idx)
        changed = {x for x in nodes if idx.label_of(x) != before[x]}
        assert changed <= ancestors_of[s] | {s}, (seed, changed)


def test_split_two_cycle_keeps_containment():
    for seed in range(10):
        rng = random.Random(seed)
        u, v = 0, 1
        extra = [(rng.randrange(2, 8), rng.randrange(2, 8)) for _ in range(6)]
        edges = [(u, v), (v, u)] + [(a, b) for a, b in extra if a != b]
        idx = ReachabilityIndex.build(edges, 8, LabelerConfig(k=2, seed=seed))
        assert idx.find(u) == idx.find(v)
        idx.delete_edge(u, v)
        assert idx.find(u) != idx.find(v)
        check_label_invariants(idx)
        # the component of u still reaches v's side through the kept edge
        assert idx.reachable(v, u)


def test_k0_disables_labeling():
    idx = sample_index(k=0, order=None)
    assert idx.k == 0
    assert idx.label_of(NODE["R"]) == ()
    idx.insert_edge(NODE["N"], NODE["B"])  # merge path without labels
    idx.delete_edge(NODE["L"], NODE["P"])
    assert idx.reachable(NODE["R"], NODE["S"])
    assert not idx.reachable(NODE["M"], NODE["R"])


def test_full_relabel_resets_drift():
    idx = sample_index(k=1, order=None, seed=3)
    idx.insert_edge(NODE["N"], NODE["B"])
    idx.delete_edge(NODE["N"], NODE["B"])
    idx.full_relabel()
    check_label_invariants(idx)
    # after a fresh labeling the root end equals the total node count
    g = idx.graph
    roots = [s for s in g.current_dag_nodes() if not g.dag_parents(s)]
    assert max(idx.label_of(r)[0][1] for r in roots) == 19
