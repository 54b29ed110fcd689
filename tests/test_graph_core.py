"""Layered graph construction, component lookup, merging, and accessors."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from dynreach import InputError, LogicError, SccGraph
from dynreach.graph import SCC_CURRENT

from oracles import kosaraju_partition
from samples import NODE, SAMPLE_EDGES, random_digraph, sample_comps, sample_graph


def test_sample_build_census():
    g = sample_graph()
    assert g.num_input_nodes == 19
    assert g.num_input_edges == 28
    assert len(g.current_dag_nodes()) == 10
    comps = sample_comps(g)
    assert g.scc_size(comps["1"]) == 3
    assert g.scc_size(comps["2"]) == 4
    assert g.scc_size(comps["3"]) == 5
    # the three SCC nodes are fresh ids above the input range
    assert all(c >= 19 for c in comps.values())


def test_sample_partition():
    g = sample_graph()
    groups = {}
    for u in g.input_node_ids():
        groups.setdefault(g.find_scc(u), set()).add(u)
    parts = {frozenset(v) for v in groups.values()}
    expected_multi = [
        {NODE[c] for c in "ABC"},
        {NODE[c] for c in "DEFG"},
        {NODE[c] for c in "NOPST"},
    ]
    for want in expected_multi:
        assert frozenset(want) in parts
    assert sum(1 for p in parts if len(p) == 1) == 7


def test_build_empty_edges_isolated_nodes():
    g = SccGraph.build([], num_nodes=3)
    assert g.num_input_nodes == 3
    assert g.num_input_edges == 0
    assert sorted(g.current_dag_nodes()) == [0, 1, 2]
    for u in range(3):
        assert g.find_scc(u) == u
        assert g.containment_depth(u) == 0
        assert g.dag_children(u) == []


def test_build_matches_independent_partition():
    edges = random_digraph(40, 120, seed=7)
    g = SccGraph.build(edges, num_nodes=40)
    groups = {}
    for u in range(40):
        groups.setdefault(g.find_scc(u), set()).add(u)
    got = {frozenset(v) for v in groups.values()}
    assert got == kosaraju_partition(range(40), edges)


def test_build_rejects_negative_ids():
    with pytest.raises(InputError):
        SccGraph.build([(0, -1)])


def test_duplicate_input_edges_collapse():
    g = SccGraph.build([(0, 1), (0, 1), (0, 1)], num_nodes=2)
    assert g.num_input_edges == 1
    assert g.input_successors(0) == [1]


def test_self_loop_ignored_for_condensation():
    g = SccGraph.build([(0, 0), (0, 1)], num_nodes=2)
    assert g.find_scc(0) == 0
    assert g.dag_children(0) == [1]
    assert g.num_input_edges == 2


def test_find_scc_on_sample():
    g = sample_graph()
    comps = sample_comps(g)
    assert g.find_scc(NODE["D"]) == comps["2"]
    assert g.find_scc(NODE["R"]) == NODE["R"]
    with pytest.raises(InputError):
        g.find_scc(999)


def test_find_scc_path_compression_depth():
    # Chain five merges so one input node sits under a tower of expired
    # components, then check a single lookup flattens its path.
    g = SccGraph.build([], num_nodes=64)
    comp = g.merge_components([0, 1])[0]
    absorbed = 2
    # each fresh group outweighs the running component, so the
    # representative moves and node 0's chain gains a link per round
    for width in (3, 7, 15, 31):
        fresh = list(range(absorbed, absorbed + width))
        absorbed += width
        bigger = g.merge_components(fresh)[0]
        comp = g.merge_components([comp, bigger])[0]
    assert g.containment_depth(0) >= 5
    root = g.find_scc(0)
    assert g.containment_depth(0) == 1
    assert g.find_scc(0) == root


def test_merge_choice_largest_then_smallest_id():
    g = sample_graph()
    comps = sample_comps(g)
    rep, kids, parents = g.merge_components([comps["1"], comps["3"]])  # sizes 3 vs 5
    assert rep == comps["3"]
    assert g.scc_size(rep) == 8
    # the absorbed component 1's external children and parent
    assert sorted(kids) == [NODE["H"], NODE["I"]] and parents == [NODE["R"]]

    # tie on size: the smaller id wins
    g2 = SccGraph.build([(0, 1), (1, 0), (2, 3), (3, 2)], num_nodes=4)
    a, b = g2.find_scc(0), g2.find_scc(2)
    assert g2._size[a] == g2._size[b] == 2
    assert g2.merge_components([b, a])[0] == min(a, b)


def test_merge_two_singletons_creates_fresh_scc_node():
    g = SccGraph.build([(0, 1)], num_nodes=2)
    rep = g.merge_components([0, 1])[0]
    assert rep >= 2
    assert g._kind[rep] == SCC_CURRENT
    assert g.scc_size(rep) == 2
    assert g.find_scc(0) == g.find_scc(1) == rep
    # the absorbed nodes stay plain input nodes
    assert g.node_kind(0) == "input" and g.node_kind(1) == "input"


def test_merge_rejects_bad_input():
    g = sample_graph()
    comps = sample_comps(g)
    with pytest.raises(LogicError):
        g.merge_components([comps["1"]])
    g.merge_components([comps["1"], comps["2"]])
    with pytest.raises(LogicError):
        g.merge_components([comps["1"], comps["3"]])  # "1" expired


def test_dag_children_on_sample():
    g = sample_graph()
    comps = sample_comps(g)
    assert sorted(g.dag_children(comps["1"])) == sorted([NODE["H"], NODE["I"]])
    assert g.dag_children(comps["3"]) == []  # sink component
    assert set(g.dag_children(NODE["R"])) == {comps["1"], comps["2"]}
    assert g.edge_multiplicity(NODE["R"], comps["2"]) == 2  # via D and E
    assert g.edge_multiplicity(NODE["H"], NODE["L"]) == 1  # singleton to singleton
    assert g.edge_multiplicity(NODE["L"], NODE["R"]) == 0


def test_dag_accessor_errors_on_expired():
    g = sample_graph()
    comps = sample_comps(g)
    g.merge_components([comps["1"], comps["2"]])
    dead = comps["1"] if g.is_current(comps["2"]) else comps["2"]
    with pytest.raises(LogicError):
        g.dag_children(dead)


def test_children_parents_mutually_consistent():
    for seed in range(50):
        n = 30
        g = SccGraph.build(random_digraph(n, 70, seed), num_nodes=n)
        nodes = g.current_dag_nodes()
        for s in nodes:
            for t in g.dag_children(s):
                assert s in g.dag_parents(t), (seed, s, t)
            for p in g.dag_parents(s):
                assert s in g.dag_children(p), (seed, s, p)


def test_multiplicity_matches_recount():
    for seed in range(20):
        n = 24
        edges = random_digraph(n, 60, seed)
        g = SccGraph.build(edges, num_nodes=n)
        counts: dict[tuple[int, int], int] = {}
        for u, v in set(edges):
            s, t = g.find_scc(u), g.find_scc(v)
            if s != t:
                counts[(s, t)] = counts.get((s, t), 0) + 1
        for s in g.current_dag_nodes():
            for t in g.dag_children(s):
                assert g.edge_multiplicity(s, t) == counts[(s, t)]
        assert sum(counts.values()) == sum(
            g.edge_multiplicity(s, t)
            for s in g.current_dag_nodes()
            for t in g.dag_children(s)
        )


def test_size_conservation_after_merges():
    # Merges of 2-4 arbitrary current components: sizes add up, every DAG
    # multiplicity matches a recount from the input layer, and the merge
    # returns the absorbed members' external children and parents once
    # each, in the order their edges were stored.
    for seed in range(10):
        rng = random.Random(seed)
        g = SccGraph.build(random_digraph(30, 45, 11 + seed), num_nodes=30)
        for _ in range(6):
            nodes = g.current_dag_nodes()
            if len(nodes) < 2:
                break
            picks = rng.sample(nodes, min(len(nodes), rng.randint(2, 4)))
            kids_of = {m: g.dag_children(m) for m in picks}
            parents_of = {m: g.dag_parents(m) for m in picks}
            rep, kids, parents = g.merge_components(picks)
            absorbed = [m for m in picks if m != rep]
            assert kids == list(dict.fromkeys(t for m in absorbed for t in kids_of[m] if t not in picks))
            assert parents == list(
                dict.fromkeys(p for m in absorbed for p in parents_of[m] if p not in picks)
            )
            assert sum(g.scc_size(s) for s in g.current_dag_nodes()) == 30
            counts = Counter()
            for u, v in g.input_edges():
                s, t = g.find_scc(u), g.find_scc(v)
                if s != t:
                    counts[s, t] += 1
            nodes = g.current_dag_nodes()
            assert {(s, t): g.edge_multiplicity(s, t) for s in nodes for t in g.dag_children(s)} == counts
            assert {(p, s) for s in nodes for p in g.dag_parents(s)} == set(counts)


def test_node_lifecycle():
    g = SccGraph.build([(0, 1)], num_nodes=2)
    x = g.add_input_node(5)
    assert x == 2  # the next fresh slot, not the external id
    assert g.num_input_nodes == 3
    assert g.input_slot(5) == x and g.external_id(x) == 5
    assert g.find_scc(x) == x
    with pytest.raises(InputError):
        g.add_input_node(5)
    g.remove_input_node(x)
    assert not g.is_input_node(5)
    with pytest.raises(InputError):
        g.find_scc(x)
    # slots are never reused: the next SCC node allocates above slot x
    rep = g.merge_components([0, 1])[0]
    assert rep > x
