"""Layered graph construction, component lookup, merging, and accessors."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from dynreach import InputError, LabelerConfig, LogicError, ReachabilityIndex, SccGraph, graph

from oracles import Mirror, assert_agrees, check_trees, kosaraju_partition
from samples import NODE, SAMPLE_EDGES, containment_depth, random_digraph, sample_comps, sample_graph


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
        assert containment_depth(g, u) == 0
        assert g.dag_children(u) == []


def test_build_matches_independent_partition():
    edges = random_digraph(40, 120, seed=7)
    g = SccGraph.build(edges, num_nodes=40)
    groups = {}
    for u in range(40):
        groups.setdefault(g.find_scc(u), set()).add(u)
    got = {frozenset(v) for v in groups.values()}
    assert got == kosaraju_partition(range(40), edges)


def test_build_gives_the_scc_of_the_node_of_highest_degree_the_first_slot_and_trees():
    # D has the highest degree of the sample (in 2, out 3), so {D, E, F, G}
    # takes slot 19, with trees rooted at D, before Tarjan numbers the rest.
    idx = ReachabilityIndex.build(SAMPLE_EDGES, cfg=LabelerConfig(k=1, seed=0))
    g = idx.graph
    assert [g.find_scc(NODE[c]) for c in "DNA"] == [19, 20, 21]
    assert list(g._trees) == [19] and g._trees[19][0] == NODE["D"]
    check_trees(idx)
    # A hub on no cycle: its SCC is itself, the backward search stays
    # inside its descendants, and no SCC gets trees at build.
    g = SccGraph.build([(0, x) for x in range(1, 6)] + [(6, 7), (7, 6), (2, 3)], num_nodes=8)
    assert g._trees == {} and g.find_scc(6) == g.find_scc(7) == 8


def test_build_rejects_negative_ids():
    with pytest.raises(InputError):
        SccGraph.build([(0, -1)])


def test_duplicate_input_edges_collapse():
    g = SccGraph.build([(0, 1), (0, 1), (0, 1)], num_nodes=2)
    assert g.num_input_edges == 1
    assert list(g.input_edges()) == [(0, 1)]


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
    assert containment_depth(g, 0) >= 5
    root = g.find_scc(0)
    assert containment_depth(g, 0) == 1
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
    assert g.scc_size(rep) == 2
    assert g.find_scc(0) == g.find_scc(1) == rep
    # the absorbed nodes stay input nodes, no longer DAG nodes
    assert g.input_node_ids() == [0, 1] and g.current_dag_nodes() == [rep]


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
    assert 5 not in g.input_node_ids()
    with pytest.raises(InputError):
        g.find_scc(x)
    # slots are never reused: the next SCC node allocates above slot x
    rep = g.merge_components([0, 1])[0]
    assert rep > x


def test_every_slot_state_follows_from_link_size_and_id():
    # Three two-cycles give the SCC nodes a, b and c; a takes b over in a
    # merge, c dissolves to 5 once (4, 5) is gone, b's members {2, 3}
    # break off a again as the SCC node d, the lone 6 is removed and the
    # node 9 is inserted.
    g = SccGraph.build([(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)], num_nodes=7)
    a, b, c = g.find_scc(0), g.find_scc(2), g.find_scc(4)
    assert a < b and min(a, b, c) == 7
    assert g.merge_components([a, b])[0] == a  # a tie in size goes to the smaller id
    g.remove_input_edge(4, 5)
    assert g.apply_split(c, 5, [[4]]) == [4, 5]
    d = g.capacity
    assert g.apply_split(a, 0, [[2, 3]]) == [d, a]  # a multi-member piece
    g.remove_input_node(6)
    x = g.add_input_node(9)
    assert (g.capacity, g.num_input_nodes) == (12, 7)
    assert g.input_node_ids() == [0, 1, 2, 3, 4, 5, 9]
    assert g.current_dag_nodes() == [4, 5, a, d, x]
    state = {y: (g.is_current(y), g.find_scc(y)) for y in range(g.capacity) if y != 6}
    for y in range(4):  # inputs inside a component
        assert state[y] == (False, a if y < 2 else d)
    assert state[a] == (True, a) and state[d] == (True, d)  # current SCCs
    assert state[b] == (False, a)  # merged away
    assert state[c] == (False, 5)  # dissolved to the member it kept
    assert state[4] == (True, 4) and state[5] == (True, 5)  # lone inputs
    assert state[x] == (True, x)  # a fresh input
    assert not g.is_current(6)  # a removed input is unknown
    with pytest.raises(InputError):
        g.find_scc(6)
    with pytest.raises(LogicError):
        g.apply_split(c, 5, [[4]])  # no longer current
    with pytest.raises(LogicError):
        g.apply_split(5, 5, [])  # current, but not a multi-node component
    # Every slot's DAG sides are mappings: the merged-away and the
    # dissolved SCC hold none, and a fresh node and the new piece read as
    # none through the public views.  The shared side without edges took
    # no write.
    assert all(side is not None for side in (*g._out_d, *g._in_d))
    assert [len(side) for side in (g._out_d[b], g._in_d[b], g._out_d[c], g._in_d[c])] == [0] * 4
    for y in (x, d):
        assert g.dag_children(y) == [] and g.dag_parents(y) == []
        assert g.edge_multiplicity(y, a) == g.edge_multiplicity(a, y) == 0
    assert g.dag_children(5) == [4]  # (5, 4) outlived the split of c
    assert not graph._NO_EDGES


def test_add_input_node_checks_every_endpoint_before_any_change():
    g = SccGraph.build([(0, 1)], num_nodes=2)
    with pytest.raises(InputError, match="unknown input node 7"):
        g.add_input_node(5, [0, 5, 7, 1])
    assert (g.capacity, g.num_input_nodes) == (2, 2)
    assert g.input_node_ids() == [0, 1]
    # the id stays free, and the node itself among its endpoints (a
    # self-loop) is no unknown endpoint
    x = g.add_input_node(5, [5, 0])
    assert x == 2 and g.input_slot(5) == x and g.num_input_nodes == 3


# ----------------------------------------------------------------------
# input-layer adjacency lists


def test_build_keeps_first_occurrence_order_of_duplicates():
    g = SccGraph.build([(0, 2), (0, 1), (3, 1), (0, 2), (2, 1), (0, 1), (3, 1)], num_nodes=4)
    assert g.num_input_edges == 4
    assert g._out_i[0] == [2, 1] and g._out_i[3] == [1] and g._out_i[2] == [1]
    assert g._in_i[1] == [0, 3, 2] and g._in_i[2] == [0]


def test_reinserting_an_edge_is_a_no_op():
    g = SccGraph.build([(0, 1), (0, 2), (2, 1)], num_nodes=3)
    assert not g.add_input_edge(0, 1)
    assert not g.add_input_edge(2, 1)
    assert g._out_i[0] == [1, 2] and g._in_i[1] == [0, 2]
    assert g.num_input_edges == 3
    assert g.add_input_edge(1, 0)
    assert g._out_i[1] == [0] and g._in_i[0] == [1] and g.num_input_edges == 4


def test_removing_an_edge_keeps_the_other_entries_in_order():
    g = SccGraph.build([(0, 1), (0, 2), (0, 3), (0, 4), (2, 4), (1, 4), (3, 4)], num_nodes=5)
    g.remove_input_edge(0, 1)
    assert g._out_i[0] == [2, 3, 4] and g._in_i[1] == []
    g.remove_input_edge(0, 4)
    assert g._out_i[0] == [2, 3] and g._in_i[4] == [2, 1, 3]
    g.remove_input_edge(2, 4)
    assert g._in_i[4] == [1, 3] and g._out_i[2] == []
    assert not g.has_input_edge(0, 1) and g.has_input_edge(0, 3)
    assert g.num_input_edges == 4


def test_removing_every_edge_at_a_node_returns_each_once_in_order():
    g = SccGraph.build([(1, 0), (0, 2), (0, 0), (3, 0), (0, 1), (2, 3), (1, 2)], num_nodes=4)
    assert g.remove_input_edges_at(0) == ([2, 0, 1], [1, 3])  # the self-loop once
    assert g._out_i[0] == [] and g._in_i[0] == []
    assert g._out_i[1] == [2] and g._in_i[2] == [1] and g._out_i[3] == [] and g._in_i[1] == []
    assert g.num_input_edges == 2


def test_deleting_a_missing_edge_raises_and_changes_nothing():
    # The SCC {0, 1} takes slot 3, the node 5 slot 4 and the node 4 slot
    # 5; the message names the external ids.
    g = SccGraph.build([(0, 1), (2, 1), (1, 0)], num_nodes=3)
    assert (g.add_input_node(5), g.add_input_node(4)) == (4, 5)
    g.add_input_edge(4, 0)
    before = [None if adj is None else adj[:] for adj in (*g._out_i, *g._in_i)]
    for x, y in ((0, 2), (1, 2), (2, 0), (2, 2), (0, 4), (4, 5), (5, 4)):
        with pytest.raises(InputError, match=rf"^edge \({g.external_id(x)}, {g.external_id(y)}\) does not exist$"):
            g.remove_input_edge(x, y)
    assert [*g._out_i, *g._in_i] == before
    assert g.num_input_edges == 4


def test_a_self_loop_appears_once_in_each_list():
    g = SccGraph.build([(0, 0), (0, 1), (0, 0)], num_nodes=2)
    assert g._out_i[0] == [0, 1] and g._in_i[0] == [0]
    assert g.has_input_edge(0, 0) and not g.add_input_edge(0, 0)
    x = g.add_input_node(7)
    assert g.add_input_edge(x, x) and not g.add_input_edge(x, x)
    assert g._out_i[x] == [x] and g._in_i[x] == [x]
    assert g.num_input_edges == 3


def test_membership_reads_the_shorter_list_on_either_side():
    # (0, 1) sits in a long out-list and a short in-list; (2, 3) the reverse.
    edges = [(0, v) for v in range(1, 40)] + [(w, 3) for w in range(4, 40)] + [(2, 3)]
    g = SccGraph.build(edges, num_nodes=40)
    assert g.has_input_edge(0, 1) and g.has_input_edge(0, 39)
    assert g.has_input_edge(2, 3) and g.has_input_edge(39, 3)
    assert not g.has_input_edge(1, 0) and not g.has_input_edge(3, 2) and not g.has_input_edge(2, 1)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_delete_node_on_a_hub_leaves_no_list_naming_it(k):
    # Hub 0 with a self-loop, leaves 1..30 pointing to it and back (every
    # third one only one way), and a chain among the leaves.
    n = 31
    edges = [(0, 0)]
    for v in range(1, n):
        edges += [(0, v)] if v % 3 == 0 else [(0, v), (v, 0)]
    edges += [(v, v + 1) for v in range(1, n - 1, 4)]
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=k, seed=k))
    mirror = Mirror(edges, n)
    idx.delete_node(0)
    mirror.delete_node(0)
    g = idx.graph
    for lists in (g._out_i, g._in_i):
        assert not any(0 in adj for adj in lists if adj is not None)
    assert g.num_input_edges == len(mirror.edge_list())
    assert 0 not in g.input_node_ids()
    assert_agrees(idx, mirror)
