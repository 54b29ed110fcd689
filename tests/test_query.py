"""Label-pruned queries, checked against searches that share none of
their code."""
from __future__ import annotations

import random

import pytest

from dynreach import InputError, LabelerConfig, LogicError, QueryStats, ReachabilityIndex, gen_er, gen_updates, OpRatios, subsumes
from dynreach.ops import DeleteEdge, DeleteNode, InsertEdge, InsertNode

from oracles import Mirror, dag_reach, edge_reach
from samples import NODE, containment_depth, random_digraph, sample_comps, sample_index


def no_search(*args, **kwargs):
    """Stands in for ``_two_way`` where a query must not search."""
    raise AssertionError("searched")


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
    assert not subsumes(idx.label_of(comps["2"]), idx.label_of(comps["1"]))


def test_reachable_unknown_node():
    # Never inserted (1234) or removed by delete_node (R), on either end;
    # the error names the unknown id, the source's when both are unknown.
    idx = sample_index(k=1)
    idx.delete_node(NODE["R"])
    cases = ((0, 1234, 1234), (1234, 0, 1234), (NODE["R"], 0, NODE["R"]), (0, NODE["R"], NODE["R"]))
    cases += ((1234, NODE["R"], 1234), (NODE["R"], 1234, NODE["R"]))
    for u, v, unknown in cases:
        for query in (idx.reachable, idx.reachable_with_stats):
            with pytest.raises(InputError, match=rf"^unknown input node {unknown}$"):
                query(u, v)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_query_along_a_dag_edge_runs_no_search(k, monkeypatch):
    # A hub with 500 children: the stored DAG edge answers hub -> child.
    idx = ReachabilityIndex.build([(0, c) for c in range(1, 501)], 501, LabelerConfig(k=k, seed=k))
    monkeypatch.setattr(idx, "_two_way", no_search)
    for c in (1, 250, 500):
        assert idx.reachable_with_stats(0, c) == (True, QueryStats(1, 0))
        assert idx.reachable(0, c)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_query_with_failing_labels_runs_no_search(k, monkeypatch):
    # Two disjoint chains: the labels of one hold none of the other's,
    # and a sink's label does not hold its source's.  At k 0 every label
    # test passes: a query from a sink (1 or 3) ends as the source has no
    # DAG child, and the other two search.
    idx = ReachabilityIndex.build([(0, 1), (2, 3)], 4, LabelerConfig(k=k, seed=k))
    monkeypatch.setattr(idx, "_two_way", no_search)
    for u, v in ((0, 3), (3, 0), (2, 1), (1, 0), (3, 2)):
        if k == 0 and u in (0, 2):
            for query in (idx.reachable, idx.reachable_with_stats):
                with pytest.raises(AssertionError, match="searched"):
                    query(u, v)
            continue
        if k > 0:
            assert not subsumes(idx.label_of(u), idx.label_of(v)), (u, v)
        assert not idx.reachable(u, v)
        assert idx.reachable_with_stats(u, v) == (False, QueryStats(1, 0))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_query_two_dag_steps_away_runs_no_search(k, monkeypatch):
    # A node that both ends are adjacent to answers the query: the chain
    # 0 -> 1 -> 2 -> 3, and s -> H -> t where the hub H has 500 other
    # children and 500 other parents.  Three steps, 0 to 3, still search.
    chain = [(0, 1), (1, 2), (2, 3)]
    hub_edges, s, t, _, _ = hub_graph("middle")
    for edges, pairs in ((chain, ((0, 2), (1, 3))), (hub_edges, ((s, t),))):
        idx = ReachabilityIndex.build(edges, max(map(max, edges)) + 1, LabelerConfig(k=k, seed=k))
        monkeypatch.setattr(idx, "_two_way", no_search)
        for u, v in pairs:
            assert idx.reachable(u, v), (u, v)
            assert idx.reachable_with_stats(u, v) == (True, QueryStats(1, 0)), (u, v)
    idx = ReachabilityIndex.build(chain, 4, LabelerConfig(k=k, seed=k))
    mirror = Mirror(chain, 4)
    searches = []
    two_way = idx._two_way

    def counted(*args):
        searches.append(args)
        return two_way(*args)

    monkeypatch.setattr(idx, "_two_way", counted)
    assert idx.reachable(0, 3) == mirror.reach(0, 3) == idx.reachable_with_stats(0, 3)[0]
    assert len(searches) == 2


@pytest.mark.parametrize("k", [0, 1, 2])
def test_query_from_an_emptied_side_runs_no_search(k, monkeypatch):
    # Deleting the last DAG edge out of 1 leaves its out-adjacency {},
    # and the last one into 2 its in-adjacency {}.  At k 0 every
    # label test passes, so only the emptied side can end 1 -> 4 (4 has a
    # parent) and 3 -> 2 or 0 -> 2 (3 and 0 have a child) without a search.
    edges = [(0, 1), (1, 2), (3, 2), (3, 4)]
    idx = ReachabilityIndex.build(edges, 5, LabelerConfig(k=k, seed=k))
    mirror = Mirror(edges, 5)
    for u, v in ((1, 2), (3, 2)):
        idx.delete_edge(u, v)
        mirror.delete_edge(u, v)
    g = idx.graph
    assert g._out_d[idx.find(1)] == {} and g._in_d[idx.find(2)] == {}
    monkeypatch.setattr(idx, "_two_way", no_search)
    for u, v in ((1, 4), (1, 3), (3, 2), (0, 2)):
        assert not mirror.reach(u, v), (u, v)
        assert not idx.reachable(u, v), (k, u, v)
        assert idx.reachable_with_stats(u, v) == (False, QueryStats(1, 0)), (k, u, v)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_search_counts_never_leak_into_a_later_answer(k):
    # 0 -> 3 on the chain 0 -> 1 -> 2 -> 3 searches; {4, 5} is one SCC.
    # The answers without a search that follow it read (1, 0), whichever
    # query method ran the search.
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 4), (5, 6)]
    for first in ("reachable_with_stats", "reachable"):
        idx = ReachabilityIndex.build(edges, 7, LabelerConfig(k=k, seed=k))
        dry, visited, pruned, _ = idx._two_way(idx.find(0), idx.find(3), False)
        assert dry < 0 and visited > 1
        if first == "reachable":
            assert idx.reachable(0, 3)
        else:
            assert idx.reachable_with_stats(0, 3) == (True, QueryStats(visited, pruned))
        for u, v in ((4, 5), (0, 1), (0, 2)):
            assert idx.reachable_with_stats(u, v) == (True, QueryStats(1, 0)), (first, u, v)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_query_of_a_deep_member_compresses_its_link(k):
    # {0, 1, 7} is one SCC and {2, 3, 4, 8} a larger one; the edge 1 -> 2
    # merges the first into the second, so 0, 1 and 7 link to the second
    # through the first: the query looks them up by _find, not by one hop.
    edges = [(0, 1), (1, 7), (7, 0), (2, 3), (3, 4), (4, 8), (8, 2), (4, 0), (5, 2), (7, 6)]
    for query in ("reachable", "reachable_with_stats"):
        idx = ReachabilityIndex.build(edges, 9, LabelerConfig(k=k, seed=k))
        mirror = Mirror(edges, 9)
        idx.insert_edge(1, 2)
        mirror.insert_edge(1, 2)
        g = idx.graph
        assert [containment_depth(g, g.input_slot(x)) for x in (0, 1, 7)] == [2, 2, 2]
        ask = getattr(idx, query)
        for u, v in ((0, 6), (0, 5), (5, 1), (6, 1), (7, 7)):
            found = ask(u, v)
            if query == "reachable_with_stats":
                found = found[0]
            assert found == mirror.reach(u, v), (query, u, v)
        assert [containment_depth(g, g.input_slot(x)) for x in (0, 1, 7)] == [1, 1, 1]


def test_reachable_examples_match_dag_reach():
    idx = sample_index(k=1)
    g = idx.graph
    comps = sample_comps(g)
    cases = ((NODE["A"], NODE["N"], True), (NODE["N"], NODE["T"], True), (NODE["N"], NODE["A"], False))
    for u, v, want in cases:
        assert dag_reach(g, idx.find(u), idx.find(v)) == want, (u, v)
        assert idx.reachable(u, v) == want, (u, v)
    idx.insert_edge(NODE["N"], NODE["B"])
    assert idx.reachable(NODE["N"], NODE["A"]) and idx.find(NODE["N"]) == idx.find(NODE["A"])
    with pytest.raises(LogicError):
        idx.label_of(comps["1"])  # component 1 expired


def test_reachable_lifts_edge_reach():
    for seed in range(50):
        n = 20
        edges = random_digraph(n, 36, seed)
        idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=seed))
        rng = random.Random(seed)
        for _ in range(12):
            u, v = rng.randrange(n), rng.randrange(n)
            want = edge_reach(edges, u, v)
            assert dag_reach(idx.graph, idx.find(u), idx.find(v)) == want, (seed, u, v)
            assert idx.reachable(u, v) == want, (seed, u, v)


def test_pruned_children_are_truly_unreachable():
    # Contrapositive of label soundness, checked exhaustively: a failed
    # cover test between current components implies no DAG path.
    for order in ("ltr", "both", None):
        idx = sample_index(order=order) if order else sample_index(k=2, order=None)
        nodes = idx.graph.current_dag_nodes()
        for s in nodes:
            for t in nodes:
                if not subsumes(idx.label_of(s), idx.label_of(t)):
                    assert not dag_reach(idx.graph, s, t), (order, s, t)


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


@pytest.mark.parametrize("order", ["both", "reversed"])
def test_query_stats_counts_pruned_children(order):
    # k 2 with one pinned order per dimension, and k 1 reversed: queries
    # and merge searches both prune at either k.
    idx = sample_index(order=order)
    pruned_total = 0
    for u in range(19):
        for v in range(19):
            _, stats = idx.reachable_with_stats(u, v)
            assert stats.visited >= 1
            pruned_total += stats.pruned
    assert pruned_total > 0
    comps = {idx.find(u) for u in range(19)}
    merge_pruned = sum(
        idx._two_way(t, s, keep=True)[2]
        for s in comps
        for t in comps
        if s != t and idx.labeler.covers(t, s)
    )
    assert merge_pruned > 0


def hub_graph(position: str) -> tuple[list[tuple[int, int]], int, int, list[int], list[int]]:
    """A hub H = 0 with 500 leaf children (1-500) and 500 source parents
    (501-1000), and a positive pair (s, t) with H at ``position``: in the
    middle of s -> H -> t, at s (H -> 1001 -> t) or at t (s -> 1001 -> H).
    The edges into t and out of s come last, so a forward search from H
    meets t only after H's other children."""
    hub, children, parents = 0, list(range(1, 501)), list(range(501, 1001))
    edges = [(hub, c) for c in children] + [(p, hub) for p in parents]
    if position == "middle":
        s, t = 1001, 1002
        edges += [(s, hub), (hub, t)]
    elif position == "s":
        s, t = hub, 1002
        edges += [(hub, 1001), (1001, t)]
    else:
        s, t = 1002, hub
        edges += [(1001, hub), (s, 1001)]
    return edges, s, t, children, parents


@pytest.mark.parametrize("position", ["middle", "s", "t"])
def test_hub_on_a_query_path_is_not_scanned(position):
    # The search runs from both ends and the side with fewer edges left
    # expands first, so neither side label-tests the hub's 500 children
    # or 500 parents.  A forward search from s tests the children when the
    # hub is in the middle or at s.
    edges, s, t, children, parents = hub_graph(position)
    n = max(map(max, edges)) + 1
    mirror = Mirror(edges, n)
    rng = random.Random(5)
    pairs = [(s, t), (t, s), (s, children[7]), (parents[3], t), (parents[9], children[11])]
    pairs += [(children[1], parents[2]), (children[4], children[5]), (parents[6], parents[8])]
    pairs += [(children[rng.randrange(500)], t) for _ in range(5)]
    pairs += [(s, parents[rng.randrange(500)]) for _ in range(5)]
    for k in (1, 2):
        idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=k, seed=9))
        for u, v in pairs:
            want = mirror.reach(u, v)
            assert idx.reachable(u, v) == want, (k, u, v)
            found, stats = idx.reachable_with_stats(u, v)
            assert found == want, (k, u, v)
            assert stats.pruned + stats.visited <= 6, (k, u, v, stats)
            assert dag_reach(idx.graph, idx.find(u), idx.find(v)) == want, (k, u, v)
