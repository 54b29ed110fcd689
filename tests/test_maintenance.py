"""The four update operations, merge/split machinery, and batch application."""
from __future__ import annotations

import random
import signal

import pytest

from dynreach import (
    DeleteEdge,
    InputError,
    InsertEdge,
    InsertNode,
    InternalError,
    IntervalLabeler,
    LabelerConfig,
    LogicError,
    Query,
    ReachabilityIndex,
    SccGraph,
    subsumes,
)

from oracles import Mirror, assert_agrees, check_label_invariants, kosaraju_partition, reachable_pairs
from samples import (
    NODE,
    PinnedLabeler,
    SAMPLE_EDGES,
    random_dag,
    random_digraph,
    random_strongly_connected,
    sample_comps,
    sample_index,
    set_labels,
)


def snapshot(idx):
    g = idx.graph
    return (
        idx.scc_partition(),
        {s: idx.label_of(s) for s in g.current_dag_nodes()},
        sorted(g.input_edges()),
    )


# ----------------------------------------------------------------------
# edge insertion


def test_insert_intra_component_edge_changes_nothing():
    idx = sample_index(k=1)
    before = snapshot(idx)
    idx.insert_edge(NODE["A"], NODE["B"])  # A, B share a component already
    after = snapshot(idx)
    assert before[0] == after[0] and before[1] == after[1]


def test_insert_duplicate_edge_is_noop():
    idx = sample_index(k=1)
    before = snapshot(idx)
    idx.insert_edge(NODE["R"], NODE["A"])
    assert snapshot(idx) == before


def test_insert_unknown_node_rejected():
    idx = sample_index(k=1)
    with pytest.raises(InputError):
        idx.insert_edge(NODE["R"], 404)


def test_insert_merge_scenario():
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    mlist = idx.collect_merge_list(comps["1"], comps["3"])
    assert mlist[0] == comps["3"] and mlist[-1] == comps["1"]
    assert sorted(mlist) == sorted([comps["3"], NODE["L"], NODE["H"], NODE["I"], comps["1"]])
    idx.insert_edge(NODE["N"], NODE["B"])
    rep = idx.find(NODE["N"])
    assert rep == comps["3"]
    assert idx.graph.scc_size(rep) == 11
    assert idx.find(NODE["A"]) == rep and idx.find(NODE["L"]) == rep
    check_label_invariants(idx)


def test_insert_merge_label_adoption_before_propagation():
    # Closing N -> B merges {1, H, I, L, 3}.  Component 3 is the largest
    # (5 nodes), so it is the representative and keeps its label.  Its one
    # new external child, M, ends above it; 3 has more DAG parents (3)
    # than M has DAG children (0), so M's end is lowered to one below 3's.
    # No other label changes.
    for order in ("reversed", "ltr", "both"):
        idx = sample_index(k=1, order=order)
        g = idx.graph
        comps = sample_comps(g)
        members = [comps["1"], NODE["H"], NODE["I"], NODE["L"], comps["3"]]
        assert sorted(g.scc_size(m) for m in members) == [1, 1, 1, 3, 5]
        assert g.scc_size(comps["3"]) == 5
        before = {s: idx.label_of(s) for s in g.current_dag_nodes()}
        rep_label, m = before[comps["3"]], before[NODE["M"]]
        assert all(em >= er for (_, er), (_, em) in zip(rep_label, m))
        idx.insert_edge(NODE["N"], NODE["B"])
        rep = idx.find(NODE["N"])
        assert rep == comps["3"]
        assert g.dag_children(rep) == [NODE["M"]] and len(g.dag_parents(rep)) == 3
        assert idx.label_of(rep) == rep_label
        assert idx.label_of(NODE["M"]) == tuple((bm, er - 1) for (_, er), (bm, _) in zip(rep_label, m))
        for s in g.current_dag_nodes():
            if s not in (rep, NODE["M"]):
                assert idx.label_of(s) == before[s], s
        check_label_invariants(idx)


@pytest.mark.parametrize("k", [1, 2])
def test_merge_gives_the_least_label_over_new_children_and_parents(k):
    # Inserting (1, 0) closes 0 -> R -> 1 with R = {5, 6, 7}, the
    # representative.  The merge gives R the children 2 and 3 of 0 and
    # the parent 4 of 1.  R's begin falls to the least of its new
    # children's, and its end stays: child 3 ends above it, and R has more
    # DAG parents (1) than 3 has DAG children (0), so 3's end is lowered
    # to one below R's, while 2 already ends below.  Parent 4 ends below R
    # and has fewer DAG parents (0) than R has DAG children (2), so 4 is
    # raised to one above R's end, and its begin falls to R's.
    edges = [(5, 6), (6, 7), (7, 5), (0, 5), (7, 1), (0, 2), (0, 3), (4, 1), (4, 2)]
    g = SccGraph.build(edges, 8)
    r = g.find_scc(5)
    # Roots 4 then 0; 4 labels 2 before 1, and 0 labels R before 3.
    order = {4: -2, 2: -1, r: -1}
    lab = PinnedLabeler(LabelerConfig(k=k), [order] * k)
    lab.initial_labels(g)
    idx = ReachabilityIndex(g, lab)
    old = idx.label_of(r)
    kids = [idx.label_of(2), idx.label_of(3)]
    old4 = idx.label_of(4)
    want = tuple((min(b, *(kid[d][0] for kid in kids)), e) for d, (b, e) in enumerate(old))
    for d in range(k):
        assert want[d][0] < old[d][0]
        assert kids[0][d][1] < old[d][1] <= kids[1][d][1]
        assert old4[d][1] < old[d][1]
    idx.insert_edge(1, 0)
    assert idx.find(0) == idx.find(1) == r
    assert sorted(g.dag_children(r)) == [2, 3] and g.dag_parents(r) == [4]
    assert idx.label_of(r) == want
    assert idx.label_of(2) == kids[0]
    assert idx.label_of(3) == tuple((b, e - 1) for (b, _), (_, e) in zip(kids[1], old))
    assert idx.label_of(4) == tuple((min(b4, b), e + 1) for (b4, _), (b, e) in zip(old4, want))
    mirror = Mirror(edges, 8)
    mirror.insert_edge(1, 0)
    assert_agrees(idx, mirror)
    for u in range(8):
        for v in range(8):
            assert idx.reachable(u, v) == mirror.reach(u, v), (u, v)


@pytest.mark.parametrize("k", [1, 2])
def test_merge_lowers_a_representative_that_is_parent_and_child(k):
    # Inserting (1, 0) closes 0 -> R -> 1 with R = {5, 6, 7}, the
    # representative, which is then a child and a parent in the merge's
    # one propagate.  Its new child 8 (of 0) ends above it, but has more
    # DAG children (3) than R has DAG parents (1), so R is queued to be
    # raised over 8.  Its new parent 2 (of 1) ends below it and has more
    # DAG parents (2) than R has DAG children (1), so R is lowered below
    # 2, and the lowering takes 8 below R.  Then nothing is left to raise:
    # only R's and 8's ends change.
    edges = [(5, 6), (6, 7), (7, 5), (0, 5), (7, 1), (0, 8), (8, 9), (8, 10), (8, 11), (2, 1), (3, 2), (4, 2)]
    g = SccGraph.build(edges, 12)
    r = g.find_scc(5)
    lab = IntervalLabeler(LabelerConfig(k=k))
    lab.initial_labels(g)
    ends = {9: 1, 10: 2, 11: 3, 1: 4, 2: 6, 3: 7, 4: 7, r: 8, 8: 10, 0: 11}
    set_labels(lab, {x: ((0, e),) * k for x, e in ends.items()})
    idx = ReachabilityIndex(g, lab)
    check_label_invariants(idx)
    idx.insert_edge(1, 0)
    assert idx.find(0) == idx.find(1) == r
    assert g.dag_children(r) == [8] and g.dag_parents(r) == [2]
    want = {**ends, r: 5, 8: 4}
    del want[0], want[1]
    assert {x: idx.label_of(x) for x in g.current_dag_nodes()} == {x: ((0, e),) * k for x, e in want.items()}
    mirror = Mirror(edges, 12)
    mirror.insert_edge(1, 0)
    assert_agrees(idx, mirror)
    for u in range(12):
        for v in range(12):
            assert idx.reachable(u, v) == mirror.reach(u, v), (u, v)


def test_insert_replay_against_dual_oracles():
    n = 64
    edges = random_digraph(n, 96, seed=17)
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=2, seed=17))
    mirror = Mirror(edges, n)
    rng = random.Random(99)
    for step in range(500):
        u, v = rng.randrange(n), rng.randrange(n)
        idx.insert_edge(u, v)
        mirror.insert_edge(u, v)
        assert idx.scc_partition() == mirror.partition(), step
        for _ in range(2):
            a, b = rng.randrange(n), rng.randrange(n)
            assert idx.reachable(a, b) == mirror.reach(a, b), (step, a, b)


def scc_with_fringe(position: str) -> tuple[list[tuple[int, int]], int, int]:
    """A 200-node SCC (cycle plus chords) with a DAG fringe, and the edge
    (u, v) whose insertion closes a cycle through it and the path nodes
    200-202, with the SCC as the new edge's tail 's', its head 't', or in
    the 'middle' of the merge set.  The SCC has five parents of its own
    (210-214) and children 220-222; each path node has one parent
    (230-232) and one of the SCC's children as its external child."""
    edges = random_strongly_connected(200, 100, seed=7)
    edges += [(210 + i, 40 * i) for i in range(5)]
    edges += [(20 * i + 3, 220 + i) for i in range(3)]
    edges += [(230 + i, 200 + i) for i in range(3)] + [(200 + i, 220 + i) for i in range(3)]
    if position == "s":
        return edges + [(200, 201), (201, 202), (202, 5)], 9, 200
    if position == "t":
        return edges + [(9, 200), (200, 201), (201, 202)], 202, 5
    return edges + [(200, 201), (201, 5), (9, 202)], 202, 200


@pytest.mark.parametrize("position", ["s", "t", "middle"])
def test_merge_into_large_scc_pays_for_the_small_side(position):
    # The SCC is the representative: the merged label is its own, since
    # the other members' external children are its children too, so none
    # of its parents changes; and the insert runs one condensation search.
    edges, u, v = scc_with_fringe(position)
    n = max(map(max, edges)) + 1
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=2, seed=3))
    core = idx.find(0)
    assert idx.graph.scc_size(core) == 200
    label = idx.label_of(core)
    anchor_parents = {x: idx.label_of(x) for x in range(210, 215)}
    searches = []
    two_way = idx._two_way

    def counting(*args, **kwargs):
        searches.append(kwargs["keep"])
        return two_way(*args, **kwargs)

    idx._two_way = counting
    idx.insert_edge(u, v)
    mirror = Mirror(edges, n)
    mirror.insert_edge(u, v)
    assert idx.scc_partition() == mirror.partition()
    assert idx.graph.scc_size(idx.find(0)) == 203
    check_label_invariants(idx)
    assert idx.label_of(idx.find(0)) == label  # the hull did not widen
    assert {x: idx.label_of(x) for x in anchor_parents} == anchor_parents
    assert searches == [True]  # one merge search, and no query search


class CountingDict(dict):
    """A DAG adjacency dict that counts the loops over it."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


def spy_merge_search(idx, hub):
    """Record each ``_two_way`` result of ``idx``, with the loops it made
    over ``hub``'s DAG children and parents."""
    g = idx.graph
    g._out_d[hub] = CountingDict(g._out_d[hub])
    g._in_d[hub] = CountingDict(g._in_d[hub])
    adjacency = (g._out_d[hub], g._in_d[hub])
    searches = []
    two_way = idx._two_way

    def counting(*args, **kwargs):
        result = two_way(*args, **kwargs)
        searches.append((result, sum(d.loops for d in adjacency)))
        return result

    idx._two_way = counting
    return searches


def test_merge_search_never_expands_a_middle_hub():
    # t = 201 -> 0 -> s = 202, also through 1, 2 and 3, and the hub 0 has
    # 100 children and 100 parents.  Both sides find the hub before either
    # expands it, so it is the search's hub: neither side label-tests its
    # edges, and the backward side alone finds 1, 2 and 3.
    edges = [(0, c) for c in range(1, 101)] + [(p, 0) for p in range(101, 201)]
    edges += [(201, 0), (0, 202), (1, 202), (2, 202), (3, 202)]
    idx = ReachabilityIndex.build(edges, 203, LabelerConfig(k=1, seed=4))
    searches = spy_merge_search(idx, 0)
    idx.insert_edge(202, 201)
    mirror = Mirror(edges, 203)
    mirror.insert_edge(202, 201)
    assert_agrees(idx, mirror)
    assert idx.graph.scc_size(idx.find(0)) == 6
    (((dry, visited, pruned, (_, starts)), loops),) = searches
    assert dry == 2 and starts == (202, 201, 0)  # both sides ran dry past the hub 0
    assert loops == 0
    assert (visited, pruned) == (6, 0)  # one plus 0 forward, and 0, 1, 2 and 3 backward


@pytest.mark.parametrize("k", [0, 1, 2])
def test_merge_search_skips_dead_ends_at_a_hub(k):
    # t = 251 -> 0 -> s = 252, and the hub 0 has 150 sink children and
    # 100 source parents.  Both sides find the hub from their start, so it
    # is the search's hub: neither side expands it, and both run dry with
    # the hub alone found, from both ends.
    edges = [(0, c) for c in range(1, 151)] + [(p, 0) for p in range(151, 251)]
    edges += [(251, 0), (0, 252)]
    idx = ReachabilityIndex.build(edges, 253, LabelerConfig(k=k, seed=4))
    searches = spy_merge_search(idx, 0)
    idx.insert_edge(252, 251)
    mirror = Mirror(edges, 253)
    mirror.insert_edge(252, 251)
    assert_agrees(idx, mirror)
    assert idx.graph.scc_size(idx.find(0)) == 3
    (((dry, visited, pruned, (_, starts)), loops),) = searches
    assert dry == 2 and starts == (252, 251, 0)
    assert loops == 0
    assert (visited, pruned) == (3, 0)  # one plus the hub, counted once per side


@pytest.mark.parametrize("k", [0, 1, 2])
def test_merge_search_passes_a_large_hub_in_the_middle_of_the_merge_set(k):
    # t = 0 -> 1 -> X = 2 -> 3 -> s = 4, and X has 3,000 children and 3,000
    # parents, none of them a dead end: every child leads on to the sink
    # 6005, and the source 6006 leads to every parent.  Expanding X would
    # find or prune thousands of them on either side; the merge search
    # finds X from both sides and expands it on neither.
    n = 6007
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    edges += [(2, c) for c in range(5, 3005)] + [(c, 6005) for c in range(5, 3005)]
    edges += [(p, 2) for p in range(3005, 6005)] + [(6006, p) for p in range(3005, 6005)]
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=k, seed=k))
    searches = spy_merge_search(idx, 2)
    idx.insert_edge(4, 0)
    mirror = Mirror(edges, n)
    mirror.insert_edge(4, 0)
    assert_agrees(idx, mirror)
    assert idx.graph.scc_size(idx.find(2)) == 5
    (((_, visited, pruned, _), loops),) = searches
    assert visited + pruned < 50
    assert loops == 0


@pytest.mark.parametrize("k", [0, 1, 2])
def test_merge_search_skips_only_one_hub(k):
    # t = 0 -> z = 1 -> Y = 2 -> z' = 4 -> s = 5, with z -> q = 3 -> s and
    # t -> r = 6 -> z', and z' also leads to the sink 7.  The forward side
    # expands t, then r, which finds z' after the backward side found it;
    # z' has more edges left than q, so the backward side expands q,
    # which finds z, and then takes z': z' becomes the hub.  z, too, was
    # found by both sides before either expanded it, but it is not
    # skipped: the forward side expands it and finds Y.  Were every such
    # node skipped, neither side would find Y.
    edges = [(0, 6), (0, 1), (1, 2), (2, 4), (3, 5), (4, 5), (1, 3), (6, 4), (4, 7)]
    idx = ReachabilityIndex.build(edges, 8, LabelerConfig(k=k, seed=k))
    dry, _, _, ((forward, backward), starts) = idx._two_way(0, 5, keep=True)
    assert dry == 2 and starts == (5, 0, 4)  # z' is the hub
    assert 1 in forward and 1 in backward  # z was found by both sides too
    assert 2 in forward and 2 not in backward  # Y, through z alone
    assert sorted(idx.collect_merge_list(0, 5)) == [0, 1, 2, 3, 4, 5, 6]
    idx.insert_edge(5, 0)
    mirror = Mirror(edges, 8)
    mirror.insert_edge(5, 0)
    assert_agrees(idx, mirror)
    assert idx.find(2) == idx.find(0)


# ----------------------------------------------------------------------
# merge list


def test_merge_list_two_elements():
    idx = ReachabilityIndex.build([(1, 0)], 2, LabelerConfig(k=1, seed=0))
    assert idx.collect_merge_list(1, 0) == [0, 1]


def test_merge_list_requires_reachability():
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    before = snapshot(idx)
    assert idx.collect_merge_list(comps["3"], comps["1"]) == []  # 3 does not reach 1
    assert snapshot(idx) == before


def test_merge_list_equals_path_intersection_oracle():
    # Random DAGs with 1-3 planted hubs and every (t, s) pair, at k 0, 1
    # and 2: the merge list is exactly the nodes that t reaches and that
    # reach s, and some searches pass a hub.
    hubbed = 0
    for seed in range(10):
        edges = random_dag(28, 56, seed, hubs=1 + seed % 3)
        out = {u: set() for u in range(28)}
        for u, v in edges:
            out[u].add(v)
        reach = reachable_pairs(list(range(28)), out)
        for k in (0, 1, 2):
            idx = ReachabilityIndex.build(edges, 28, LabelerConfig(k=k, seed=seed))
            for t in range(28):
                for s in range(28):
                    if t == s:
                        continue
                    got = idx.collect_merge_list(t, s)
                    if s not in reach[t]:
                        assert got == [], (seed, k, t, s)
                        continue
                    want = {w for w in range(28) if w in reach[t] and s in reach[w]} | {s}
                    assert sorted(got) == sorted(want), (seed, k, t, s)
                    assert got[0] == s and got[-1] == t
                    hubbed += idx._two_way(t, s, keep=True)[0] == 2
    assert hubbed


# ----------------------------------------------------------------------
# edge deletion


def test_delete_inter_multiplicity_only():
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    assert idx.graph.edge_multiplicity(NODE["R"], comps["2"]) == 2
    before = snapshot(idx)
    idx.delete_edge(NODE["R"], NODE["D"])
    assert idx.graph.edge_multiplicity(NODE["R"], comps["2"]) == 1
    assert idx.scc_partition() == before[0]
    assert {s: idx.label_of(s) for s in idx.graph.current_dag_nodes()} == before[1]
    idx.delete_edge(NODE["R"], NODE["E"])
    assert idx.graph.edge_multiplicity(NODE["R"], comps["2"]) == 0
    assert not idx.reachable(NODE["R"], NODE["G"])


def test_delete_missing_edge_rejected():
    idx = sample_index(k=1)
    with pytest.raises(InputError):
        idx.delete_edge(NODE["M"], NODE["R"])


def test_delete_split_scenarios():
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    idx.insert_edge(NODE["N"], NODE["B"])

    idx.delete_edge(NODE["L"], NODE["P"])
    assert idx.find(NODE["L"]) == NODE["L"]
    assert idx.find(NODE["H"]) == NODE["H"]
    assert idx.graph.scc_size(comps["3"]) == 9
    # untouched remnant members keep their old containment chain
    assert idx.find(NODE["A"]) == comps["3"]
    check_label_invariants(idx)

    # The deletion plants trees at N.  B's race against that root runs
    # dry on {A, B, C} first, so that side breaks off and the remnant
    # {N, O, P, S, T} keeps the handle.
    idx.delete_edge(NODE["N"], NODE["B"])
    c1 = idx.find(NODE["A"])
    assert c1 != comps["3"] and idx.graph.scc_size(c1) == 3
    assert {idx.find(NODE[x]) for x in "ABC"} == {c1}
    assert {idx.find(NODE[x]) for x in "NOPST"} == {comps["3"]}
    assert idx.graph.scc_size(comps["3"]) == 5
    assert idx.find(NODE["I"]) == NODE["I"]
    check_label_invariants(idx)


def test_delete_inside_cycle_with_alternate_path():
    # 3-cycle plus a chord: deleting the chord leaves the cycle intact
    edges = [(0, 1), (1, 2), (2, 0), (0, 2)]
    idx = ReachabilityIndex.build(edges, 3, LabelerConfig(k=1, seed=1))
    before = snapshot(idx)
    idx.delete_edge(0, 2)
    assert idx.scc_partition() == before[0]
    assert {s: idx.label_of(s) for s in idx.graph.current_dag_nodes()} == before[1]
    assert idx.reachable(0, 2)


def test_extract_requires_membership():
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    with pytest.raises(LogicError):
        idx.extract_components(comps["1"], (NODE["A"],), (NODE["R"],))


def test_extract_requires_trees():
    idx = sample_index(k=1)
    s = sample_comps(idx.graph)["1"]
    assert s not in idx.graph._trees
    with pytest.raises(LogicError, match=f"component {s} has no trees"):
        idx.extract_components(s, (NODE["A"],), (NODE["B"],))


def test_delete_random_internal_edges_match_oracle():
    for seed in range(15):
        n = random.Random(seed).randrange(6, 32)
        edges = random_strongly_connected(n, n // 2, seed)
        idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=2, seed=seed))
        assert len(idx.scc_partition()) == 1
        mirror = Mirror(edges, n)
        rng = random.Random(seed + 1000)
        for _ in range(4):
            elist = mirror.edge_list()
            u, v = elist[rng.randrange(len(elist))]
            idx.delete_edge(u, v)
            mirror.delete_edge(u, v)
            assert idx.scc_partition() == mirror.partition(), (seed, u, v)
            check_label_invariants(idx)


def one_scc_with_edge(shape: str) -> tuple[list[tuple[int, int]], int, int]:
    """A strongly connected graph of 200+ nodes and the edge (u, v) to
    delete: a 200-node core (cycle plus chords) with v = 200 hanging off
    it by that edge alone ('head'), with u = 200 leaving it by that edge
    alone ('tail'), or with both, u = 200 and v = 201 ('both')."""
    edges = random_strongly_connected(200, 100, seed=5)
    if shape == "head":
        return edges + [(7, 200), (200, 50), (200, 120)], 7, 200
    if shape == "tail":
        return edges + [(30, 200), (150, 200), (200, 7)], 200, 7
    return edges + [(30, 200), (150, 200), (200, 201), (201, 50), (201, 120)], 200, 201


@pytest.mark.parametrize(
    "shape, detached",
    [("head", [200]), ("tail", [200]), ("both", [200, 201])],
)
def test_split_moves_only_what_breaks_off(shape, detached):
    # The deleted edge is v's only in-edge, u's only out-edge, or both;
    # in each case the core keeps the handle and its label, and only the
    # nodes that break off are passed to apply_split.
    edges, u, v = one_scc_with_edge(shape)
    n = max(map(max, edges)) + 1
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=2, seed=1))
    s = idx.find(u)
    assert idx.graph.scc_size(s) == n
    label = idx.label_of(s)
    moved = []
    apply_split = idx.graph.apply_split

    def recording(s, keep, comps):
        moved.append(sorted(x for members in comps for x in members))
        return apply_split(s, keep, comps)

    idx.graph.apply_split = recording
    idx.delete_edge(u, v)
    mirror = Mirror(edges, n)
    mirror.delete_edge(u, v)
    assert idx.scc_partition() == mirror.partition()
    check_label_invariants(idx)
    assert moved == [detached]  # build gives input u slot u
    assert all(idx.find(x) == s for x in range(n) if x not in detached)
    assert idx.label_of(s) == label


def test_delete_node_in_large_scc_extracts_once():
    # x sits in a 200-node SCC with internal edges both ways and a
    # self-loop, and has two edges to the SCC {200, 201} below it and two
    # from the SCC {202, 203} above it, which other members share.  Every
    # edge is unlinked as an edge deletion unlinks it, and the SCC is
    # split once.
    edges = random_strongly_connected(200, 100, seed=3)
    x = max(range(200), key=lambda w: sum(a == w for a, _ in edges))
    assert sum(a == x for a, _ in edges) > 1
    y = (x + 100) % 200
    edges += [(x, x), (200, 201), (201, 200), (202, 203), (203, 202)]
    edges += [(x, 200), (x, 201), (y, 200), (202, x), (203, x), (203, y)]
    for k in (0, 1, 2):
        idx = ReachabilityIndex.build(edges, 204, LabelerConfig(k=k, seed=0))
        assert idx.graph.edge_multiplicity(idx.find(x), idx.find(200)) == 3
        calls = []
        extract = idx.extract_components

        def counting(*args):
            calls.append(args)
            return extract(*args)

        idx.extract_components = counting
        idx.delete_node(x)
        mirror = Mirror(edges, 204)
        mirror.delete_node(x)
        assert len(calls) == 1, k
        assert_agrees(idx, mirror)


class CountingList(list):
    """An input adjacency list that counts the loops over it."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


def test_deleting_hub_out_edges_never_scans_the_hub():
    # A star: hub 0 with an edge to and from each of 2,000 leaves, one SCC
    # whose trees are rooted at the hub, the node of highest degree.
    # Deleting (0, leaf) leaves the leaf without an in-edge: it finds no
    # new out-tree parent, and its race against the hub runs dry on the
    # leaf's side before the hub's side expands.
    leaves = 2000
    edges = [(0, x) for x in range(1, leaves + 1)] + [(x, 0) for x in range(1, leaves + 1)]
    idx = ReachabilityIndex.build(edges, leaves + 1, LabelerConfig(k=1, seed=0))
    g = idx.graph
    assert g._trees[idx.find(0)][0] == 0
    g._out_i[0] = CountingList(g._out_i[0])
    g._in_i[0] = CountingList(g._in_i[0])
    mirror = Mirror(edges, leaves + 1)
    for x in range(1, 201):
        idx.delete_edge(0, x)
        mirror.delete_edge(0, x)
    assert g._out_i[0].loops == g._in_i[0].loops == 0
    assert g.scc_size(idx.find(0)) == leaves - 200 + 1
    assert_agrees(idx, mirror)


# When the trees cannot certify a split, what is left of the component is
# decomposed by one restricted Tarjan, its largest piece keeps the handle,
# and the trees are dropped.  ``assert_agrees`` also runs ``check_trees``.


def test_a_root_that_loses_its_only_out_edge_falls_back_to_tarjan():
    # The root 0, the node of highest degree, has the one out-edge (0, 1).
    # Deleting it breaks 0 off; {1, 2, 3} keeps the handle.
    edges = [(0, 1), (1, 2), (2, 3), (3, 1), (1, 0), (2, 0), (3, 0)]
    idx = ReachabilityIndex.build(edges, 4, LabelerConfig(k=1, seed=0))
    g = idx.graph
    s = idx.find(0)
    assert g._trees[s][0] == 0 and g._out_i[0] == [1]
    idx.delete_edge(0, 1)
    mirror = Mirror(edges, 4)
    mirror.delete_edge(0, 1)
    assert s not in g._trees and g.scc_size(s) == 3
    assert idx.find(1) == idx.find(2) == idx.find(3) == s and idx.find(0) == 0
    assert_agrees(idx, mirror)


def test_a_race_whose_root_side_runs_dry_falls_back_to_tarjan():
    # The root 0 sits in the 2-cycles with 7, 8 and 9, and (3, 0) is the
    # in-tree parent edge of 3, the one edge back to 0 from the cycles
    # through 1.  Deleting it leaves 3 no out-neighbour whose in-tree
    # chain avoids 3, and its race runs forward through 1, 2, 4, 5 and 6
    # while the root's side runs dry on {0, 7, 8, 9}.  The larger piece,
    # {1, ..., 6}, keeps the handle.
    edges = [(0, 7), (7, 0), (0, 8), (8, 0), (0, 9), (9, 0), (0, 1)]
    edges += [(1, 2), (2, 3), (3, 1), (3, 0), (1, 4), (4, 5), (5, 6), (6, 1)]
    idx = ReachabilityIndex.build(edges, 10, LabelerConfig(k=1, seed=0))
    g = idx.graph
    s = idx.find(0)
    assert g._trees[s][0] == 0 and g._tin[3] == 0
    races = []
    race = idx._race

    def recording(*args):
        races.append(race(*args))
        return races[-1]

    idx._race = recording
    idx.delete_edge(3, 0)
    mirror = Mirror(edges, 10)
    mirror.delete_edge(3, 0)
    # 3 no longer reaches 0, so the searches cannot have met.
    assert races == [None] and not idx.reachable(3, 0)
    assert s not in g._trees and g.scc_size(s) == 6
    assert {idx.find(x) for x in range(1, 7)} == {s} and idx.find(0) != s
    assert_agrees(idx, mirror)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_race_stops_at_the_component_boundary(k):
    # s = {0, ..., 4} around the hub 0, its root; s' = {5, 6, 7} has an
    # edge into s at 1 and, after (5, 7) goes, trees of its own, so its
    # slots hold a generation other than s's.  Deleting (0, 1) leaves 1
    # only the in-neighbour 5: 1 races backward, must not enter s', and
    # breaks off alone; then 2, whose out-tree parent was 1, does too.
    edges = [(0, 3), (3, 0), (0, 4), (4, 0), (0, 1), (1, 2), (2, 0)]
    edges += [(5, 6), (6, 5), (5, 7), (7, 5), (6, 7), (7, 6), (5, 1)]
    idx = ReachabilityIndex.build(edges, 8, LabelerConfig(k=k, seed=0))
    mirror = Mirror(edges, 8)
    g = idx.graph
    s = idx.find(0)
    assert g._trees[s][0] == 0 and g._tout[1] == 0 and g._tout[2] == 1
    idx.delete_edge(5, 7)
    mirror.delete_edge(5, 7)
    t = idx.find(5)
    assert g.scc_size(t) == 3 and t in g._trees and g._tgen[5] not in (0, g._trees[s][1])
    races = []
    race = idx._race

    def recording(*args):
        races.append(race(*args))
        return races[-1]

    idx._race = recording
    idx.delete_edge(0, 1)
    mirror.delete_edge(0, 1)
    assert races == [[1], [2]]
    assert g._trees[s][0] == 0 and g.scc_size(s) == 3
    assert_agrees(idx, mirror)


def test_an_item_that_meets_the_root_without_a_parent_falls_back_to_tarjan():
    # The root 0 finds 1, 3 and 4, then 2 through 1, so 2's out-tree
    # parent is 1.  Deleting (0, 1) leaves 1 only the in-edge from 2, whose
    # chain passes 1 itself: 1 finds no parent, yet its race meets the
    # root through 3.  The trees are dropped and the SCC stays whole; the
    # next internal deletion plants new ones, at 0, and keeps them.
    edges = [(0, 1), (0, 3), (0, 4), (4, 0), (1, 2), (3, 2), (2, 1), (2, 0)]
    idx = ReachabilityIndex.build(edges, 5, LabelerConfig(k=1, seed=0))
    g = idx.graph
    s = idx.find(0)
    assert g._trees[s][0] == 0 and g._tout[2] == 1
    mirror = Mirror(edges, 5)
    idx.delete_edge(0, 1)
    mirror.delete_edge(0, 1)
    assert s not in g._trees and g.scc_size(s) == 5
    assert all(idx.find(x) == s for x in range(5))
    assert_agrees(idx, mirror)
    idx.delete_edge(0, 4)  # 4 breaks off
    mirror.delete_edge(0, 4)
    assert g._trees[s][0] == 0 and g.scc_size(s) == 4
    assert_agrees(idx, mirror)


def test_a_deleted_root_never_keeps_the_handle():
    # Deleting the root 0 of the two-cycle {0, 1} leaves two lone nodes.
    # The tie goes to 1, the first head, so the old handle links to a live
    # member and not to the removed slot 0.
    edges = [(0, 1), (1, 0), (2, 0), (1, 3)]
    idx = ReachabilityIndex.build(edges, 4, LabelerConfig(k=1, seed=0))
    g = idx.graph
    s = idx.find(0)
    assert g._trees[s][0] == 0
    idx.delete_node(0)
    mirror = Mirror(edges, 4)
    mirror.delete_node(0)
    assert g._parent[s] == 1 and g.is_current(1)
    assert idx.find(1) == 1
    assert_agrees(idx, mirror)


def test_deleting_the_hub_decomposes_what_is_left_once():
    # A star: hub 0 with an edge to and from each of 2,000 leaves, and a
    # few leaf two-cycles, one SCC whose trees are rooted at the hub.
    # Deleting the hub deletes the root, so no item races it: one Tarjan
    # restricted to the leaves finds the two-cycles and the lone leaves.
    leaves = 2000
    edges = [(0, x) for x in range(1, leaves + 1)] + [(x, 0) for x in range(1, leaves + 1)]
    edges += [(1, 2), (2, 1), (10, 11), (11, 10), (500, 1999), (1999, 500)]
    idx = ReachabilityIndex.build(edges, leaves + 1, LabelerConfig(k=1, seed=0))
    g = idx.graph
    assert g._trees[idx.find(0)][0] == 0
    races = []
    tarjans = []
    race, tarjan = idx._race, g._tarjan

    def counting_race(*args):
        races.append(args)
        return race(*args)

    def counting_tarjan(*args, **kwargs):
        tarjans.append(kwargs.get("restricted", False))
        return tarjan(*args, **kwargs)

    idx._race = counting_race
    g._tarjan = counting_tarjan
    idx.delete_node(0)
    mirror = Mirror(edges, leaves + 1)
    mirror.delete_node(0)
    assert races == [] and tarjans == [True]
    assert_agrees(idx, mirror)


def test_a_node_that_joins_a_component_with_trees_hangs_at_its_next_deletion():
    edges = random_strongly_connected(30, 10, seed=2)
    idx = ReachabilityIndex.build(edges, 30, LabelerConfig(k=1, seed=0))
    g = idx.graph
    s = idx.find(0)
    root, gen, pending = g._trees[s]
    idx.insert_node(30, out_edges=[5], in_edges=[9])  # joins s, in no tree yet
    x = g.input_slot(30)
    assert idx.find(30) == s and pending == [x] and g._tgen[x] != gen
    mirror = Mirror(edges, 30)
    mirror.insert_node(30, [5], [9])
    assert_agrees(idx, mirror)
    u, v = next((u, v) for u, v in edges if u != v and root not in (u, v))
    idx.delete_edge(u, v)
    mirror.delete_edge(u, v)
    assert g._trees[s][:2] == (root, gen) and g._trees[s][2] == [] and g._tgen[x] == gen
    assert_agrees(idx, mirror)


def test_a_cycle_in_a_tree_raises_instead_of_hanging():
    # The root 0 finds 1, 3 and 4, then 2 through 1.  With the out-tree
    # links of 3 and 4 corrupted into the 2-cycle 3 <-> 4, deleting (1, 2)
    # makes 2 re-hang on its other in-neighbour 3, whose chain never
    # reaches the root.  The alarm turns a hang into a failure.
    edges = [(0, 1), (0, 3), (0, 4), (4, 0), (1, 2), (3, 2), (2, 1), (2, 0), (1, 0), (3, 0)]
    idx = ReachabilityIndex.build(edges, 5, LabelerConfig(k=1, seed=0))
    g = idx.graph
    s = idx.find(0)
    assert g.scc_size(s) == 5 and g._trees[s][0] == 0 and g._tout[2] == 1
    g._tout[3], g._tout[4] = 4, 3

    def hang(signum, frame):
        raise AssertionError("the re-hang kept walking the cycle")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(InternalError, match="cycle"):
            idx.delete_edge(1, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_merge_then_delete_restores_partition():
    for seed in range(10):
        n = 40
        edges = random_digraph(n, 70, seed)
        idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=seed))
        before = idx.scc_partition()
        rng = random.Random(seed)
        u, v = rng.randrange(n), rng.randrange(n)
        while idx.graph.has_input_edge(u, v) or u == v:
            u, v = rng.randrange(n), rng.randrange(n)
        idx.insert_edge(u, v)
        idx.delete_edge(u, v)
        assert idx.scc_partition() == before, seed


# ----------------------------------------------------------------------
# node insertion / deletion


def test_insert_node_label_from_out_neighbors():
    idx = sample_index(k=1, order="ltr")
    assert idx.label_of(NODE["M"])[0] == (5, 6)
    x = 50
    idx.insert_node(x, out_edges=[NODE["M"]])
    assert idx.label_of(idx.find(x))[0] == (5, 7)
    check_label_invariants(idx)


def test_insert_isolated_node_into_empty_index():
    # A fresh slot holds the empty label [max_end, -1] until it gains a
    # DAG child.
    idx = ReachabilityIndex.build([], 0, LabelerConfig(k=1, seed=0))
    idx.insert_node(0)
    assert idx.label_of(idx.find(0)) == ((0, -1),)
    assert idx.reachable(0, 0)


def test_insert_sink_node_below_deep_ancestry_changes_no_label():
    # The tail of the in-edges has 39 ancestors; an empty label is covered
    # by every label already, so no label and no end bound moves.  Ten
    # isolated roots put the chain's begins above 0.
    n = 40
    chain = [(i, i + 1) for i in range(n - 1)]
    idx = ReachabilityIndex.build(chain, n + 10, LabelerConfig(k=2, seed=3))
    lab, g = idx.labeler, idx.graph
    labels = {s: idx.label_of(s) for s in g.current_dag_nodes()}
    assert all(labels[idx.find(n - 1)][d][0] > 0 for d in range(2))
    max_end = list(lab._max_end)
    idx.insert_node(100, in_edges=[n - 1, n // 2])
    assert {s: idx.label_of(s) for s in labels} == labels
    assert lab._max_end == max_end
    assert idx.label_of(idx.find(100)) == tuple((e, -1) for e in max_end)
    check_label_invariants(idx)
    assert idx.reachable(0, 100) and not idx.reachable(100, 0)


def test_insert_node_sends_every_edge_through_insert_edge(monkeypatch):
    # 9 -> 0 -> 1 -> 2 -> 9 closes a cycle; 0 and 2 are listed twice and
    # the self-loop once on each side.
    edges = [(0, 1), (1, 2)]
    idx = ReachabilityIndex.build(edges, 3, LabelerConfig(k=2, seed=1))
    calls = []
    insert_edge = idx.insert_edge

    def spy(u, v):
        calls.append((u, v))
        insert_edge(u, v)

    monkeypatch.setattr(idx, "insert_edge", spy)
    outs, ins = [0, 9, 1, 0], [2, 9, 2]
    idx.insert_node(9, out_edges=outs, in_edges=ins)
    assert calls == [(9, w) for w in outs] + [(w, 9) for w in ins]
    mirror = Mirror(edges, 3)
    mirror.insert_node(9, outs, ins)
    assert sorted(idx.graph.input_edges()) == sorted(mirror.edge_list())
    assert idx.scc_partition() == mirror.partition()
    check_label_invariants(idx)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_out_edges_of_a_new_node_run_no_merge_search(k, monkeypatch):
    # 9 has the in-neighbour 2 and the out-neighbour 2, so it first joins
    # {2}, in a fresh component X, with no search.  Its out-edges then
    # leave X, which has the DAG parent 1: (9, 0) closes 0 -> 1 -> X and
    # searches from 0, which merges 0 and 1 into X, and (9, 3) closes
    # 3 -> X, a two-component cycle, since 3 is X's one DAG parent: it
    # merges with no search.  The rest run inside X.  A new node that
    # joins nothing has no DAG parent, so its out-edges search nothing.
    edges = [(0, 1), (1, 2), (3, 1)]
    idx = ReachabilityIndex.build(edges, 4, LabelerConfig(k=k, seed=k))
    calls = []
    collect = idx.collect_merge_list

    def spy(t, s):
        calls.append((t, s))
        return collect(t, s)

    monkeypatch.setattr(idx, "collect_merge_list", spy)
    outs, ins = [0, 1, 2, 3], [2]
    idx.insert_node(9, out_edges=outs, in_edges=ins)
    g = idx.graph
    x = idx.find(9)
    assert g.scc_size(x) == 5
    assert calls == [(g.input_slot(0), x)]
    idx.insert_node(8, out_edges=[0, 9])
    assert len(calls) == 1
    mirror = Mirror(edges, 4)
    mirror.insert_node(9, outs, ins)
    mirror.insert_node(8, [0, 9], [])
    assert idx.scc_partition() == mirror.partition()
    check_label_invariants(idx)


TWO_CYCLE = [(0, 1), (1, 2), (2, 0), (3, 0)]
"""The SCC s = {0, 1, 2} and the lone node t = 3 with the DAG edge t -> s,
which the new edge (1, 3) turns into a two-component cycle."""


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "extra, size, searches",
    [
        # s's one DAG parent is t; t has the other children 4 and 5.
        ([(3, 4), (3, 5), (2, 6)], 4, (0, 0)),
        # t's one DAG child is s; s has the other parents 7 and 8.
        ([(7, 0), (8, 1), (9, 7)], 4, (0, 0)),
        # s's other parents 7 and 8 are t's parents too, so t's label
        # does not hold theirs; t has more children, so s's side is tested.
        # At k 0 every label test passes, and the search runs.
        ([(7, 0), (8, 1), (7, 3), (8, 3), (3, 4), (3, 5), (3, 6)], 4, (1, 0)),
        # t -> 7 -> s is another t-to-s path, and 7 passes the label test
        # on both sides: the search runs and 7 merges too.
        ([(3, 7), (7, 1), (3, 4)], 5, (1, 1)),
    ],
    ids=["s-has-one-parent", "t-has-one-child", "other-parents-fail", "third-on-a-path"],
)
def test_an_edge_that_closes_a_two_component_cycle_runs_no_merge_search(k, extra, size, searches, monkeypatch):
    # The DAG edge t -> s is stored; a t-to-s path other than that edge
    # ends at another parent of s and starts at another child of t.  When
    # every other member of the smaller side fails the label test, {s, t}
    # is the whole merge set, and no merge search runs.
    edges = TWO_CYCLE + extra
    idx = ReachabilityIndex.build(edges, 10, LabelerConfig(k=k, seed=k))
    calls = []
    collect = idx.collect_merge_list

    def spy(t, s):
        calls.append((t, s))
        return collect(t, s)

    monkeypatch.setattr(idx, "collect_merge_list", spy)
    idx.insert_edge(1, 3)
    assert len(calls) == searches[k > 0]
    assert idx.find(3) == idx.find(0) and idx.graph.scc_size(idx.find(0)) == size
    mirror = Mirror(edges, 10)
    mirror.insert_edge(1, 3)
    assert_agrees(idx, mirror)
    for u in range(10):
        for v in range(10):
            assert idx.reachable(u, v) == mirror.reach(u, v), (u, v)


FRINGED_SCC = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (6, 0), (7, 2), (1, 8), (4, 9), (10, 6), (9, 11)]
"""The 6-node SCC C = {0..5} (a cycle with a chord), with the parents 6
and 7 and the children 8 and 9; 10 -> 6 and 9 -> 11 lengthen the
fringe."""


@pytest.mark.parametrize("k", [0, 1, 2])
def test_new_node_with_both_ends_in_a_component_joins_it_without_search(k, monkeypatch):
    # 20 has the in-neighbours 1 and 7 and the out-neighbours 3 and 8.
    # It joins C before any edge, and then its edges into C change
    # nothing and those from 7 and to 8 add to C's DAG edges: no merge
    # search runs, and C keeps its label.
    idx = ReachabilityIndex.build(FRINGED_SCC, 12, LabelerConfig(k=k, seed=k))
    g = idx.graph
    c = idx.find(0)
    label = idx.label_of(c)
    calls = []
    collect = idx.collect_merge_list

    def spy(t, s):
        calls.append((t, s))
        return collect(t, s)

    monkeypatch.setattr(idx, "collect_merge_list", spy)
    outs, ins = [3, 8], [1, 7]
    idx.insert_node(20, out_edges=outs, in_edges=ins)
    assert calls == []
    assert idx.find(20) == c and g.scc_size(c) == 7
    assert idx.label_of(c) == label
    assert g.edge_multiplicity(c, 8) == g.edge_multiplicity(7, c) == 2
    mirror = Mirror(FRINGED_SCC, 12)
    mirror.insert_node(20, outs, ins)
    assert_agrees(idx, mirror)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "outs, ins",
    [
        ([3, 6], [1]),  # joins C, then 6 reaches C: 6 merges in
        ([3], [1, 9]),  # joins C, then C reaches 9: 9 merges in
        ([3, 10], [1, 11]),  # joins C, then 10 and 11 close cycles through C
        ([3, 8], [1, 8]),  # C and 8 are both joint; C, the larger, joins first
        ([10, 11], [10, 11]),  # 10 and 11 are both joint, with 6, C and 9 between them
    ],
    ids=["parent", "child", "both-fringes", "two-joint-adjacent", "two-joint-apart"],
)
def test_new_node_joins_a_component_then_merges_the_rest(k, outs, ins):
    # 20 first joins the largest component that holds an in- and an
    # out-neighbour.  Its other edges lead to components that reach that
    # one or that it reaches, and close cycles through them.  Joining two
    # joint components at once would be wrong: in the last case the path
    # 10 -> 6 -> C -> 9 -> 11 between them touches none of 20's edges.
    idx = ReachabilityIndex.build(FRINGED_SCC, 12, LabelerConfig(k=k, seed=k))
    mirror = Mirror(FRINGED_SCC, 12)
    idx.insert_node(20, out_edges=outs, in_edges=ins)
    mirror.insert_node(20, outs, ins)
    assert_agrees(idx, mirror)
    nodes = [*range(12), 20]
    for u in nodes:
        for v in nodes:
            assert idx.reachable(u, v) == mirror.reach(u, v), (u, v)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("child", [False, True])
def test_edgeless_node_as_merge_anchor(k, child):
    # Node 10 keeps its empty label while it gains three parents, then
    # 10 -> 0 -> 1 -> 10 closes a cycle in which it has the most parents.
    # Nodes 10, 0 and 1 are singletons, so the merge makes a fresh node.
    # With ``child``, the merged component has an external child (4).
    edges = [(0, 1), (5, 0)] + [(1, 4)] * child
    idx = ReachabilityIndex.build(edges, 6, LabelerConfig(k=k, seed=k))
    mirror = Mirror(edges, 6)
    idx.insert_node(10)
    mirror.insert_node(10, [], [])
    for w in (1, 2, 3):
        idx.insert_edge(w, 10)
        mirror.insert_edge(w, 10)
    g = idx.graph
    x = idx.find(10)
    assert all(b > e for b, e in idx.label_of(x))
    assert len(g.dag_parents(x)) == 3
    assert len(g.dag_parents(idx.find(0))) == len(g.dag_parents(idx.find(1))) == 1
    idx.insert_edge(10, 0)
    mirror.insert_edge(10, 0)
    assert idx.find(10) == idx.find(0) == idx.find(1)
    assert idx.scc_partition() == mirror.partition()
    check_label_invariants(idx)
    nodes = [*range(6), 10]
    for u in nodes:
        for v in nodes:
            assert idx.reachable(u, v) == mirror.reach(u, v), (u, v)


def hull(label, kids):
    """``label`` widened over the labels ``kids``: per dimension, begin at
    most each kid's begin and end above each kid's end."""
    return tuple(
        (min([b, *(kb for (kb, _) in ks)]), max([e, *(ke + 1 for (_, ke) in ks)]))
        for (b, e), *ks in zip(label, *kids)
    )


def assert_all_pairs(idx, mirror):
    nodes = sorted(mirror.nodes)
    for u in nodes:
        for v in nodes:
            assert idx.reachable(u, v) == mirror.reach(u, v), (u, v)


@pytest.mark.parametrize("k", [1, 2])
def test_singleton_hub_merges_into_the_larger_scc(k):
    # SCC C = {0, 1, 2} has one parent (3); the singleton hub 4 has four
    # (C, 5, 6, 7) and two children of its own (8, 9).  Closing 4 -> 0
    # merges the two into C, the larger: the merged label is C's, widened
    # over the hub's external children, and the hub's parents are grown
    # over it.
    edges = [(0, 1), (1, 2), (2, 0), (3, 0), (2, 10), (1, 4), (5, 4), (6, 4), (7, 4), (4, 8), (4, 9)]
    idx = ReachabilityIndex.build(edges, 11, LabelerConfig(k=k, seed=k))
    g = idx.graph
    c = idx.find(0)
    assert len(g.dag_parents(4)) > len(g.dag_parents(c)) and g.scc_size(c) == 3
    want = hull(idx.label_of(c), [idx.label_of(8), idx.label_of(9)])
    idx.insert_edge(4, 0)
    mirror = Mirror(edges, 11)
    mirror.insert_edge(4, 0)
    assert idx.find(4) == c
    assert idx.label_of(c) == want
    for p in (5, 6, 7):
        assert subsumes(idx.label_of(p), want), p
    check_label_invariants(idx)
    assert idx.scc_partition() == mirror.partition()
    assert_all_pairs(idx, mirror)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("child", [False, True])
def test_cycle_of_singletons_merges_into_a_fresh_node(k, child):
    # Closing 2 -> 0 on the path 0 -> 1 -> 2 merges three singletons into
    # a fresh node.  Its label starts empty and widens over the members'
    # external children (5 and 6, with ``child``); the parents 3 and 4
    # must cover it.
    edges = [(0, 1), (1, 2), (3, 0), (4, 1)] + [(1, 5), (2, 6)] * child
    idx = ReachabilityIndex.build(edges, 7, LabelerConfig(k=k, seed=k))
    g = idx.graph
    kids = [idx.label_of(5), idx.label_of(6)] if child else []
    idx.insert_edge(2, 0)
    mirror = Mirror(edges, 7)
    mirror.insert_edge(2, 0)
    x = idx.find(0)
    assert x >= 7 and g.scc_size(x) == 3 and idx.find(2) == x
    label = idx.label_of(x)
    if child:
        assert label == hull(((float("inf"), -1),) * k, kids)  # from an empty label
    else:
        assert all(b > e for b, e in label)
    for p in (3, 4):
        assert subsumes(idx.label_of(p), label), p
    check_label_invariants(idx)
    assert idx.scc_partition() == mirror.partition()
    assert_all_pairs(idx, mirror)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_visit_marks_and_label_columns_grow_with_the_capacity(k):
    # The ring 0 -> 1 -> 2 -> 3 -> 0 holds the two-cycle {4, 5}.  Two
    # inserted nodes, the fresh representative of their merge and the
    # piece {4, 5} that deleting (5, 2) detaches each take a new slot.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 4), (5, 2)]
    idx = ReachabilityIndex.build(edges, 6, LabelerConfig(k=k, seed=1))
    g = idx.graph
    mirror = Mirror(edges, 6)
    steps = [
        lambda i: i.insert_node(6, [], []),
        lambda i: i.insert_node(7, [0], []),
        lambda i: i.insert_edge(6, 7),
        lambda i: i.insert_edge(7, 6),  # merges 6 and 7 into a fresh node
        lambda i: i.delete_edge(5, 2),
    ]
    caps = [g.capacity]
    for step in steps:
        step(idx)
        step(mirror)
        caps.append(g.capacity)
        assert len(idx._vis) == g.capacity
        assert [len(col) for col in (*idx.labeler._b, *idx.labeler._e)] == [g.capacity] * 2 * k
    assert caps == [7, 8, 9, 9, 10, 11]  # six inputs and the ring's slot first
    assert g.scc_size(idx.find(6)) == g.scc_size(idx.find(4)) == 2
    assert_agrees(idx, mirror)


def test_insert_node_with_merging_in_edge():
    # x reaches back into its in-neighbor's component: inserting the
    # in-edge closes a cycle through x.
    edges = [(0, 1), (1, 2)]
    idx = ReachabilityIndex.build(edges, 3, LabelerConfig(k=1, seed=2))
    idx.insert_node(7, out_edges=[0], in_edges=[2])
    assert idx.find(7) == idx.find(0) == idx.find(2)
    mirror = Mirror(edges, 3)
    mirror.insert_node(7, [0], [2])
    assert idx.scc_partition() == mirror.partition()
    check_label_invariants(idx)


def test_insert_node_duplicate_or_unknown_endpoint():
    idx = sample_index(k=1)
    with pytest.raises(InputError):
        idx.insert_node(NODE["A"])
    with pytest.raises(InputError):
        idx.insert_node(77, out_edges=[404])


def test_insert_node_self_loop_in_edge_ignored_structurally():
    idx = ReachabilityIndex.build([], 2, LabelerConfig(k=1, seed=0))
    idx.insert_node(5, out_edges=[0], in_edges=[5])
    x = idx.graph.input_slot(5)
    assert idx.find(5) == x
    assert idx.graph.has_input_edge(x, x)


def test_delete_source_node():
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    before = idx.scc_partition()
    idx.delete_node(NODE["R"])
    want = {p for p in before if NODE["R"] not in p}
    assert idx.scc_partition() == want
    assert not idx.graph.dag_parents(comps["1"])  # R was 1's only parent


def test_delete_node_shatters_component():
    idx = sample_index(k=1)
    mirror = Mirror(SAMPLE_EDGES, 19)
    idx.delete_node(NODE["S"])
    mirror.delete_node(NODE["S"])
    assert idx.scc_partition() == mirror.partition()
    check_label_invariants(idx)


def test_delete_isolated_node():
    idx = ReachabilityIndex.build([(0, 1)], 3, LabelerConfig(k=1, seed=0))
    before = snapshot(idx)
    idx.insert_node(9)
    idx.delete_node(9)
    after = snapshot(idx)
    assert before[0] == after[0] and before[2] == after[2]
    with pytest.raises(InputError):
        idx.reachable(9, 0)


# ----------------------------------------------------------------------
# batches


def test_batch_pruning_cancels_complements():
    idx = sample_index(k=1)
    before = snapshot(idx)
    applied = idx.apply_batch([InsertEdge(NODE["M"], NODE["R"]), DeleteEdge(NODE["M"], NODE["R"])])
    assert applied == 0
    assert snapshot(idx) == before


def test_batch_prune_keeps_trailing_op():
    idx = sample_index(k=1)
    ops = [
        InsertEdge(NODE["M"], NODE["K"]),
        DeleteEdge(NODE["M"], NODE["K"]),
        InsertEdge(NODE["M"], NODE["K"]),
    ]
    assert idx.apply_batch(ops) == 1
    assert idx.graph.has_input_edge(NODE["M"], NODE["K"])


def test_batch_rejects_non_edge_ops():
    idx = sample_index(k=1)
    with pytest.raises(InputError):
        idx.apply_batch([InsertNode(99)])
    with pytest.raises(InputError):
        idx.apply_batch([Query(0, 1)])


def test_batch_intra_insert_classification_is_structural_noop():
    idx = sample_index(k=1)
    before = snapshot(idx)
    assert idx.apply_batch([InsertEdge(NODE["A"], NODE["B"])]) == 0  # already present
    after = snapshot(idx)
    assert after[0] == before[0] and after[1] == before[1]
    assert idx.graph.has_input_edge(NODE["A"], NODE["B"])


def test_batch_final_answers_match_sequential():
    for seed in range(10):
        n = 24
        edges = random_digraph(n, 40, seed)
        rng = random.Random(seed + 7)
        ops = []
        mirror = Mirror(edges, n)
        for _ in range(rng.randrange(5, 25)):
            if rng.random() < 0.6 or not mirror.edge_list():
                u, v = rng.randrange(n), rng.randrange(n)
                mirror.insert_edge(u, v)
                ops.append(InsertEdge(u, v))
            else:
                elist = mirror.edge_list()
                u, v = elist[rng.randrange(len(elist))]
                mirror.delete_edge(u, v)
                ops.append(DeleteEdge(u, v))
        batch_idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=seed))
        batch_idx.apply_batch(ops)
        seq_idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=seed))
        for op in ops:
            if isinstance(op, InsertEdge):
                seq_idx.insert_edge(op.u, op.v)
            else:
                seq_idx.delete_edge(op.u, op.v)
        assert set(batch_idx.graph.input_edges()) == set(mirror.edge_list()), seed
        assert batch_idx.scc_partition() == seq_idx.scc_partition(), seed
        for u in range(n):
            for v in range(n):
                assert batch_idx.reachable(u, v) == seq_idx.reachable(u, v), (seed, u, v)
        check_label_invariants(batch_idx)


# ----------------------------------------------------------------------
# regressions


def test_split_after_inserted_ids_collide_with_scc_slots():
    # {0, 1} takes slot 2, so the inserted ids 2 and 3 name other slots;
    # the split must detach by slot, not by external id.
    idx = ReachabilityIndex.build([(0, 1), (1, 0)], 2, LabelerConfig(k=1, seed=0))
    idx.insert_node(2)
    idx.insert_node(3, (2,), (2,))
    idx.delete_edge(2, 3)
    assert idx.scc_partition() == {frozenset({0, 1}), frozenset({2}), frozenset({3})}
    assert idx.reachable(3, 2) and not idx.reachable(2, 3)
    check_label_invariants(idx)


def test_batch_insert_of_present_edge_does_not_cancel_its_delete():
    idx = ReachabilityIndex.build([(4, 30), (30, 4)], 31, LabelerConfig(k=1, seed=0))
    assert idx.apply_batch([InsertEdge(4, 30), DeleteEdge(30, 4), DeleteEdge(4, 30)]) == 2
    assert set(idx.graph.input_edges()) == set()
    assert not idx.reachable(4, 30)


def test_batch_insert_between_equal_labels_keeps_containment():
    idx = ReachabilityIndex.build([], 2, LabelerConfig(k=2, seed=0))
    set_labels(idx.labeler, {1: idx.label_of(0)})
    idx.apply_batch([InsertEdge(0, 1)])
    check_label_invariants(idx)


def test_insert_node_with_large_id_takes_one_slot():
    # The id is large enough that a slot per id would cost tens of MB.
    idx = ReachabilityIndex.build([(0, 1)], 2, LabelerConfig(k=1, seed=0))
    cap = idx.graph.capacity
    idx.insert_node(10**6, out_edges=(0,))
    assert idx.graph.capacity == cap + 1
    assert idx.reachable(10**6, 1)
