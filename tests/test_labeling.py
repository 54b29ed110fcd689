"""Interval label assignment, subsumption, enlargement, and split redistribution."""
from __future__ import annotations

import itertools
import random
import signal

import pytest

from dynreach import (
    IntervalLabeler,
    InternalError,
    LabelerConfig,
    LogicError,
    ReachabilityIndex,
    SccGraph,
    subsumes,
)

from dynreach.labeling import _LOWER_BUDGET

from oracles import Mirror, assert_agrees, check_label_invariants, dag_reach
from samples import NODE, random_dag, sample_comps, sample_graph, sample_index, set_labels

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
        dag_reach(idx.graph, s, t) and s != t for s in nodes for t in nodes
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
    # Inserting (s, t) lowers begins and raises ends only at s and its
    # ancestors, and lowers ends only at t and its descendants: no other
    # label changes.  Over the seeds, both repairs occur.
    raised = lowered = 0
    for seed in range(8):
        edges = random_dag(26, 48, seed)
        idx = ReachabilityIndex.build(edges, 26, LabelerConfig(k=2, seed=seed))
        g = idx.graph
        rng = random.Random(seed)
        nodes = g.current_dag_nodes()
        before = {s: idx.label_of(s) for s in nodes}
        while True:
            s, t = rng.sample(nodes, 2)
            if s != t and not dag_reach(g, s, t) and not dag_reach(g, t, s):
                break
        up = {p for p in nodes if p == s or dag_reach(g, p, s)}
        down = {c for c in nodes if c == t or dag_reach(g, t, c)}
        idx.insert_edge(s, t)
        check_label_invariants(idx)
        for x in nodes:
            for (b0, e0), (b1, e1) in zip(before[x], idx.label_of(x)):
                assert b1 == b0 or (b1 < b0 and x in up), (seed, x)
                assert e1 == e0 or (e1 > e0 and x in up) or (e1 < e0 and x in down), (seed, x)
                raised += e1 > e0
                lowered += e1 < e0
    assert raised and lowered


def chain_below_a_busy_node(length: int, s_end: int, k: int) -> ReachabilityIndex:
    """The chain 0 -> 1 -> ... -> length - 1, node i ending at ``1000 -
    i``, and apart from it the node ``s = length`` ending at ``s_end``,
    with the two parents ``length + 1`` and ``length + 2`` ending one
    above it; every begin is 0."""
    edges = [(i, i + 1) for i in range(length - 1)] + [(length + 1, length), (length + 2, length)]
    g = SccGraph.build(edges, length + 3)
    lab = IntervalLabeler(LabelerConfig(k=k))
    lab.initial_labels(g)
    ends = {i: 1000 - i for i in range(length)} | {length: s_end, length + 1: s_end + 1, length + 2: s_end + 1}
    set_labels(lab, {x: ((0, e),) * k for x, e in ends.items()})
    idx = ReachabilityIndex(g, lab)
    check_label_invariants(idx)
    return idx


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("extra", [0, 1])
def test_lowering_past_the_budget_raises_instead(k, extra):
    # Inserting (s, 0): s has more DAG parents (2) than 0 has DAG children
    # (1), so 0's end is lowered to one below s's, and the lowering runs
    # down the whole chain.  A chain of the budget's length is lowered and
    # s keeps its label; one node more and every end is restored, and s
    # and its parents are raised over 0 instead.
    length = _LOWER_BUDGET + extra
    idx = chain_below_a_busy_node(length, 500, k)
    idx.insert_edge(length, 0)
    check_label_invariants(idx)
    chain = [idx.label_of(i) for i in range(length)]
    if extra:
        assert chain == [((0, 1000 - i),) * k for i in range(length)]
        assert idx.label_of(length) == ((0, 1001),) * k
        assert idx.label_of(length + 1) == idx.label_of(length + 2) == ((0, 1002),) * k
    else:
        assert chain == [((0, 499 - i),) * k for i in range(length)]
        assert idx.label_of(length) == ((0, 500),) * k
        assert idx.label_of(length + 1) == idx.label_of(length + 2) == ((0, 501),) * k


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s_end", [2, 3])
def test_lowering_below_zero_raises_instead(k, s_end):
    # The same insert over a chain of three: from s's end 3 the chain is
    # lowered to ends 2, 1 and 0; from 2 its last end would fall to -1,
    # the empty label's, so every end is restored and s is raised.
    idx = chain_below_a_busy_node(3, s_end, k)
    idx.insert_edge(3, 0)
    check_label_invariants(idx)
    chain = [idx.label_of(i) for i in range(3)]
    if s_end == 3:
        assert chain == [((0, 2 - i),) * k for i in range(3)]
        assert idx.label_of(3) == ((0, 3),) * k
    else:
        assert chain == [((0, 1000 - i),) * k for i in range(3)]
        assert idx.label_of(3) == ((0, 1001),) * k
        assert idx.label_of(4) == idx.label_of(5) == ((0, 1002),) * k


def test_propagate_around_a_cycle_raises():
    # A 2-cycle 0 <-> 1 put into the condensation by hand: growing 0 over
    # 1 grows 1 over 0 and so on, so only a bound stops the end phase.
    # The alarm turns a hang into a failure.
    idx = ReachabilityIndex.build([(0, 1), (2, 3)], 4, LabelerConfig(k=1, seed=0))
    g = idx.graph
    g._add_dag_edge(1, 0, 1)
    assert idx.label_of(0) != idx.label_of(1)

    def hang(signum, frame):
        raise AssertionError("propagate kept raising the ends around the cycle")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(InternalError, match="cycle"):
            idx.labeler.propagate(g, ((0, (1,)),))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_split_two_cycle_keeps_containment():
    # The two-cycle {0, 1} has the children 2 (of both ends, multiplicity
    # 2) and 3, and the parents 6 (of both ends) and 7; the other edges
    # run downhill, so no child reaches a parent.  Deleting (0, 1)
    # detaches {0}, and the remnant dissolves to 1 and takes over the
    # component's remaining DAG edges.
    for k, seed in itertools.product((0, 1, 2), range(10)):
        rng = random.Random(seed)
        u, v = 0, 1
        extra = [(rng.randrange(2, 8), rng.randrange(2, 8)) for _ in range(6)]
        edges = [(u, v), (v, u), (u, 2), (v, 2), (v, 3), (6, u), (6, v), (7, v)]
        edges += [(a, b) for a, b in extra if a > b]
        idx = ReachabilityIndex.build(edges, 8, LabelerConfig(k=k, seed=seed))
        s = idx.find(u)
        assert s == idx.find(v) and idx.graph.edge_multiplicity(s, 2) == 2
        idx.delete_edge(u, v)
        mirror = Mirror(edges, 8)
        mirror.delete_edge(u, v)
        assert idx.find(u) == u and idx.find(v) == v
        assert not idx.graph.is_current(s) and idx.graph.find_scc(s) == v  # links to what it dissolved to
        assert_agrees(idx, mirror)
        # the component of u still reaches v's side through the kept edge
        assert idx.reachable(v, u)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "across, late, raced",
    [([], [], [10, 11]), ([(11, 10)], [], []), ([(11, 10)], [(10, 11), (11, 10)], [11, 10])],
    ids=["apart", "edge", "joined"],
)
def test_split_with_remnant_between_pieces(across, late, raced, k):
    # Deleting (10, 11), 10's only out-edge and 11's only in-edge, leaves
    # the piece {11} above the core and {10} below it: the remnant lies
    # between the pieces, and keeps its label.  Apart, the set closed
    # forward, {10}, detaches first.  With the edge (11, 10), 10 is the
    # trees' root, which breaks off, and one Tarjan decomposes what is
    # left.  When 10 and 11 joined the core after the build (by the
    # edges in ``late``) they wait as pending inputs, and the set closed
    # backward, {11}, detaches first, though it has an edge to {10}.
    # Every way, the pieces are labelled lower first, and with the edge
    # (11, 10) 11's exit step reads 10 and the core, which it never
    # traverses.
    core = [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (6, 2)]
    edges = core + [(3, 10), (8, 10), (10, 11), (11, 1), (11, 4)] + across
    idx = ReachabilityIndex.build([e for e in edges if e not in late], 12, LabelerConfig(k=k, seed=4))
    for u, v in late:
        idx.insert_edge(u, v)
    g = idx.graph
    s = idx.find(0)
    assert idx.find(10) == idx.find(11) == s
    label = idx.label_of(s)
    states = [rng.getstate() for rng in idx.labeler._rngs]
    items, clists = [], []
    race, split = idx._race, g.apply_split
    idx._race = lambda x, *rest: items.append(x) or race(x, *rest)
    g.apply_split = lambda *args: clists.append(split(*args)) or clists[-1]
    idx.delete_edge(10, 11)
    mirror = Mirror(edges, 12)
    mirror.delete_edge(10, 11)
    assert items == raced
    assert clists == [[10, 11, s]]
    assert idx.find(10) == 10 and idx.find(11) == 11
    assert idx.find(5) == s and idx.label_of(s) == label
    assert set(g.dag_children(11)) == {s, *(v for _, v in across)}
    assert set(g.dag_parents(10)) == {s, *(u for u, _ in across)}
    assert [rng.getstate() for rng in idx.labeler._rngs] == states
    assert_agrees(idx, mirror)
    assert subsumes(idx.label_of(11), label) and subsumes(label, idx.label_of(10))
    assert subsumes(idx.label_of(11), idx.label_of(10))
    for u, v in itertools.product(range(12), repeat=2):
        assert idx.reachable(u, v) == mirror.reach(u, v), (u, v)


def test_k0_disables_labeling():
    idx = sample_index(k=0, order=None)
    assert idx.k == 0
    assert idx.label_of(NODE["R"]) == ()
    idx.insert_edge(NODE["N"], NODE["B"])  # merge path without labels
    idx.delete_edge(NODE["L"], NODE["P"])
    assert idx.reachable(NODE["R"], NODE["S"])
    assert not idx.reachable(NODE["M"], NODE["R"])


def test_update_sequence_labels_are_pinned():
    # Two pinned dimensions through every update kind, so that any change
    # to a label value shows.  At step 2 the merge is labelled from its
    # representative, component 1 (size 3): its label already covers the
    # one external child the others bring (3), so it keeps it, and only
    # the parents the merge moved onto it (2 via D, and J) grow, then J's
    # parent 2 and their root R.
    idx = sample_index(order="both")
    steps = [
        lambda: idx.insert_edge(NODE["M"], NODE["K"]),  # grows M, L, H and 1
        lambda: idx.insert_edge(NODE["K"], NODE["A"]),  # merges 1, H, L, M, K; grows J, 2 and R
        lambda: idx.delete_edge(NODE["H"], NODE["L"]),  # L, M, K above {A, B, C}, H below
        lambda: idx.insert_node(19, out_edges=[NODE["I"]], in_edges=[NODE["H"]]),
        lambda: idx.delete_node(NODE["T"]),  # N, O, P, S break off
    ]
    for step in steps:
        step()
        check_label_invariants(idx)
    g = idx.graph
    # Build numbers the SCC of D, the node of highest degree, first (19),
    # then {N, O, P, S, T} (20) and {A, B, C} (21).
    assert idx.find(19) == 22 and idx.find(NODE["A"]) == 21
    assert {s: idx.label_of(s) for s in g.current_dag_nodes()} == {
        7: ((0, 11), (0, 17)), 8: ((0, 9), (0, 15)), 9: ((0, 19), (0, 20)),
        10: ((0, 18), (0, 19)), 11: ((0, 20), (0, 21)), 12: ((0, 19), (0, 20)),
        13: ((0, 1), (0, 1)), 14: ((1, 2), (1, 2)), 15: ((2, 3), (2, 3)),
        16: ((0, 21), (0, 22)), 17: ((0, 5), (0, 5)), 19: ((0, 20), (0, 21)),
        21: ((0, 17), (0, 18)), 22: ((0, 10), (0, 16)),
    }


#: One-piece splits of a ring 0 -> 1 -> 2 -> 3 -> 0 with the child 7,
#: beside the chain 9 -> 10: a traversal that takes the chain first
#: enters the ring at 2, and one that takes the ring last gives it the
#: largest end; and of a two-cycle {0, 1}.  Per case: the edges, the edge
#: deleted, and a node of the piece that breaks off.
_RING = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 7), (9, 10)]
ONE_PIECE_SPLITS = {
    # 4 breaks off above the ring, with no parent of its own: where the
    # ring ends last, 4 ends above every label so far.
    "above": (_RING + [(4, 0), (2, 4), (4, 10), (4, 5)], (2, 4), 4),
    # 4 breaks off below the ring, with no child of its own.
    "below": (_RING + [(0, 4), (4, 2), (6, 4)], (4, 2), 4),
    # The two-cycle {4, 5} breaks off below the ring, a piece of size 2.
    "multi": (_RING + [(4, 5), (5, 4), (0, 4), (5, 2), (6, 4)], (5, 2), 4),
    # Deleting 0 -> 1 splits the two-cycle {0, 1} into two lone nodes:
    # the remnant dissolves to one of them.
    "dissolve": ([(0, 1), (1, 0), (0, 2), (1, 2), (1, 3), (4, 0), (4, 1), (5, 1), (4, 6), (6, 7)], (0, 1), 0),
}

#: The labeler seed of these cases.
SEED = 5

#: The labels of every component and the largest end given in each
#: dimension after each split, at k 3, as the build's post-order and the
#: lone piece's exit step gave them: each dimension is drawn from its own
#: generator, so at k 1 and 2 they are the first dimensions of these.
ONE_PIECE_LABELS = {
    "above": {
        4: ((2, 11), (0, 9), (2, 12)),
        5: ((2, 3), (2, 3), (5, 6)),
        6: ((0, 1), (10, 11), (1, 2)),
        7: ((3, 4), (1, 2), (4, 5)),
        8: ((1, 2), (8, 9), (0, 1)),
        9: ((4, 11), (0, 10), (2, 4)),
        10: ((4, 5), (0, 1), (2, 3)),
        11: ((2, 10), (0, 8), (2, 11)),
    },
    "below": {
        4: ((1, 2), (2, 3), (0, 1)),
        5: ((0, 1), (10, 11), (7, 8)),
        6: ((1, 8), (2, 9), (0, 7)),
        7: ((1, 2), (2, 3), (0, 1)),
        8: ((10, 11), (9, 10), (8, 9)),
        9: ((8, 10), (0, 2), (9, 11)),
        10: ((8, 9), (0, 1), (9, 10)),
        11: ((1, 7), (2, 8), (0, 6)),
    },
    "dissolve": {
        0: ((0, 2), (0, 2), (2, 4)),
        1: ((0, 4), (0, 4), (2, 6)),
        2: ((0, 1), (0, 1), (2, 3)),
        3: ((1, 2), (1, 2), (3, 4)),
        4: ((0, 7), (0, 8), (0, 7)),
        5: ((0, 8), (0, 5), (2, 8)),
        6: ((4, 6), (5, 7), (0, 2)),
        7: ((4, 5), (5, 6), (0, 1)),
    },
    "multi": {
        6: ((0, 8), (3, 11), (2, 10)),
        7: ((0, 1), (3, 4), (2, 3)),
        8: ((8, 9), (2, 3), (10, 11)),
        9: ((9, 11), (0, 2), (0, 2)),
        10: ((9, 10), (0, 1), (0, 1)),
        11: ((0, 7), (3, 10), (2, 9)),
        12: ((0, 2), (3, 5), (2, 4)),
    },
}
ONE_PIECE_MAX_END = {
    "above": [11, 11, 12],
    "below": [11, 11, 11],
    "dissolve": [8, 8, 8],
    "multi": [11, 11, 11],
}


def one_piece_split(case: str, k: int) -> tuple[ReachabilityIndex, Mirror, int, list]:
    """The index and the mirror after the split, the number of components
    before it, and the generators' states before it."""
    edges, (u, v), _ = ONE_PIECE_SPLITS[case]
    n = 1 + max(max(e) for e in edges)
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=k, seed=SEED))
    before = len(idx.graph.current_dag_nodes())
    states = [rng.getstate() for rng in idx.labeler._rngs]
    idx.delete_edge(u, v)
    mirror = Mirror(edges, n)
    mirror.delete_edge(u, v)
    return idx, mirror, before, states


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(ONE_PIECE_SPLITS))
def test_one_piece_split_labels_are_pinned(case, k):
    # Exactly one piece breaks off, next to the remnant: one exit step
    # labels it, and no random number is drawn.
    edges, (u, v), x = ONE_PIECE_SPLITS[case]
    idx, mirror, before, states = one_piece_split(case, k)
    g = idx.graph
    piece, remnant = idx.find(x), idx.find(u if x == v else v)
    assert len(g.current_dag_nodes()) == before + 1
    assert remnant in g.dag_children(piece) or remnant in g.dag_parents(piece)
    assert g.scc_size(piece) == (2 if case == "multi" else 1)
    labels = {s: idx.label_of(s) for s in g.current_dag_nodes()}
    assert labels == {s: label[:k] for s, label in ONE_PIECE_LABELS[case].items()}
    assert idx.labeler._max_end == ONE_PIECE_MAX_END[case][:k]
    assert [rng.getstate() for rng in idx.labeler._rngs] == states
    check_label_invariants(idx)
    assert_agrees(idx, mirror)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_piece_apart_from_the_remnant_draws_no_random_number(k):
    # Deleting 4 leaves it a lone piece with no edge to the remnant: one
    # exit step labels it, and no generator moves.
    edges = _RING + [(4, 0), (2, 4)]
    idx = ReachabilityIndex.build(edges, 11, LabelerConfig(k=k, seed=SEED))
    states = [rng.getstate() for rng in idx.labeler._rngs]
    idx.delete_node(4)
    mirror = Mirror(edges, 11)
    mirror.delete_node(4)
    assert [rng.getstate() for rng in idx.labeler._rngs] == states
    assert_agrees(idx, mirror)
    for u, v in itertools.product(mirror.nodes, repeat=2):
        assert idx.reachable(u, v) == mirror.reach(u, v), (u, v)
