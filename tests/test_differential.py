"""Differential tests: random update histories against ``Mirror``.

Hypothesis drives one index and one mirror through the full op mix (edge
and node inserts and deletes, and queries) with ``k`` from 0 to 3.
Inserted node ids are drawn from ``[0, capacity + 1]``, so they land on
ids that SCC slots and dead slots occupy, and on live ids, which must be
rejected without any change.  After every step the partition, the
input edges, the condensation's edges with their multiplicities and label
containment must agree with the mirror.

``replay_random_history`` does the same with a plain seeded generator,
and after every step also checks queries from a few random sources: to
their own component, to a component they reach, to a node they do not
reach, to a DAG child of their component and to a child's child, and from
a DAG sink or into a DAG source.  Whenever an inserted edge merges a
two-component cycle without a search, the merge search on the same state
must find just those two components (``check_two_cycle_rule``), and
every split must hand its pieces over children first
(``check_split_order``).
It starts from one SCC in which most members have in- or out-degree 1
(a cycle plus a few chords), so deletions break pieces off both ends of
a removed edge, and in about one extraction in five the trees cannot
certify what is left, which one restricted Tarjan then decomposes.  Its
insert-heavy variant adds a DAG fringe of parents and children around
the SCC and draws few deletions, so inserted edges close cycles through
the large SCC from either end and from the middle of the merge set.  Run
many histories of both kinds with ``python tests/test_differential.py
COUNT``.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: this checkout's package first
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypothesis import HealthCheck, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule  # noqa: E402

from dynreach import InputError, LabelerConfig, QueryStats, ReachabilityIndex  # noqa: E402

from oracles import Mirror, assert_agrees, dag_reach, reachable_pairs  # noqa: E402
from samples import random_strongly_connected  # noqa: E402


def assert_queries(idx, mirror, rng, sources: int = 3) -> None:
    """``reachable``, ``reachable_with_stats`` and ``dag_reach`` over the
    condensation against the mirror from a few random sources, each to a
    member of its own component, to a node it reaches in another
    component, and to a node it does not reach.  Each source also asks
    three pairs that a query answers without a search, with
    ``QueryStats(1, 0)``: to a member of a DAG child of its component,
    to one of a child's child that is not a child, and either from its
    component, when that is a DAG sink, to another, or else into a DAG
    source.  Those nodes are picked without ``rng``, which also draws the
    history."""
    g = idx.graph
    nodes = sorted(mirror.nodes)
    comp = {v: idx.find(v) for v in nodes}
    for u in rng.sample(nodes, min(sources, len(nodes))):
        reach = reachable_pairs([u], mirror.out)[u]
        s = comp[u]
        same = [v for v in nodes if comp[v] == s]
        children = set(g.dag_children(s))
        grandchildren = {x for c in children for x in g.dag_children(c)}.difference(children)
        child = [v for v in nodes if comp[v] in children]
        grandchild = [v for v in nodes if comp[v] in grandchildren]
        if children:
            apart = [v for v in nodes if comp[v] != s and not g.dag_parents(comp[v])]
        else:
            apart = [v for v in nodes if comp[v] != s]
        for group, want in ((child, True), (grandchild, True), (apart, False)):
            if group:
                v = group[u % len(group)]
                assert (v in reach) == want, (u, v)
                assert idx.reachable(u, v) == want, (u, v)
                assert idx.reachable_with_stats(u, v) == (want, QueryStats(1, 0)), (u, v)
                assert dag_reach(g, s, comp[v]) == want, (u, v)
        for group in (same, sorted(reach.difference(same)), [v for v in nodes if v not in reach]):
            if group:
                v = rng.choice(group)
                want = v in reach
                assert idx.reachable(u, v) == want, (u, v)
                assert idx.reachable_with_stats(u, v)[0] == want, (u, v)
                assert dag_reach(g, s, comp[v]) == want, (u, v)


def check_two_cycle_rule(idx) -> list[int]:
    """Make ``idx`` check, whenever ``_closes_two_cycle`` settles the merge
    set of a new edge (s, t) as ``{s, t}`` without a search, that the merge
    search on the same state (``collect_merge_list(t, s)``) returns exactly
    ``s`` and ``t``.  Returns a list that gains one entry per such check."""
    rule = idx._closes_two_cycle
    fired: list[int] = []

    def checked(s, t):
        if not rule(s, t):
            return False
        assert set(idx.collect_merge_list(t, s)) == {s, t}, (s, t)
        fired.append(s)
        return True

    idx._closes_two_cycle = checked
    return fired


def check_split_order(idx) -> list[int]:
    """Make ``idx`` check, after every split, that each detached piece in
    ``apply_split``'s returned list comes after every piece that is its
    DAG child, the order ``relabel_split`` labels the pieces in.  Returns
    a list that gains the piece count of each split into two or more
    pieces."""
    g = idx.graph
    split = g.apply_split
    checks: list[int] = []

    def checked(s, keep, comps):
        *pieces, _ = clist = split(s, keep, comps)
        at = {p: i for i, p in enumerate(pieces)}
        for i, p in enumerate(pieces):
            for c in g.dag_children(p):
                assert at.get(c, -1) < i, (s, pieces, p, c)
        if len(pieces) > 1:
            checks.append(len(pieces))
        return clist

    g.apply_split = checked
    return checks


def replay_random_history(seed: int, n: int, k: int, steps: int, fringe: int = 0) -> tuple[int, int]:
    """Replay ``steps`` random ops from the full mix on a cycle of ``n``
    nodes with ``n // 4`` chords, checking against ``Mirror`` after each,
    checking every merge settled without a search
    (``check_two_cycle_rule``) and the order of every split's pieces
    (``check_split_order``); returns how many merges were so settled and
    how many splits gave two or more pieces.  A step in five toggles one
    to five drawn edges, one at a time, and is checked after the last.

    With ``fringe`` > 0 the history is insert-heavy: ``fringe`` more nodes
    form a DAG around the cycle (the first half its parents, the rest its
    children, with edges among them from lower to higher id only) and
    edge deletions are drawn at a seventh of their usual share."""
    rng = random.Random(seed)
    edges = random_strongly_connected(n, n // 4, seed)
    half = n + fringe // 2
    for f in range(n, n + fringe):
        core = rng.randrange(n)
        edges.append((f, core) if f < half else (core, f))
        if f + 1 < n + fringe:
            edges.append((f, rng.randrange(f + 1, n + fringe)))
    n += fringe
    deletes = 0.05 if fringe else 0.35
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=k, seed=seed))
    fired = check_two_cycle_rule(idx)
    splits = check_split_order(idx)
    mirror = Mirror(edges, n)
    for _ in range(steps):
        nodes = sorted(mirror.nodes)
        present = mirror.edge_list()
        roll = rng.random()
        if roll < deletes and present:
            u, v = present[rng.randrange(len(present))]
            idx.delete_edge(u, v)
            mirror.delete_edge(u, v)
        elif roll < 0.6 and nodes:
            u, v = rng.choice(nodes), rng.choice(nodes)
            idx.insert_edge(u, v)
            mirror.insert_edge(u, v)
        elif roll < 0.7:
            u = rng.randrange(idx.graph.capacity + 2)
            if u in mirror.nodes:
                continue
            outs = rng.sample(nodes, min(len(nodes), rng.randrange(3)))
            ins = rng.sample(nodes, min(len(nodes), rng.randrange(3)))
            idx.insert_node(u, outs, ins)
            mirror.insert_node(u, outs, ins)
        elif roll < 0.8 and nodes:
            u = rng.choice(nodes)
            idx.delete_node(u)
            mirror.delete_node(u)
        elif nodes:
            for _ in range(rng.randrange(1, 6)):
                u, v = rng.choice(nodes), rng.choice(nodes)
                if v in mirror.out[u]:
                    idx.delete_edge(u, v)
                    mirror.delete_edge(u, v)
                else:
                    idx.insert_edge(u, v)
                    mirror.insert_edge(u, v)
        assert_agrees(idx, mirror)
        assert_queries(idx, mirror, rng)
    return len(fired), len(splits)


def replay_drawn_history(seed: int, insert_heavy: bool = False) -> tuple[int, int]:
    """The script's history for ``seed``: 300 ops on a cycle whose ``n``
    (5-60), ``k`` (0-3) and, if ``insert_heavy``, fringe are drawn from a
    generator seeded with ``seed``; returns ``replay_random_history``'s."""
    rng = random.Random(seed)
    n = rng.randrange(5, 61)
    k = rng.randrange(4)
    fringe = rng.randrange(2, n + 2) if insert_heavy else 0
    return replay_random_history(seed, n=n, k=k, steps=300, fringe=fringe)


def test_random_histories_from_one_scc():
    counts = [replay_random_history(seed, n=20 + 3 * seed, k=seed % 4, steps=40) for seed in range(12)]
    fired, splits = map(sum, zip(*counts))
    assert fired, "no merge was settled without a search"
    assert splits, "no split gave two pieces"


def test_insert_heavy_histories_around_one_scc():
    fired = sum(
        replay_random_history(seed, n=20 + 3 * seed, k=seed % 4, steps=60, fringe=12 + seed)[0]
        for seed in range(12)
    )
    assert fired, "no merge was settled without a search"


# Plain histories that catch a split labelled by ``propagate`` alone, with
# every piece and the remnant starting from the old label: pieces that
# share the old end lose the distinct ends the exit steps give, and the
# repair raises a node more than once ("its end keeps rising").
@pytest.mark.parametrize("seed", [12, 14, 26, 110, 119, 125, 137, 175, 177, 192, 217, 218, 223, 278])
def test_histories_that_catch_split_labels_sharing_an_end(seed):
    replay_drawn_history(seed)


class IndexAgainstMirror(RuleBasedStateMachine):
    @initialize(
        n=st.integers(1, 16),
        k=st.integers(0, 3),
        seed=st.integers(0, 2**16),
        one_scc=st.booleans(),
        data=st.data(),
    )
    def build(self, n, k, seed, one_scc, data):
        """A random edge list, or one SCC: a cycle plus at most ``n // 4``
        random chords, whose other members have in- and out-degree 1."""
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        if one_scc:
            chords = data.draw(st.lists(pairs, max_size=n // 4), label="chords")
            edges = [(i, (i + 1) % n) for i in range(n)] + chords
        else:
            edges = data.draw(st.lists(pairs, max_size=3 * n), label="edges")
        self.idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=k, seed=seed))
        check_two_cycle_rule(self.idx)
        check_split_order(self.idx)
        self.mirror = Mirror(edges, n)

    def _node(self, data, label):
        return data.draw(st.sampled_from(sorted(self.mirror.nodes)), label=label)

    def _snapshot(self):
        return set(self.idx.graph.input_edges()), self.idx.scc_partition()

    @precondition(lambda self: self.mirror.nodes)
    @rule(data=st.data())
    def insert_edge(self, data):
        u, v = self._node(data, "u"), self._node(data, "v")
        self.idx.insert_edge(u, v)
        self.mirror.insert_edge(u, v)

    @precondition(lambda self: self.mirror.edge_list())
    @rule(data=st.data())
    def delete_edge(self, data):
        u, v = data.draw(st.sampled_from(sorted(self.mirror.edge_list())), label="edge")
        self.idx.delete_edge(u, v)
        self.mirror.delete_edge(u, v)

    @rule(data=st.data())
    def insert_node(self, data):
        u = data.draw(st.integers(0, self.idx.graph.capacity + 1), label="id")
        ends = st.lists(st.sampled_from(sorted(self.mirror.nodes | {u})), max_size=3)
        outs, ins = data.draw(ends, label="outs"), data.draw(ends, label="ins")
        if u in self.mirror.nodes:
            before = self._snapshot()
            try:
                self.idx.insert_node(u, outs, ins)
            except InputError:
                assert self._snapshot() == before
                return
            raise AssertionError(f"live id {u} accepted")
        self.idx.insert_node(u, outs, ins)
        self.mirror.insert_node(u, outs, ins)

    @precondition(lambda self: self.mirror.nodes)
    @rule(data=st.data())
    def delete_node(self, data):
        u = self._node(data, "u")
        self.idx.delete_node(u)
        self.mirror.delete_node(u)

    @precondition(lambda self: self.mirror.nodes)
    @rule(data=st.data())
    def query(self, data):
        for _ in range(3):
            u, v = self._node(data, "u"), self._node(data, "v")
            want = self.mirror.reach(u, v)
            assert self.idx.reachable(u, v) == want, (u, v)
            assert self.idx.reachable_with_stats(u, v)[0] == want, (u, v)

    @invariant()
    def agrees_with_mirror(self):
        assert_agrees(self.idx, self.mirror)


IndexAgainstMirror.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
test_index_against_mirror = IndexAgainstMirror.TestCase


if __name__ == "__main__":
    # Outside the test suite: COUNT plain and COUNT insert-heavy histories
    # of 300 ops, n 5-60, k 0-3.
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    for kind, insert_heavy in (("plain", False), ("insert-heavy", True)):
        fired, splits = map(sum, zip(*(replay_drawn_history(seed, insert_heavy) for seed in range(count))))
        print(
            f"{count} {kind} histories matched Mirror; {fired} merges settled without a search;"
            f" {splits} splits into two or more pieces kept children first"
        )
