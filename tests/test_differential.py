"""Stateful differential test: random update histories against ``Mirror``.

Hypothesis drives one index and one mirror through the full op mix (edge
and node inserts and deletes, queries, edge batches) with ``k`` from 0 to
3.  Inserted node ids are drawn from ``[0, capacity + 1]``, so they land
on ids that SCC slots and dead slots occupy, and on live ids, which must
be rejected without any change.  After every step the partition, the
input edges and label containment must agree with the mirror.
"""
from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from dynreach import DeleteEdge, InputError, InsertEdge, LabelerConfig, ReachabilityIndex

from oracles import Mirror, check_label_invariants


class IndexAgainstMirror(RuleBasedStateMachine):
    @initialize(
        n=st.integers(1, 16),
        k=st.integers(0, 3),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def build(self, n, k, seed, data):
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = data.draw(st.lists(pairs, max_size=3 * n), label="edges")
        self.idx = ReachabilityIndex.build(edges, n, LabelerConfig(k=k, seed=seed))
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

    @precondition(lambda self: self.mirror.nodes)
    @rule(data=st.data(), size=st.integers(1, 8), spoil=st.booleans())
    def batch(self, data, size, spoil):
        """A batch valid in order; with ``spoil`` it ends in the deletion
        of a missing edge and must change nothing."""
        present = set(self.mirror.edge_list())
        ops = []
        for _ in range(size):
            if present and data.draw(st.booleans(), label="delete"):
                u, v = data.draw(st.sampled_from(sorted(present)), label="edge")
                present.discard((u, v))
                ops.append(DeleteEdge(u, v))
            else:
                u, v = self._node(data, "u"), self._node(data, "v")
                present.add((u, v))
                ops.append(InsertEdge(u, v))
        if spoil:
            missing = [(u, v) for u in self.mirror.nodes for v in self.mirror.nodes if (u, v) not in present]
            if missing:
                before = self._snapshot()
                u, v = data.draw(st.sampled_from(sorted(missing)), label="missing")
                try:
                    self.idx.apply_batch([*ops, DeleteEdge(u, v)])
                except InputError:
                    assert self._snapshot() == before
                    return
                raise AssertionError(f"batch deleting missing edge ({u}, {v}) accepted")
        was = set(self.mirror.edge_list())
        assert self.idx.apply_batch(ops) == len(was ^ present)
        for u, v in was - present:
            self.mirror.delete_edge(u, v)
        for u, v in present - was:
            self.mirror.insert_edge(u, v)

    @invariant()
    def agrees_with_mirror(self):
        assert set(self.idx.graph.input_edges()) == set(self.mirror.edge_list())
        assert self.idx.scc_partition() == self.mirror.partition()
        check_label_invariants(self.idx)


IndexAgainstMirror.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
test_index_against_mirror = IndexAgainstMirror.TestCase
