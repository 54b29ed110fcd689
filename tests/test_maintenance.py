"""The four update operations, merge/split machinery, and batch application."""
from __future__ import annotations

import random

import pytest

from dynreach import (
    DeleteEdge,
    InputError,
    InsertEdge,
    InsertNode,
    LabelerConfig,
    LogicError,
    Query,
    ReachabilityIndex,
)

from oracles import Mirror, check_label_invariants, kosaraju_partition, reachable_pairs
from samples import (
    NODE,
    SAMPLE_EDGES,
    random_dag,
    random_digraph,
    random_strongly_connected,
    sample_comps,
    sample_index,
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
    assert mlist == [comps["3"], NODE["L"], NODE["H"], NODE["I"], comps["1"]]
    idx.insert_edge(NODE["N"], NODE["B"])
    rep = idx.find(NODE["N"])
    assert rep == comps["3"]
    assert idx.graph.scc_size(rep) == 11
    assert idx.find(NODE["A"]) == rep and idx.find(NODE["L"]) == rep
    check_label_invariants(idx)


def test_insert_merge_label_adoption_before_propagation():
    # Immediately after a merge the representative carries the pre-merge
    # label of the merge list's last component.
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    t_label = idx.label_of(comps["1"])
    idx.insert_edge(NODE["N"], NODE["B"])
    assert idx.label_of(comps["3"]) == t_label


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


# ----------------------------------------------------------------------
# merge list


def test_merge_list_two_elements():
    idx = ReachabilityIndex.build([(1, 0)], 2, LabelerConfig(k=1, seed=0))
    assert idx.collect_merge_list(1, 0) == [0, 1]


def test_merge_list_requires_reachability():
    idx = sample_index(k=1)
    comps = sample_comps(idx.graph)
    with pytest.raises(LogicError):
        idx.collect_merge_list(comps["3"], comps["1"])  # 3 does not reach 1


def test_merge_list_equals_path_intersection_oracle():
    for seed in range(12):
        edges = random_dag(28, 56, seed)
        idx = ReachabilityIndex.build(edges, 28, LabelerConfig(k=1, seed=seed))
        out = {u: set() for u in range(28)}
        for u, v in edges:
            out[u].add(v)
        reach = reachable_pairs(list(range(28)), out)
        pairs = [
            (t, s)
            for t in range(28)
            for s in range(28)
            if t != s and s in reach[t]
        ]
        rng = random.Random(seed)
        for t, s in rng.sample(pairs, min(5, len(pairs))):
            got = idx.collect_merge_list(t, s)
            want = {w for w in range(28) if w in reach[t] and s in reach[w]} | {s}
            assert set(got) == want
            assert got[0] == s and got[-1] == t


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

    idx.delete_edge(NODE["N"], NODE["B"])
    c4 = idx.find(NODE["N"])
    assert c4 != comps["3"] and idx.graph.scc_size(c4) == 5
    assert {idx.find(NODE[x]) for x in "NOPST"} == {c4}
    assert {idx.find(NODE[x]) for x in "ABC"} == {comps["3"]}
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
        idx.extract_components(NODE["A"], NODE["R"], comps["1"])


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
    idx = ReachabilityIndex.build([], 0, LabelerConfig(k=1, seed=0))
    idx.insert_node(0)
    assert idx.label_of(idx.find(0)) == ((0, 1),)
    assert idx.reachable(0, 0)


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
    idx.labeler.set_label(1, idx.label_of(0))
    idx.apply_batch([InsertEdge(0, 1)])
    check_label_invariants(idx)


def test_insert_node_with_large_id_takes_one_slot():
    # The id is large enough that a slot per id would cost tens of MB.
    idx = ReachabilityIndex.build([(0, 1)], 2, LabelerConfig(k=1, seed=0))
    cap = idx.graph.capacity
    idx.insert_node(10**6, out_edges=(0,))
    assert idx.graph.capacity == cap + 1
    assert idx.reachable(10**6, 1)
