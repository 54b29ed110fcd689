"""Workload replay harness: reports, variants, and cross-variant agreement."""
from __future__ import annotations

import gc
import json
from collections import Counter

import pytest

from dynreach import InputError, LabelerConfig, ReachabilityIndex, gen_ba_directed, gen_er, gen_updates, OpRatios, run_bench
from dynreach import bench
from dynreach.bench import TIMING_FIELDS, DfsBaseline, parse_variant
from dynreach.cli import main
from dynreach.io import parse_workload
from dynreach.ops import DeleteEdge, DeleteNode, InsertEdge, InsertNode, Query

from samples import NODE, SAMPLE_EDGES


THREE_OP_SCRIPT = [
    InsertEdge(NODE["N"], NODE["B"]),
    DeleteEdge(NODE["L"], NODE["P"]),
    DeleteEdge(NODE["N"], NODE["B"]),
]

KINDS = ("q", "ei", "ed", "ni", "nd")

ENGINES = {
    "dfs": lambda edges, n: DfsBaseline(edges, n),
    "dg1": lambda edges, n: ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=0)),
}


def test_parse_variant():
    assert parse_variant("dfs") is None
    assert parse_variant("dg0") == 0
    assert parse_variant("dg2") == 2


def test_report_schema_is_pinned():
    expected = {
        "answers_hash", "build_s", "dataset", "ed_count", "ed_mean_ms", "ei_count", "ei_mean_ms",
        "final_dag_nodes", "final_edges", "final_largest_scc", "final_nodes", "nd_count", "nd_mean_ms",
        "ni_count", "ni_mean_ms", "ops", "q_count", "q_mean_ms", "qpu", "query_hits", "seed", "total_s",
        "variant",
    }
    assert len(expected) == 23 and TIMING_FIELDS <= expected
    for variant in ("dfs", "dg1"):
        report = run_bench(SAMPLE_EDGES, 19, THREE_OP_SCRIPT, variant=variant, qpu=1, seed=4, dataset="d")
        assert set(report) == expected
        assert (report["dataset"], report["variant"], report["qpu"], report["seed"]) == ("d", variant, 1, 4)


@pytest.mark.parametrize("variant, qpu", [("dg1", -1), ("dfs", -1), ("dgx", 0), ("dg", 0)])
def test_bad_variant_or_qpu_is_refused_before_the_build(monkeypatch, variant, qpu):
    built = []
    monkeypatch.setattr(bench, "build_engine", lambda *args: built.append(args))
    with pytest.raises(InputError):
        run_bench(SAMPLE_EDGES, 19, THREE_OP_SCRIPT, variant=variant, qpu=qpu)
    assert built == []


def test_cli_bench_refuses_a_negative_qpu(tmp_path, capsys):
    g, w = tmp_path / "g.txt", tmp_path / "w.txt"
    g.write_text("#nodes 2\n0 1\n")
    w.write_text("")
    assert main(["bench", "--graph", str(g), "--workload", str(w), "--qpu", "-1"]) == 1
    assert "qpu must be >= 0" in capsys.readouterr().err


def test_three_op_script_census():
    report = run_bench(SAMPLE_EDGES, 19, THREE_OP_SCRIPT, variant="dg1", qpu=0)
    assert report["final_dag_nodes"] == 10
    assert report["final_largest_scc"] == 5
    assert {kind: report[f"{kind}_count"] for kind in KINDS} == {"q": 0, "ei": 1, "ed": 2, "ni": 0, "nd": 0}
    # final component sizes: the split leaves a 3-node and a 5-node SCC
    idx = ReachabilityIndex.build(SAMPLE_EDGES, 19, LabelerConfig(k=1, seed=0))
    for op in THREE_OP_SCRIPT:
        if isinstance(op, InsertEdge):
            idx.insert_edge(op.u, op.v)
        else:
            idx.delete_edge(op.u, op.v)
    sizes = sorted(len(p) for p in idx.scc_partition() if len(p) > 1)
    assert sizes == [3, 4, 5]
    assert len(idx.scc_partition()) == 10


def test_dfs_variant_zero_qpu_report():
    report = run_bench(SAMPLE_EDGES, 19, THREE_OP_SCRIPT, variant="dfs", qpu=0)
    assert report["q_count"] == 0
    assert report["query_hits"] == 0
    assert report["ei_count"] == 1 and report["ed_count"] == 2


def test_report_conservation():
    edges = gen_er(200, 300, seed=1)
    ops = gen_updates(edges, 200, 100, OpRatios(), seed=2)
    ops.append(Query(0, 1))
    report = run_bench(edges, 200, ops, variant="dg1", qpu=3, seed=5)
    assert sum(report[f"{kind}_count"] for kind in KINDS) == 100 + 1 + 100 * 3
    assert report["ops"] == 101


def test_cross_variant_answer_agreement():
    edges = gen_er(300, 450, seed=9)
    ops = gen_updates(edges, 300, 150, OpRatios(), seed=10)
    reports = {
        variant: run_bench(edges, 300, ops, variant=variant, qpu=2, seed=77)
        for variant in ("dfs", "dg0", "dg1", "dg2")
    }
    hashes = {r["answers_hash"] for r in reports.values()}
    assert len(hashes) == 1
    hits = {r["query_hits"] for r in reports.values()}
    assert len(hits) == 1


def test_dfs_baseline_engine_matches_index():
    edges = gen_er(120, 200, seed=4)
    base = DfsBaseline(edges, 120)
    idx = ReachabilityIndex.build(edges, 120, LabelerConfig(k=1, seed=4))
    import random

    rng = random.Random(0)
    for _ in range(300):
        u, v = rng.randrange(120), rng.randrange(120)
        assert base.reachable(u, v) == idx.reachable(u, v), (u, v)


def test_run_bench_reports_offending_op_index():
    import pytest

    from dynreach import InputError

    with pytest.raises(InputError, match="op 1"):
        run_bench([(0, 1)], 2, [Query(0, 1), DeleteEdge(1, 0)], variant="dg1")


def test_dfs_baseline_rejects_a_negative_node_id():
    # Ids go through the graph's id map, as the index's do: a negative id
    # is refused, and the deleted node 2 stays unknown.
    base = DfsBaseline([(0, 1), (1, 2)], 3)
    base.delete_node(2)
    with pytest.raises(InputError):
        base.insert_node(-1)
    with pytest.raises(InputError):
        base.reachable(0, 2)
    # A negative id in the input, or a negative node count, is refused as
    # the index refuses it, instead of wrapping to the last slot.
    with pytest.raises(InputError):
        DfsBaseline([(-1, 0)], 3)
    with pytest.raises(InputError):
        DfsBaseline([(0, -2)], 3)
    with pytest.raises(InputError):
        DfsBaseline([], -1)
    # A negative node count is refused also when the edges name more nodes,
    # by both engines.
    for variant in ENGINES:
        with pytest.raises(InputError, match="negative node count -1"):
            ENGINES[variant]([(0, 1)], -1)
    with pytest.raises(InputError):
        run_bench([(-1, 0)], 3, [], variant="dfs")


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_a_failed_node_insert_changes_nothing(variant):
    engine = ENGINES[variant]([(0, 1)], 2)
    with pytest.raises(InputError, match="99"):
        engine.insert_node(5, (0,), (99,))
    with pytest.raises(InputError, match="unknown input node 5"):
        engine.reachable(5, 1)
    g = engine.graph
    assert (g.input_node_ids(), list(g.input_edges()), g.num_input_edges) == ([0, 1], [(0, 1)], 1)
    engine.insert_node(5, (0,), (1,))
    assert engine.reachable(5, 1) and engine.reachable(1, 0)
    # The graph's one missing-edge check names ids, not slots.
    assert g.input_slot(5) == 2
    with pytest.raises(InputError, match=r"^edge \(5, 1\) does not exist$"):
        engine.delete_edge(5, 1)
    assert g.num_input_edges == 3


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_queries_draw_from_every_node_of_the_built_graph(variant):
    # Node 5 exists though ``num_nodes`` is 2: the graph's universe runs to
    # the largest id, so deleting it is a valid op, and queries draw from
    # ids 0..5 whatever ``num_nodes`` says.
    report = run_bench([(0, 5)], 2, [DeleteNode(5)], variant=variant, qpu=2, seed=1)
    assert (report["nd_count"], report["q_count"], report["final_nodes"]) == (1, 2, 5)
    ops = [InsertEdge(3, 4), DeleteNode(5), InsertNode(6, (4,), (0,)), Query(4, 3)]
    short, full = (run_bench([(0, 5)], n, ops, variant=variant, qpu=4, seed=2) for n in (2, 6))
    assert {k: v for k, v in short.items() if k not in TIMING_FIELDS} == {
        k: v for k, v in full.items() if k not in TIMING_FIELDS
    }


def _apply(engine, op) -> None:
    if isinstance(op, InsertEdge):
        engine.insert_edge(op.u, op.v)
    elif isinstance(op, DeleteEdge):
        engine.delete_edge(op.u, op.v)
    elif isinstance(op, InsertNode):
        engine.insert_node(op.u, op.out_edges, op.in_edges)
    else:
        engine.delete_node(op.u)


@pytest.mark.parametrize("seed", range(4))
def test_both_engines_keep_the_same_input_layer(seed):
    """Seeded histories on a small BA graph, replayed on the baseline and
    the index side by side.  Inserted ids start at ``num_nodes``, where the
    index keeps its SCC slots, so each engine's id map is exercised."""
    import random

    n = 40
    edges = gen_ba_directed(n, 2, 0.5, seed=seed)
    ops = gen_updates(edges, n, 120, OpRatios(), seed=seed + 10)
    base, idx = DfsBaseline(edges, n), ReachabilityIndex.build(edges, n, LabelerConfig(k=1, seed=seed))
    rng = random.Random(seed)
    for op in ops:
        _apply(base, op)
        _apply(idx, op)
        b, g = base.graph, idx.graph
        assert set(b.input_edges()) == set(g.input_edges()), op
        assert (b.num_input_nodes, b.num_input_edges) == (g.num_input_nodes, g.num_input_edges), op
        ids = g.input_node_ids()
        for _ in range(8):
            u, v = rng.choice(ids), rng.choice(ids)
            assert base.reachable(u, v) == idx.reachable(u, v), (op, u, v)


def test_collection_is_off_for_every_timed_call(monkeypatch):
    real_build = bench.build_engine
    seen = []

    def recording(call):
        def wrapper(*args):
            seen.append(gc.isenabled())
            return call(*args)

        return wrapper

    def build_engine(*args):
        engine = recording(real_build)(*args)
        for name in ("insert_edge", "delete_edge", "insert_node", "delete_node", "reachable"):
            setattr(engine, name, recording(getattr(engine, name)))
        return engine

    monkeypatch.setattr(bench, "build_engine", build_engine)
    assert gc.isenabled()
    run_bench(SAMPLE_EDGES, 19, THREE_OP_SCRIPT, variant="dg1", qpu=1)
    # The build, three updates and three queries.
    assert seen == [False] * 7
    assert gc.isenabled()
    with pytest.raises(InputError, match="op 1"):
        run_bench([(0, 1)], 2, [Query(0, 1), DeleteEdge(1, 0)], variant="dg1")
    assert seen[7:] == [False] * 3 and gc.isenabled()
    # A caller that had collection off keeps it off.
    gc.disable()
    try:
        run_bench(SAMPLE_EDGES, 19, THREE_OP_SCRIPT, variant="dfs", qpu=1)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen[10:] == [False] * 7


def _cli_bench(capsys, graph, workload, variant, qpu):
    assert main(["bench", "--graph", str(graph), "--workload", str(workload),
                 "--variant", variant, "--qpu", str(qpu), "--seed", "3"]) == 0
    return json.loads(capsys.readouterr().out)


def test_replay_goes_on_after_the_last_node_is_deleted(tmp_path, capsys):
    g, w = tmp_path / "g.txt", tmp_path / "w.txt"
    g.write_text("#nodes 2\n0 1\n")
    assert main(["gen-updates", "--graph", str(g), "--count", "2", "--ratios", "0,0,0,1",
                 "--seed", "1", "--out", str(w)]) == 0
    assert parse_workload(w) == [DeleteNode(0), DeleteNode(1)]
    dfs, dg1 = (_cli_bench(capsys, g, w, variant, qpu=1) for variant in ("dfs", "dg1"))
    # One query after the first deletion, none once no node is left.
    assert dg1["q_count"] == 1 and dg1["nd_count"] == 2 and dg1["final_nodes"] == 0
    assert (dg1["final_dag_nodes"], dg1["final_largest_scc"]) == (0, 0)
    # The baseline keeps no condensation, so it has no census of one.
    index_only = TIMING_FIELDS | {"variant", "final_dag_nodes", "final_largest_scc"}
    assert {k: v for k, v in dfs.items() if k not in index_only} == {
        k: v for k, v in dg1.items() if k not in index_only
    }


def test_cli_replay_at_2000_nodes_times_every_update_kind(tmp_path, capsys):
    g, w = tmp_path / "ba.txt", tmp_path / "w.txt"
    assert main(["gen-graph", "--model", "ba", "--n", "2000", "--d", "2", "--seed", "1", "--out", str(g)]) == 0
    assert main(["gen-updates", "--graph", str(g), "--count", "40", "--seed", "2", "--out", str(w)]) == 0
    ops = Counter(type(op) for op in parse_workload(w))
    assert sum(ops.values()) == 40
    dg1 = _cli_bench(capsys, g, w, "dg1", qpu=2)
    for kind, op in (("ei", InsertEdge), ("ed", DeleteEdge), ("ni", InsertNode), ("nd", DeleteNode)):
        assert dg1[f"{kind}_count"] == ops[op] > 0
        assert dg1[f"{kind}_mean_ms"] > 0
    assert dg1["q_count"] == 2 * 40 and dg1["q_mean_ms"] > 0
    assert 0 < dg1["final_largest_scc"] < dg1["final_nodes"]
    assert _cli_bench(capsys, g, w, "dfs", qpu=2)["answers_hash"] == dg1["answers_hash"]


@pytest.mark.parametrize("variant", ["dg1", "dfs"])
def test_query_endpoint_draws_are_pinned(variant):
    edges = gen_ba_directed(2000, 2, 0.5, 1)
    report = run_bench(edges, 2000, gen_updates(edges, 2000, 2000, OpRatios(), seed=2), variant, qpu=2, seed=3)
    assert report["q_count"] == 4000 and report["query_hits"] == 2792
    assert report["answers_hash"].startswith("3404e07ed1ed356b")
