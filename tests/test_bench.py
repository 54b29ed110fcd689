"""Workload replay harness: reports, variants, and cross-variant agreement."""
from __future__ import annotations

import pytest

from dynreach import BenchConfig, InputError, LabelerConfig, ReachabilityIndex, gen_er, gen_updates, OpRatios, run_bench
from dynreach.bench import DfsBaseline, parse_variant
from dynreach.ops import DeleteEdge, InsertEdge, Query

from samples import NODE, SAMPLE_EDGES


THREE_OP_SCRIPT = [
    InsertEdge(NODE["N"], NODE["B"]),
    DeleteEdge(NODE["L"], NODE["P"]),
    DeleteEdge(NODE["N"], NODE["B"]),
]


def test_parse_variant():
    assert parse_variant("dfs") is None
    assert parse_variant("dg0") == 0
    assert parse_variant("dg2") == 2


def test_three_op_script_census():
    report = run_bench(SAMPLE_EDGES, 19, THREE_OP_SCRIPT, BenchConfig(variant="dg1", qpu=0))
    assert report.final_dag_nodes == 10
    assert report.final_largest_scc == 5
    assert report.counts == {"q": 0, "ei": 1, "ed": 2, "ni": 0, "nd": 0}
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
    report = run_bench(SAMPLE_EDGES, 19, THREE_OP_SCRIPT, BenchConfig(variant="dfs", qpu=0))
    assert report.counts["q"] == 0
    assert report.query_hits == 0
    assert report.counts["ei"] == 1 and report.counts["ed"] == 2


def test_report_conservation():
    edges = gen_er(200, 300, seed=1)
    ops = gen_updates(edges, 200, 100, OpRatios(), seed=2)
    ops.append(Query(0, 1))
    cfg = BenchConfig(variant="dg1", qpu=3, seed=5)
    report = run_bench(edges, 200, ops, cfg)
    assert sum(report.counts.values()) == 100 + 1 + 100 * 3
    assert report.ops == 101


def test_warmup_excluded_from_stats():
    ops = [Query(0, 1)] * 10
    report = run_bench([(0, 1)], 2, ops, BenchConfig(variant="dfs", qpu=0, warmup=4))
    assert report.counts["q"] == 6
    # answers are still collected for every query
    assert report.query_hits == 10


def test_cross_variant_answer_agreement():
    edges = gen_er(300, 450, seed=9)
    ops = gen_updates(edges, 300, 150, OpRatios(), seed=10)
    reports = {
        variant: run_bench(edges, 300, ops, BenchConfig(variant=variant, qpu=2, seed=77))
        for variant in ("dfs", "dg0", "dg1", "dg2")
    }
    hashes = {r.answers_hash for r in reports.values()}
    assert len(hashes) == 1
    hits = {r.query_hits for r in reports.values()}
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
        run_bench([(0, 1)], 2, [Query(0, 1), DeleteEdge(1, 0)], BenchConfig(variant="dg1"))


def test_dfs_baseline_rejects_a_negative_node_id():
    # A negative id would index from the end of the slot lists and bring
    # the deleted node 2 back.
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
    with pytest.raises(InputError):
        run_bench([(-1, 0)], 3, [], BenchConfig(variant="dfs"))
