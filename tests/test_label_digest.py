"""The label digest tool replays a benchmark part deterministically and
hashes labels and DAG adjacency."""
from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("label_digest", ROOT / "tools" / "label_digest.py")
label_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(label_digest)

from workloads import SPECS, smoke  # noqa: E402  (on the path the tool set)


def test_digest_of_a_smoke_part_is_reproducible():
    spec = smoke(SPECS["churn"])
    first = label_digest.digests(spec, 1, 0)
    assert first == label_digest.digests(spec, 1, 0)
    assert len(first) == spec.updates
    assert {kind for kind, _ in first} == {"insert_edge", "delete_edge", "insert_node", "delete_node"}
    assert len({digest for _, digest in first}) > 1  # the labels it hashes change
    assert first != label_digest.digests(spec, 2, 0)


def test_cli_prints_a_line_per_update_and_a_total(capsys, monkeypatch):
    spec = smoke(SPECS["churn"])
    monkeypatch.setitem(SPECS, "churn", spec)
    label_digest.main(["--workload", "churn", "--seed", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == spec.updates + 1
    assert lines[-1].startswith(f"{spec.updates} updates: ")


#: The total for the churn smoke part 0 of each seed, as printed by the
#: code that first pinned it: a change meant to leave components, labels
#: and DAG order bit-identical must print it too.
SMOKE_TOTALS = {
    1: "6d81ea3edb69b4294270b4c65b219c379410e6b5ad46a9098cca70a537bf03bf",
    2: "ca1d106f34867282ab35c1e6bc5eb27d31320efcabca5a136fe991269183216b",
    3: "2db41e90bac22770e7490083cbaa3cb77abf84253a25f04c4c8ffde6903880aa",
}


@pytest.mark.parametrize("seed", sorted(SMOKE_TOTALS))
def test_smoke_part_total_is_pinned(capsys, monkeypatch, seed):
    monkeypatch.setitem(SPECS, "churn", smoke(SPECS["churn"]))
    label_digest.main(["--workload", "churn", "--seed", str(seed), "--part", "0"])
    assert capsys.readouterr().out.splitlines()[-1] == f"40 updates: {SMOKE_TOTALS[seed]}"


#: The total for part 0 of a read-mostly smoke script of 400 updates for
#: each seed, as printed by the code that first pinned it.  Its deletions
#: split an SCC 12, 12 and 9 times, 9, 9 and 6 times into one piece next
#: to the remnant; a churn smoke part splits 2 or 3 times.
SPLIT_TOTALS = {
    1: "e202683713cf486b600f21fe39a07ba0c012e573d7caaeb58a1a2c8c4601cadd",
    2: "b3b9bf32be363ef4689f7d036c66d514524457efe93a15b31bb813b0f2680e0c",
    3: "c8a0b9c8318c874a93d1dbcdf619242871a0f89de838f6da6c6bffbe7e717db9",
}


@pytest.mark.parametrize("seed", sorted(SPLIT_TOTALS))
def test_split_heavy_part_total_is_pinned(capsys, monkeypatch, seed):
    monkeypatch.setitem(SPECS, "read-mostly", replace(smoke(SPECS["read-mostly"]), updates=400))
    label_digest.main(["--workload", "read-mostly", "--seed", str(seed), "--part", "0"])
    assert capsys.readouterr().out.splitlines()[-1] == f"400 updates: {SPLIT_TOTALS[seed]}"


def test_hash_covers_dag_multiplicities_and_their_order():
    idx = label_digest.ReachabilityIndex.build([(0, 1), (0, 2), (3, 1)], 4)
    g = idx.graph
    before = label_digest.label_hash(idx)
    g._add_dag_edge(0, 1, 1)  # a multiplicity changes, no label does
    assert label_digest.label_hash(idx) != before
    g._dec_dag_edge(0, 1)
    assert label_digest.label_hash(idx) == before
    od = g._out_d[0]
    od[1] = od.pop(1)  # the same children, stored in the other order
    assert label_digest.label_hash(idx) != before
