"""The benchmark ledger summarizes captured replay-benchmark pairs."""
from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_ledger", ROOT / "tools" / "bench_ledger.py")
bench_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ledger)
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def write_run(runs: Path, name: str, ops: float, scale: str, traced: bool = False) -> None:
    metrics = {m["name"]: {"value": ops, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    (runs / f"{name}.out").write_text("noise\n" + json.dumps(result) + "\n")
    err = "traced pass: 12.5 ms inside index calls\n" if traced else ""
    (runs / f"{name}.err").write_text(err + f"churn seed 1: 1 passes, host speed scale {scale}, 0 failed\n")


def test_ledger_pairs_medians_wins_and_trace(tmp_path):
    for seed, (p, c) in enumerate([(1.0, 2.0), (2.0, 1.5), (3.0, 4.0)], start=11):
        write_run(tmp_path, f"parent_churn_s{seed}", p, "0.600..0.700")
        write_run(tmp_path, f"change_churn_s{seed}", c, "0.650..0.690")
    write_run(tmp_path, "change_churn_s14", 9.0, "0.1..0.2")  # no pair: left out
    write_run(tmp_path, "parent_churn_s1_trace", 5.0, "0.6..0.6", traced=True)
    write_run(tmp_path, "change_churn_s1_trace", 4.0, "0.6..0.6", traced=True)
    out = bench_ledger.ledger(tmp_path, SPEC)
    row = out["workloads"]["churn"]
    assert row["seeds"] == [11, 12, 13] and row["pairs"] == 3
    assert row["parent_scale"] == [0.6, 0.7] and row["change_failed"] == 0
    ops = row["metrics"]["ops_per_s"]
    assert ops["parent"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    assert ops["change"]["median"] == 2.0 and ops["change_wins"] == 2
    assert row["metrics"]["query_p50_ms"]["change_wins"] == 1  # lower is better
    assert set(row["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert ops["change/parent"] == 1.0 and ops["within_bound"] and not ops["gain_rule"]
    trace = out["traced"]["churn"]["1"]
    assert trace["parent"]["index_ms"] == 12.5 and trace["change"]["ops_per_s"] == 4.0


def test_ledger_bound_and_gain_rule(tmp_path):
    # ops_per_s is better higher: the change wins 9 of 10 pairs by far more
    # than the parent's interquartile range.  Every metric takes the same
    # values, so the lower-is-better ones lose by a factor of three.
    for seed in range(10):
        p = 100.0 + seed
        write_run(tmp_path, f"parent_churn_s{seed}", p, "0.6..0.7")
        write_run(tmp_path, f"change_churn_s{seed}", p - 1 if seed == 0 else 3 * p, "0.6..0.7")
    metrics = bench_ledger.ledger(tmp_path, SPEC)["workloads"]["churn"]["metrics"]
    ops = metrics["ops_per_s"]
    assert ops["change_wins"] == 9 and ops["gain_rule"] and ops["within_bound"]
    assert round(ops["change/parent"], 2) == 3.0
    p99 = metrics["update_p99_ms"]
    assert p99["change_wins"] == 1 and not p99["gain_rule"] and not p99["within_bound"]
    write_run(tmp_path, "change_churn_s1", 50.0, "0.6..0.7")  # 8 of 10 breaks the gain rule
    ops = bench_ledger.ledger(tmp_path, SPEC)["workloads"]["churn"]["metrics"]["ops_per_s"]
    assert ops["change_wins"] == 8 and not ops["gain_rule"]


def test_ledger_counts_the_pairs_whose_parent_ran_first(tmp_path):
    # Seeds 0-3: the parent's .out is older in pairs 0 and 2 only.
    for seed in range(4):
        for side in ("parent", "change"):
            write_run(tmp_path, f"{side}_churn_s{seed}", 1.0, "0.6..0.7")
        older, newer = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        os.utime(tmp_path / f"{older}_churn_s{seed}.out", (1_000 + seed, 1_000 + seed))
        os.utime(tmp_path / f"{newer}_churn_s{seed}.out", (2_000 + seed, 2_000 + seed))
    assert bench_ledger.ledger(tmp_path, SPEC)["workloads"]["churn"]["parent_first"] == 2
    os.utime(tmp_path / "parent_churn_s1.out", (10, 10))
    assert bench_ledger.ledger(tmp_path, SPEC)["workloads"]["churn"]["parent_first"] == 3


def test_ledger_stops_on_a_workload_run_on_one_side_only(tmp_path):
    for seed in range(3):
        write_run(tmp_path, f"parent_churn_s{seed}", 1.0, "0.6..0.7")
    with pytest.raises(SystemExit, match=r"workload churn: 0 pair\(s\)"):
        bench_ledger.ledger(tmp_path, SPEC)


def test_ledger_stops_on_a_workload_with_one_pair(tmp_path):
    for seed in range(3):
        write_run(tmp_path, f"parent_churn_s{seed}", 1.0, "0.6..0.7")
    write_run(tmp_path, "change_churn_s1", 1.0, "0.6..0.7")
    with pytest.raises(SystemExit, match=r"workload churn: 1 pair\(s\)"):
        bench_ledger.ledger(tmp_path, SPEC)


# A stand-in for ``replaybench/run.py``: prints its arguments in a result
# whose every end-to-end metric is ``VALUE``, and a host speed scale.
STUB_RUN = """import json, sys
metrics = {name: {"value": VALUE, "unit": "-"} for name in NAMES}
print("noise")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "args": sys.argv[1:], "metrics": metrics}))
print("churn: 1 passes, host speed scale 0.6..0.7, 0 failed", file=sys.stderr)
"""


def stub_checkout(root: Path, value: float) -> Path:
    run = root / "replaybench" / "run.py"
    run.parent.mkdir(parents=True)
    names = [m["name"] for m in SPEC["end_to_end"]]
    run.write_text(STUB_RUN.replace("VALUE", repr(value)).replace("NAMES", repr(names)))
    return root


def test_pairs_alternate_sides_into_the_files_the_ledger_reads(tmp_path):
    parent = stub_checkout(tmp_path / "parent", 1.0)
    change = stub_checkout(tmp_path / "change", 2.0)
    runs = tmp_path / "runs"
    assert bench_pairs.main([str(parent), str(change), str(runs), "churn", "7", "8", "9"]) == 0
    assert sorted(p.name for p in runs.iterdir()) == sorted(
        f"{side}_churn_s{seed}{suffix}" for side in ("parent", "change") for seed in (7, 8, 9) for suffix in (".out", ".err")
    )
    result = json.loads((runs / "change_churn_s8.out").read_text().splitlines()[-1])
    assert result["args"] == ["--workload", "churn", "--seed", "8", "--seconds", "50", "--trace", "0"]
    row = bench_ledger.ledger(runs, SPEC)["workloads"]["churn"]
    assert row["pairs"] == 3 and row["parent_first"] == 2
    assert row["metrics"]["ops_per_s"]["change_wins"] == 3


def test_pairs_refuse_a_checkout_without_the_replay_or_an_existing_file(tmp_path):
    parent = stub_checkout(tmp_path / "parent", 1.0)
    runs = tmp_path / "runs"
    with pytest.raises(SystemExit, match="change checkout .* has no replaybench/run.py"):
        bench_pairs.run_pairs(parent, tmp_path, runs, "churn", [1])
    assert not runs.exists()
    change = stub_checkout(tmp_path / "change", 2.0)
    runs.mkdir()
    (runs / "change_churn_s2.err").write_text("kept\n")
    with pytest.raises(SystemExit, match="change_churn_s2.err exists already"):
        bench_pairs.run_pairs(parent, change, runs, "churn", [1, 2])
    assert [p.name for p in runs.iterdir()] == ["change_churn_s2.err"]
    assert (runs / "change_churn_s2.err").read_text() == "kept\n"
