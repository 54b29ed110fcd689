"""Text formats and the command-line front end."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynreach
from dynreach import InputError, gen_er, gen_updates, OpRatios
from dynreach.cli import main
from dynreach.io import (
    parse_graph,
    parse_graph_text,
    parse_workload_text,
    serialize_graph,
    serialize_workload,
    write_graph,
    write_workload,
)
from dynreach.ops import DeleteNode, InsertEdge, InsertNode, Query

from samples import SAMPLE_EDGES


def test_parse_graph_basic():
    edges, n = parse_graph_text("0 1\n1 2\n")
    assert edges == [(0, 1), (1, 2)]
    assert n == 3


def test_parse_graph_nodes_header_and_comments():
    edges, n = parse_graph_text("#nodes 5\n# a comment\n0 1\n")
    assert edges == [(0, 1)]
    assert n == 5


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(InputError, match=":2"):
        parse_graph_text("0 1\n0 x\n", name="g")
    with pytest.raises(InputError, match=":1"):
        parse_graph_text("0 -4\n", name="g")
    with pytest.raises(InputError, match=":3"):
        parse_graph_text("0 1\n1 2\n3 4 5\n", name="g")


def test_graph_round_trip(tmp_path):
    for seed in range(20):
        edges = gen_er(40, 60, seed)
        path = tmp_path / f"g{seed}.txt"
        write_graph(path, edges, 40)
        parsed, n = parse_graph(path)
        assert (parsed, n) == (edges, 40)
        assert serialize_graph(parsed, n) == path.read_text()


def test_parse_workload_examples():
    ops = parse_workload_text("IE 3 4\nQ 0 4\n")
    assert ops == [InsertEdge(3, 4), Query(0, 4)]
    ops = parse_workload_text("IN 7 O 1 2 I 3\n")
    assert ops == [InsertNode(7, (1, 2), (3,))]
    ops = parse_workload_text("IN 7 O I\nDN 2\n")
    assert ops == [InsertNode(7, (), ()), DeleteNode(2)]


def test_parse_workload_errors():
    with pytest.raises(InputError, match=":1"):
        parse_workload_text("XX 1 2\n")
    with pytest.raises(InputError, match=":2"):
        parse_workload_text("IE 1 2\nIE 1\n")
    with pytest.raises(InputError):
        parse_workload_text("IN 7 O 1 2\n")  # missing I marker


def test_workload_round_trip(tmp_path):
    edges = gen_er(60, 90, seed=2)
    ops = gen_updates(edges, 60, 120, OpRatios(), seed=3)
    path = tmp_path / "w.txt"
    write_workload(path, ops)
    from dynreach.io import parse_workload

    assert parse_workload(path) == ops
    assert serialize_workload(ops) == path.read_text()


# ----------------------------------------------------------------------
# CLI


def _write_sample(tmp_path):
    path = tmp_path / "sample.txt"
    write_graph(path, SAMPLE_EDGES, 19)
    return path


def test_cli_query_known_pair(tmp_path, capsys):
    g = _write_sample(tmp_path)
    # R -> S crosses into the big sink component
    code = main(["query", "--graph", str(g), "--k", "1", "--seed", "1",
                 "--pair", "16", "17"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"
    code = main(["query", "--graph", str(g), "--k", "1", "--seed", "1",
                 "--pair", "12", "16"])  # M cannot reach R
    assert code == 0
    assert capsys.readouterr().out.strip() == "false"


def test_cli_build_census(tmp_path, capsys):
    g = _write_sample(tmp_path)
    assert main(["build", "--graph", str(g), "--k", "2", "--seed", "0"]) == 0
    census = json.loads(capsys.readouterr().out)
    assert census == {"nodes": 19, "edges": 28, "dag_nodes": 10, "largest_scc": 5}


def test_cli_missing_file_exits_one(tmp_path, capsys):
    assert main(["build", "--graph", str(tmp_path / "nope.txt")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_gen_graph_and_updates(tmp_path):
    g = tmp_path / "er.txt"
    assert main(["gen-graph", "--model", "er", "--n", "100", "--m", "150",
                 "--seed", "7", "--out", str(g)]) == 0
    edges, n = parse_graph(g)
    assert n == 100 and len(edges) == 150
    w = tmp_path / "w.txt"
    assert main(["gen-updates", "--graph", str(g), "--count", "50",
                 "--ratios", "60,15,20,5", "--seed", "7", "--out", str(w)]) == 0
    from dynreach.io import parse_workload

    assert len(parse_workload(w)) == 50


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_cli_non_finite_ratio_exits_one(tmp_path, capsys, weight):
    # A NaN weight fails every comparison, so a sign check alone would drop
    # its kind from the mix; an infinite one breaks the weighted draw.
    g = _write_sample(tmp_path)
    w = tmp_path / "w.txt"
    assert main(["gen-updates", "--graph", str(g), "--count", "5",
                 "--ratios", f"{weight},1,1,1", "--out", str(w)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not w.exists()


@pytest.mark.parametrize("flag, value", [("--count", "-3"), ("--d", "-1")])
def test_cli_gen_updates_refuses_a_negative_count_or_degree_bound(tmp_path, capsys, flag, value):
    g = _write_sample(tmp_path)
    w = tmp_path / "w.txt"
    assert main(["gen-updates", "--graph", str(g), "--count", "5", "--ratios", "0,0,1,0",
                 "--out", str(w), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "count >= 0 and d >= 0" in err
    assert not w.exists()


def test_cli_gen_graph_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        main(["gen-graph", "--model", "ba", "--n", "200", "--d", "2",
              "--reverse-prob", "0.5", "--seed", "3", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_bench_reports_and_determinism(tmp_path, capsys):
    from dynreach.bench import TIMING_FIELDS

    g = _write_sample(tmp_path)
    w = tmp_path / "w.txt"
    w.write_text("IE 13 1\nDE 11 15\nDE 13 1\nQ 16 17\n")
    argv = ["bench", "--graph", str(g), "--workload", str(w),
            "--variant", "dg1", "--qpu", "2", "--seed", "42"]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append(json.loads(capsys.readouterr().out))
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    runs.append(json.loads(out.read_text()))
    for report in runs:
        for field in TIMING_FIELDS:
            report.pop(field)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["final_dag_nodes"] == 10
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--report", "json"])
    assert exc.value.code == 2
    assert "--report" in capsys.readouterr().err


def test_cli_bad_variant_exits_one(tmp_path, capsys):
    g = _write_sample(tmp_path)
    w = tmp_path / "w.txt"
    w.write_text("Q 0 1\n")
    assert main(["bench", "--graph", str(g), "--workload", str(w),
                 "--variant", "turbo"]) == 1
    assert "variant" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "query"])
def test_cli_negative_k_exits_one(tmp_path, capsys, command):
    g = _write_sample(tmp_path)
    pair = ["--pair", "16", "17"] if command == "query" else []
    assert main([command, "--graph", str(g), "--k", "-1", *pair]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dimension count" in err


def test_console_script_smoke(tmp_path):
    g = _write_sample(tmp_path)
    # The child imports the package this test imported, also when only
    # pytest's ``pythonpath`` setting put it on the path.
    src = str(Path(dynreach.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "dynreach.cli", "query", "--graph", str(g),
         "--pair", "16", "17"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"
