"""The traffic tool lists the statements of the package that a benchmark
replay never runs."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("traffic_lines", ROOT / "tools" / "traffic_lines.py")
traffic_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic_lines)

from workloads import SPECS, smoke  # noqa: E402  (on the path the tool set)

FIXTURE = '''def f(x):
    """Doc."""
    if x:
        y = 1
    else:
        y = 2
    try:
        y += 1
    except ValueError:
        y = 0
    while True:
        break
    return y


class A:
    def g(self):
        def inner():
            return 1
        return 2


def h():
    class B:
        def m(self):
            return 3
    return B
'''


def test_statements_of_each_function_in_source_order():
    assert list(traffic_lines.functions(FIXTURE)) == [
        ("f", [(3, 3), (4, 4), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10), (11, 11), (12, 12), (13, 13)]),
        ("A.g", [(18, 18), (20, 20)]),
        ("A.g.inner", [(19, 19)]),
        ("h", [(24, 24), (27, 27)]),
        ("h.B.m", [(26, 26)]),
    ]


def test_traced_call_leaves_the_branches_not_taken(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    spec = importlib.util.spec_from_file_location("fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = sys.gettrace()
    ran = traffic_lines.traced_lines([path], lambda: (module.f(1), module.A().g()))
    assert sys.gettrace() is before
    rows = list(traffic_lines.unrun(FIXTURE, ran[path]))
    assert rows == [
        ("f", [(6, 6), (9, 9), (10, 10)], 10),
        ("A.g", [], 2),
        ("A.g.inner", [(19, 19)], 1),
        ("h", [(24, 24), (27, 27)], 2),
        ("h.B.m", [(26, 26)], 1),
    ]
    assert traffic_lines.ranges(rows[0][1]) == "6, 9-10"


def test_cli_on_a_smoke_replay(capsys, monkeypatch):
    monkeypatch.setitem(SPECS, "churn", smoke(SPECS["churn"]))
    assert traffic_lines.main(["churn", "1", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "cli.py main: never called" in lines  # the replay calls the index only
    printed = {line.split(":")[0] for line in lines}
    assert "index.py ReachabilityIndex.insert_edge" in printed  # its no-op return never runs
    assert "index.py ReachabilityIndex.delete_edge" not in printed  # every statement ran
    assert lines[-1].endswith(" functions never ran")
