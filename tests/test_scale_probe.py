"""The scale probe times every op kind of the churn mix on a BA graph."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("scale_probe", ROOT / "tools" / "scale_probe.py")
scale_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_probe)


def test_probe_at_2000_nodes_times_every_op_kind(capsys):
    scale_probe.main(["--n", "2000", "--updates", "40"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["n"] == 2000 and 0 < result["largest_scc"] < 2000
    calls = {kind: row["calls"] for kind, row in result["ops"].items()}
    # Two rounds of the churn mix (12, 3, 4, 1), and 2 queries per update.
    assert calls == {"query": 80, "insert_edge": 24, "delete_edge": 6, "insert_node": 8, "delete_node": 2}
    assert all(row["mean_ms"] > 0 for row in result["ops"].values())
    assert lines[0].startswith("n 2000  largest SCC ")
