"""Summarize replay-benchmark pairs into one committed ledger file.

    python3 tools/bench_ledger.py RUNS_DIR BENCH_N.json

``RUNS_DIR`` holds the captured output of ``replaybench/run.py`` runs of
two commits, the parent and the change: for each run, its standard
output in ``<side>_<workload>_s<seed>.out`` and its standard error in the
``.err`` file of the same name, where ``<side>`` is ``parent`` or
``change``; traced runs (``--trace 1``) end in ``_trace`` before the
suffix.  The last line of each ``.out`` file is the run's JSON result;
the ``.err`` file gives the host-speed scale range and, for a traced run,
the time inside index calls.

The ledger holds, per workload: the seeds and the number of pairs (a seed
run on both sides), ``parent_first`` (the pairs whose parent ``.out`` file
is older than the change's, by modification time: a ledger whose sides
did not alternate shows what runs second, as well as what changed), the
host-speed scale range and the failures per side,
and for every end-to-end metric of ``BENCHMARK.json`` each side's median
and quartiles with the number of pairs the change won; and, per traced
workload and seed, both sides' per-layer metrics.  Each metric also
reports, for reading only:

* ``change/parent``: the change's median over the parent's;
* ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's bound in ``BENCHMARK.json``;
* ``gain_rule``: the change won at least nine in ten pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range.

A workload with fewer than two pairs stops it with a message that names
the workload.  It adds no gate: ``BENCHMARK.json`` stays the gate.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
NAME = re.compile(r"^(parent|change)_(.+)_s(\d+)(_trace)?\.out$")
SCALE = re.compile(r"host speed scale ([0-9.]+)\.\.([0-9.]+)")
INDEX_MS = re.compile(r"traced pass: ([0-9.]+) ms inside index calls")


def read_run(out: Path) -> dict:
    """The JSON result of one run, with its scale range (and, for a traced
    run, the time inside index calls) from its standard error, and the
    modification time of its ``.out`` file."""
    result = json.loads(out.read_text().strip().splitlines()[-1])
    result["mtime_ns"] = out.stat().st_mtime_ns
    err = out.with_suffix(".err").read_text()
    scale = SCALE.search(err)
    if scale is None:
        raise ValueError(f"{out.with_suffix('.err')}: no host speed scale")
    result["scale"] = [float(scale[1]), float(scale[2])]
    index_ms = INDEX_MS.search(err)
    if index_ms is not None:
        result["index_ms"] = float(index_ms[1])
    return result


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median(values), "q3": q3}


def ledger(runs: Path, spec: dict) -> dict:
    timed: dict[str, dict[str, dict[int, dict]]] = {}
    traced: dict[str, dict[str, dict[int, dict]]] = {}
    for out in sorted(runs.glob("*.out")):
        match = NAME.match(out.name)
        if match is None:
            continue
        side, workload, seed, trace = match.groups()
        table = traced if trace else timed
        table.setdefault(workload, {s: {} for s in SIDES})[side][int(seed)] = read_run(out)
    result: dict = {"command": spec["command"] + ["--seconds", str(spec["run_seconds"])], "workloads": {}}
    for workload, sides in sorted(timed.items()):
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        if len(seeds) < 2:
            sys.exit(f"{runs}: workload {workload}: {len(seeds)} pair(s) of runs, a ledger needs at least 2")
        row: dict = {
            "seeds": seeds,
            "pairs": len(seeds),
            "parent_first": sum(sides["parent"][s]["mtime_ns"] < sides["change"][s]["mtime_ns"] for s in seeds),
            "metrics": {},
        }
        for side in SIDES:
            side_runs = [sides[side][s] for s in seeds]
            row[f"{side}_scale"] = [min(r["scale"][0] for r in side_runs), max(r["scale"][1] for r in side_runs)]
            row[f"{side}_failed"] = sum(r["failed"] for r in side_runs)
            row[f"{side}_correct"] = all(r["correct"] for r in side_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [sides[side][s]["metrics"][name]["value"] for s in seeds] for side in SIDES}
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            parent, change = spread(values["parent"]), spread(values["change"])
            gain = sign * (change["median"] - parent["median"])
            row["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "change/parent": change["median"] / parent["median"],
                "within_bound": gain >= -metric["bound"] * parent["median"],
                "gain_rule": 10 * wins >= 9 * len(seeds) and gain > parent["q3"] - parent["q1"],
            }
        result["workloads"][workload] = row
    result["traced"] = {
        workload: {
            str(seed): {
                side: {
                    "index_ms": sides[side][seed].get("index_ms"),
                    **{k: v["value"] for k, v in sides[side][seed]["metrics"].items()},
                }
                for side in SIDES
            }
            for seed in sorted(set(sides["parent"]) & set(sides["change"]))
        }
        for workload, sides in sorted(traced.items())
    }
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    Path(argv[1]).write_text(json.dumps(ledger(Path(argv[0]), spec), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
