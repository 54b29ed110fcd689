"""Time the index at a given graph size under the ``churn`` update mix.

    python3 tools/scale_probe.py --n 400000 --updates 2000

Builds a BA graph of ``--n`` nodes, ``ba_edges(n, Random(f"scale/{n}"))``
from ``replaybench/workloads.py`` (read only), and indexes it with the
index of the checkout this file sits in, at the benchmark's labeler
settings for seed 1.  It then draws ``--updates`` updates of the
``churn`` mix with ``OpStream`` for seed 1 over the same graph, each
followed by 2 uniform queries, and applies them in order, mapping node
ids as the replay does.  Every index call is timed with ``perf_counter``;
drawing the ops is not.  Answers are not checked.  Automatic garbage
collection is off while the ops run, as in the replay, so that no call
is charged for a scan of the graph that another's allocations set off.

It prints the size of the largest component and the build time (graph
plus labels), then the calls and mean milliseconds per op kind, and last
one JSON line with the same numbers.  Run it on two checkouts to compare
them at a size the replay benchmark does not reach.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "replaybench")]  # this checkout's package first

from dynreach import LabelerConfig, ReachabilityIndex  # noqa: E402

from reference import RefGraph  # noqa: E402
from workloads import DE, IE, IN, QUERY, SPECS, UPDATE_KINDS, OpStream, ba_edges  # noqa: E402

QUERIES_PER_UPDATE = 2
SEED = 1


def probe(n: int, updates: int) -> dict:
    """Build time, largest component and (calls, mean ms) per op kind."""
    edges = ba_edges(n, random.Random(f"scale/{n}"))
    start = perf_counter()
    idx = ReachabilityIndex.build(edges, n, LabelerConfig(seed=SEED))
    build_s = perf_counter() - start
    stream = OpStream(replace(SPECS["churn"], n=n), SEED, RefGraph(n, edges))
    m = list(range(n))  # logical node id -> index id, as the replay maps it
    calls = {kind: [0, 0.0] for kind in (QUERY, *UPDATE_KINDS)}
    gc.disable()
    try:
        for _ in range(updates):
            op = stream.next_update()
            kind = op[0]
            if kind == IE:
                call, args = idx.insert_edge, (m[op[1]], m[op[2]])
            elif kind == DE:
                call, args = idx.delete_edge, (m[op[1]], m[op[2]])
            elif kind == IN:
                m.append(idx.graph.capacity)
                call, args = idx.insert_node, (m[op[1]], [m[w] for w in op[2]], [m[w] for w in op[3]])
            else:
                call, args = idx.delete_node, (m[op[1]],)
            ops = [(kind, call, args)]
            for _ in range(QUERIES_PER_UPDATE):
                u, v = stream.next_query(walk=False)
                ops.append((QUERY, idx.reachable, (m[u], m[v])))
            for kind, call, args in ops:
                start = perf_counter()
                call(*args)
                elapsed = perf_counter() - start
                calls[kind][0] += 1
                calls[kind][1] += elapsed
    finally:
        gc.enable()
    return {
        "n": n,
        "largest_scc": idx.census()["largest_scc"],
        "build_s": round(build_s, 3),
        "ops": {
            kind: {"calls": c, "mean_ms": round(1e3 * t / c, 4) if c else None} for kind, (c, t) in calls.items()
        },
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--n", type=int, required=True, help="nodes of the BA graph")
    ap.add_argument("--updates", type=int, default=2000)
    args = ap.parse_args(argv)
    if args.n < 5 or args.updates < 1:
        ap.error("--n must be at least 5 and --updates at least 1")
    result = probe(args.n, args.updates)
    print(f"n {result['n']}  largest SCC {result['largest_scc']}  build {result['build_s']:.2f} s")
    for kind, row in result["ops"].items():
        mean = "-" if row["mean_ms"] is None else f"{row['mean_ms']:.4f}"
        print(f"{kind:<12} {row['calls']:>6} calls  {mean} ms mean")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
