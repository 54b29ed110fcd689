"""Digest every label and DAG edge after each update of one benchmark part.

    python3 tools/label_digest.py --workload churn --seed 1 --part 0

Draws part ``--part`` of the workload for ``--seed`` with
``replaybench/workloads.py`` (read only), builds the index of the checkout
this file sits in from its initial graph with the benchmark's labeler
settings, and applies its updates in order, mapping node ids as the
replay does.  After each update it hashes the id and the label of every
current component, and its DAG children and parents with their
multiplicities, in stored order.  It prints one line per update (its
number, its kind and the first hex digits of that hash), then one line
with the hash of them all.  Queries are skipped: they change neither.

Two checkouts that print the same lines kept the same components,
labels and DAG adjacency after every update, down to the order the
labelling shuffles, which is how a change meant to leave labels
bit-identical is checked against its parent:

    diff <(python3 A/tools/label_digest.py ...) <(python3 B/tools/label_digest.py ...)
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "replaybench")]  # this checkout's package first

from dynreach import LabelerConfig, ReachabilityIndex  # noqa: E402

from workloads import DE, IE, IN, QUERY, PROBE, SPECS, Spec, generate  # noqa: E402


def label_hash(idx: ReachabilityIndex) -> bytes:
    """Hash of the current components' ids and labels, then of each one's
    DAG children and parents as (degree, then node and multiplicity per
    edge) in stored order, in slot order."""
    g = idx.graph
    nodes = g.current_dag_nodes()
    h = hashlib.sha256(array("q", nodes).tobytes())
    for col in (*idx.labeler._b, *idx.labeler._e):
        h.update(array("q", [col[x] for x in nodes]).tobytes())
    adj = array("q")
    for x in nodes:
        for d in (g._out_d[x], g._in_d[x]):
            adj.append(len(d))
            for y, mu in d.items():
                adj.append(y)
                adj.append(mu)
    h.update(adj.tobytes())
    return h.digest()


def digests(spec: Spec, seed: int, part: int) -> list[tuple[str, bytes]]:
    """(kind, label hash) after each update of the part."""
    script = generate(spec, seed, part)
    idx = ReachabilityIndex.build(script.edges, spec.n, LabelerConfig(seed=seed))
    m = list(range(spec.n))  # logical node id -> index id, as the replay maps it
    out = []
    for step in script.steps:
        kind = step[0]
        if kind in (QUERY, PROBE):
            continue
        if kind == IE:
            idx.insert_edge(m[step[1]], m[step[2]])
        elif kind == DE:
            idx.delete_edge(m[step[1]], m[step[2]])
        elif kind == IN:
            m.append(idx.graph.capacity)
            idx.insert_node(m[step[1]], [m[w] for w in step[2]], [m[w] for w in step[3]])
        else:
            idx.delete_node(m[step[1]])
        out.append((kind, label_hash(idx)))
    return out


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(SPECS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0)
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    rows = digests(SPECS[args.workload], args.seed, args.part)
    for i, (kind, digest) in enumerate(rows):
        total.update(digest)
        print(i, kind, digest.hex()[:16])
    print(f"{len(rows)} updates: {total.hexdigest()}")


if __name__ == "__main__":
    main()
