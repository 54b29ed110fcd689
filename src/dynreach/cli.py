"""Command-line front end: generate graphs and workloads, build indexes,
answer single queries, and replay benchmark runs.

Exit codes: 0 success, 1 input or parse error, 2 broken internal
invariant.  All randomness derives from --seed.
"""
from __future__ import annotations

import argparse
import json
import sys

from .bench import run_bench
from .errors import InputError, InternalError, LogicError
from .index import ReachabilityIndex
from .io import parse_graph, parse_workload, write_graph, write_workload
from .labeling import LabelerConfig
from .workload import OpRatios, gen_ba_directed, gen_er, gen_updates


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynreach",
        description="Dynamic graph reachability index and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a random graph file")
    p.add_argument("--model", choices=("er", "ba"), required=True)
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--m", type=int, help="edge count (er)")
    p.add_argument("--d", type=int, default=2, help="mean degree parameter (ba)")
    p.add_argument("--reverse-prob", type=float, default=0.5, help="edge reversal probability (ba)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-updates", help="generate an update workload for a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--ratios", default="60,15,20,5", help="IE,DE,IN,DN weights")
    p.add_argument("--d", type=int, default=2, help="degree bound for inserted nodes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build", help="build the index and print a summary")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("query", help="answer one reachability query")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"), required=True)

    p = sub.add_parser("bench", help="replay a workload and report timings")
    p.add_argument("--graph", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--variant", default="dg1", help="dfs or dg<k>")
    p.add_argument("--qpu", type=int, default=0, help="random queries per update")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _parse_ratios(text: str) -> OpRatios:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"--ratios needs four comma-separated weights, got {text!r}")
    try:
        a, b, c, d = (float(x) for x in parts)
    except ValueError:
        raise InputError(f"--ratios weights must be numbers, got {text!r}") from None
    return OpRatios(a, b, c, d)


def _cmd_gen_graph(args: argparse.Namespace) -> int:
    if args.model == "er":
        if args.m is None:
            raise InputError("--m is required for the er model")
        edges = gen_er(args.n, args.m, args.seed)
    else:
        edges = gen_ba_directed(args.n, args.d, args.reverse_prob, args.seed)
    write_graph(args.out, edges, args.n)
    return 0


def _cmd_gen_updates(args: argparse.Namespace) -> int:
    edges, n = parse_graph(args.graph)
    ops = gen_updates(edges, n, args.count, _parse_ratios(args.ratios), args.seed, d=args.d)
    write_workload(args.out, ops)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    edges, n = parse_graph(args.graph)
    index = ReachabilityIndex.build(edges, n, LabelerConfig(k=args.k, seed=args.seed))
    print(json.dumps(index.census(), sort_keys=True))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    edges, n = parse_graph(args.graph)
    index = ReachabilityIndex.build(edges, n, LabelerConfig(k=args.k, seed=args.seed))
    u, v = args.pair
    print("true" if index.reachable(u, v) else "false")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    edges, n = parse_graph(args.graph)
    workload = parse_workload(args.workload)
    report = run_bench(edges, n, workload, args.variant, args.qpu, args.seed, dataset=args.graph)
    text = json.dumps(report, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "gen-updates": _cmd_gen_updates,
    "build": _cmd_build,
    "query": _cmd_query,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LogicError, InternalError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
