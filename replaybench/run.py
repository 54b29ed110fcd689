"""Replay benchmark of the dynreach index.

    python3 replaybench/run.py --workload churn --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the index is imported from ``src/``.
With ``--trace 0`` as many parts of the workload as fill ``--seconds``
at their nominal pass time are replayed, once each, and the end-to-end
metrics are printed, scaled to the reference host speed.
With ``--trace 1`` the first part only is replayed: untraced passes
alternate with passes in which every layer is wrapped in spans; the
per-layer metrics of the last traced pass are printed, with the tracing
overhead as the ratio of the traced to the untraced passes' time inside
index calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result and
the spans are also written under ``replaybench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Traced passes of a traced run, each after an untraced one.
TRACED_PASSES = 2


def _use_checkout_source() -> None:
    """Import ``dynreach`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "dynreach" / "__init__.py").is_file():
        sys.exit(f"replaybench: no dynreach package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import dynreach

    if Path(dynreach.__file__).resolve().parent != src / "dynreach":
        sys.exit(f"replaybench: imported dynreach from {dynreach.__file__}, not from {src}")


def _emit(args: argparse.Namespace, result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _use_checkout_source()
    from replay import Replay, parts_for, percentile
    from tracing import Tracer, layer_metrics
    from workloads import SPECS

    spec = SPECS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(SPECS)}")
    # Automatic collection would charge the scans of the reference's and
    # the index's long-lived objects to whichever index call set it off;
    # the replay collects between passes instead, untimed.
    gc.disable()

    if not args.trace:
        rep = Replay(spec, args.seed)
        rep.setup()
        out = rep.run(parts_for(spec, args.seconds))
        metrics = rep.end_to_end(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        # Untraced and traced passes alternate; the spans of the last
        # traced pass give the per-layer metrics.
        tracer = Tracer()
        rep = Replay(spec, args.seed, with_stats=True, tracer=tracer)
        rep.setup(builds=1)
        rep.run(1)
        with tracer.installed():
            rep.setup()
        setup = (0, tracer.mark())
        for i in range(TRACED_PASSES):
            if i:
                rep.run(1)
                rep.setup(builds=1)
            tracer.drop_since(setup[1])
            with tracer.installed():
                out = rep.run(1)
        replay = (setup[1], tracer.mark())
        metrics = layer_metrics(tracer, setup, replay, out, rep.host.scale())
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        _print_breakdown(tracer, replay)

    queries = out.positives + out.negatives
    print(
        f"{args.workload} seed {args.seed}: {out.passes} passes of {len(rep.script.steps)} steps, "
        f"host speed scale {min(out.scales):.3f}..{max(out.scales):.3f}, "
        f"{out.positives / max(1, queries):.1%} of queries reachable, "
        f"{out.failed} failed ({out.probe_failed} in the slot probe), {out.rebuilds} rebuilds, "
        f"update p50 {percentile(rep.samples(queries=False), 50):.4f} ms",
        file=sys.stderr,
    )
    for err in out.errors:
        print(f"end check failed: {err}", file=sys.stderr)
    _emit(
        args,
        {
            "correct": not out.errors,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    )
    return 1 if out.errors else 0


def _print_breakdown(tracer, replay: tuple[int, int]) -> None:
    """Self time per span name over the traced pass, largest first (stderr)."""
    rows = tracer.summary(*replay)
    total_ms = sum(row["top_ms"] for row in rows.values())
    print(f"traced pass: {total_ms:.1f} ms inside index calls", file=sys.stderr)
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(
            f"  {name:34s} {row['calls']:8d} calls {row['self_ms']:10.1f} ms self "
            f"({row['self_ms'] / total_ms:6.1%})",
            file=sys.stderr,
        )


if __name__ == "__main__":
    sys.exit(main())
