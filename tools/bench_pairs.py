"""Run replay-benchmark pairs of two checkouts, alternating which goes first.

    python3 tools/bench_pairs.py PARENT CHANGE RUNS_DIR WORKLOAD SEED...

For each seed in turn it runs the command of ``BENCHMARK.json``,
``python3 replaybench/run.py --workload WORKLOAD --seed SEED --seconds 50
--trace 0`` (the seconds are the file's ``run_seconds``), once in the
checkout ``PARENT`` and once in ``CHANGE``, one process at a time.  The
parent goes first for the first seed, the change for the second, and so
on, so that neither side always runs second on a host that warms up or
slows down.  A run's standard output and standard error go to
``<side>_<workload>_s<seed>.out`` and ``.err`` in ``RUNS_DIR``, ``<side>``
being ``parent`` or ``change``: the names ``tools/bench_ledger.py`` reads.

Before any run it refuses a checkout without ``replaybench/run.py`` and
an output file that exists already; it stops at the first run that exits
with an error, naming its files.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pairs(parent: Path, change: Path, runs: Path, workload: str, seeds: list[int]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = spec["command"][-1]
    checkouts = {"parent": parent, "change": change}
    for side, checkout in checkouts.items():
        if not (checkout / script).is_file():
            sys.exit(f"{side} checkout {checkout} has no {script}")
    plan = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        plan += [(side, seed, runs / f"{side}_{workload}_s{seed}") for side in order]
    for _, _, stem in plan:
        for suffix in (".out", ".err"):
            if stem.with_suffix(suffix).exists():
                sys.exit(f"{stem.with_suffix(suffix)} exists already")
    runs.mkdir(parents=True, exist_ok=True)
    for side, seed, stem in plan:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        print(f"{side} {workload} seed {seed}", flush=True)
        with open(stem.with_suffix(".out"), "x") as out, open(stem.with_suffix(".err"), "x") as err:
            code = subprocess.run(cmd, cwd=checkouts[side], stdout=out, stderr=err).returncode
        if code:
            sys.exit(f"{side} run of {workload} seed {seed} exited with {code}: see {stem}.out and .err")


def main(argv: list[str]) -> int:
    if len(argv) < 5:
        sys.exit(__doc__)
    parent, change, runs, workload, *seeds = argv
    run_pairs(Path(parent), Path(change), Path(runs), workload, [int(s) for s in seeds])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
