"""The benchmark's own checks: generators, reference, replay and tracing.

Run with ``python -m pytest replaybench/tests`` from the repository root.
"""
from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dynreach import ReachabilityIndex

from reference import RefGraph
from replay import Replay, parts_for
from tracing import Tracer, traced_functions
from workloads import PROBE, QUERY, SPECS, generate, smoke

SMOKE = [smoke(spec) for spec in SPECS.values()]
IDS = list(SPECS)


@pytest.mark.parametrize("spec", SPECS.values(), ids=IDS)
def test_every_workload_times_enough_calls_for_a_p99(spec):
    assert spec.updates >= 1000
    assert spec.updates * spec.qpu >= 1000


@pytest.mark.parametrize("spec", SMOKE, ids=IDS)
def test_generators_are_deterministic_per_seed(spec):
    a, b, c = generate(spec, 3), generate(spec, 3), generate(spec, 4)
    assert a.edges == b.edges and a.steps == b.steps
    assert (a.edges, a.steps) != (c.edges, c.steps)


def _bfs(ref: RefGraph, u: int, v: int) -> bool:
    seen, stack = {u}, [u]
    while stack:
        w = stack.pop()
        if w == v:
            return True
        for c in ref.out[w]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def test_reference_matches_plain_search():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 25)
        ref = RefGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))])
        for _ in range(5):
            if ref.edges and rng.random() < 0.5:
                ref.remove_edge(*ref.edges[rng.randrange(len(ref.edges))])
            else:
                u = ref.add_node()
                ref.add_edge(u, ref.nodes[rng.randrange(len(ref.nodes))])
        reach = {(u, v): _bfs(ref, u, v) for u in ref.nodes for v in ref.nodes}
        assert all(ref.reaches(u, v) == want for (u, v), want in reach.items())
        comp_of = {x: i for i, comp in enumerate(ref.scc_partition()) for x in comp}
        assert all(
            (comp_of[u] == comp_of[v]) == (reach[u, v] and reach[v, u]) for u in ref.nodes for v in ref.nodes
        )


@pytest.mark.parametrize("spec", SMOKE, ids=IDS)
def test_smoke_run_completes_and_checks_out(spec):
    rep = Replay(spec, 1)
    rep.setup(builds=2)
    out = rep.run(2)
    steps = rep.script.steps
    probes = sum(step[0] == PROBE for step in steps)
    assert out.errors == []
    assert out.passes == 2 and len(out.build_ns) == 2
    assert out.attempted == 2 * (len(steps) + 2 * probes)
    # The slot probe fails in every round or in none; nothing else fails.
    assert out.failed == out.probe_failed in (0, 2 * probes)
    assert out.rebuilds == 0
    assert len(rep.samples(queries=False)) == 2 * spec.updates
    assert len(rep.samples(queries=True)) == 2 * spec.updates * spec.qpu


def test_parts_draw_their_own_graph_and_ops():
    spec = SMOKE[IDS.index("churn")]
    first, second = generate(spec, 1, 0), generate(spec, 1, 1)
    assert first.edges != second.edges
    assert first.steps != second.steps
    rep = Replay(spec, 1)
    assert rep.script.steps == first.steps
    rep.setup(builds=1)
    out = rep.run(2)
    assert rep.script.steps == second.steps
    assert out.errors == [] and out.replays == {0: 1, 1: 1} and len(out.scales) == 2
    assert len(rep.samples(queries=False)) == 2 * spec.updates
    assert len(rep.samples(queries=True)) == 2 * spec.updates * spec.qpu


@pytest.mark.parametrize("spec", SPECS.values(), ids=IDS)
def test_a_run_of_the_benchmark_length_replays_several_parts(spec):
    assert parts_for(spec, 1) == 1
    assert parts_for(spec, 50) * spec.part_s <= 50
    assert parts_for(spec, 50) >= 3


class _OneWrongAnswer(ReachabilityIndex):
    flipped = False

    def reachable(self, u, v):
        found = super().reachable(u, v)
        if not _OneWrongAnswer.flipped:
            _OneWrongAnswer.flipped = True
            return not found
        return found


def test_a_wrong_answer_is_counted_and_recovered_from():
    spec = smoke(SPECS["grow"])
    rep = Replay(spec, 1, build=lambda edges, n, cfg: _OneWrongAnswer.build(edges, n, cfg))
    rep.setup(builds=1)
    out = rep.run(1)
    assert _OneWrongAnswer.flipped
    assert out.failed == 1 and out.rebuilds == 1
    assert out.errors == []
    assert len(rep.samples(queries=True)) == spec.updates * spec.qpu - 1


def test_traced_run_restores_every_wrapped_function():
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _ in traced_functions()}
    assert ("insert_edge" in {attr for _, attr in before}) and len(before) > 20
    tracer = Tracer()
    rep = Replay(smoke(SPECS["churn"]), 1, with_stats=True, tracer=tracer)
    with tracer.installed():
        rep.setup(builds=1)
        rep.run(1)
    spans = tracer.mark()
    names = {tracer.names[i] for i in tracer.name_of}
    assert {"index.build", "graph.build", "index.insert_edge", "index.reachable_with_stats"} <= names
    assert "index.scc_partition" not in names  # end checks are not part of the replay
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())
    rep.run(1)
    assert tracer.mark() == spans


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "grow", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
