"""Timed, reference-checked replay of one workload against the index.

A run replays a few fixed scripts of the workload, its parts (see
``workloads.generate``), one pass each on a freshly built index; a part
is drawn, untimed, just before its pass.  The cost of one script is
heavy-tailed (a few deletions split the giant SCC), so a run averages
several.  Within a pass there is one closed-loop caller in one
thread: each update or query is issued only after the previous call
returned, and only the call into the index is timed.  Mapping node ids,
checking answers and recovering from failures happen between timed
calls.

The speed of a shared host drifts by up to 2x over seconds to minutes.
``HostSpeed`` samples it between calls with a fixed kernel that shares
no code with the index and no input with the workload, and every time
of a pass is scaled by the factor that brings the pass's median sample
to the kernel's reference time: times are reported at the reference
host speed.  The program is deterministic, so a part replayed again
does the same work; where a part is replayed more than once (the traced
run), each call's time is its best over the replays.

An update that raises ``DynReachError`` and a query whose answer differs
from the reference both count as failed; the index is then rebuilt from
the reference graph as it stands after that step, untimed, and the pass
goes on.
"""
from __future__ import annotations

import gc
import math
import random
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

from dynreach import LabelerConfig, ReachabilityIndex
from dynreach.errors import DynReachError

from reference import RefGraph
from workloads import DE, IE, IN, PROBE, QUERY, Spec, ba_edges, generate

#: Builds timed for ``setup_s``, all before the first pass; the median is
#: reported.  The builds a later pass starts from are not timed: they run
#: on the heap a pass left behind and took 25-45 % longer.
SETUP_BUILDS = 9
#: Host-speed kernel: reachability queries on a fixed BA graph, sampled
#: at the start of every pass and then once the last sample is this old.
KERNEL_N = 20_000
KERNEL_PAIRS = 24
SAMPLE_EVERY_NS = 50_000_000
#: The kernel's time at the reference speed, about its median during a
#: replay on a 2-core KVM guest (Xeon, Python 3.11) in its faster spells.
NOMINAL_NS = 1_000_000

clock = time.perf_counter_ns


def parts_for(spec: Spec, seconds: float) -> int:
    """Parts a timed run of ``seconds`` replays: as many as fit at the
    spec's nominal ``part_s`` per pass, at least one.  The count depends
    on nothing measured, so the inputs of a run are fixed by the seed and
    the run length alone."""
    return max(1, int(seconds / spec.part_s))


def default_build(edges: list[tuple[int, int]], num_nodes: int, cfg: LabelerConfig) -> ReachabilityIndex:
    # Looked up at call time, so the traced run's wrapper is the one called.
    return ReachabilityIndex.build(edges, num_nodes, cfg)


class HostSpeed:
    """Samples the host's current speed with a fixed kernel.

    The kernel answers ``KERNEL_PAIRS`` fixed reachability queries on a
    fixed BA graph with the reference's bidirectional search: the same
    kind of interpreted dict-and-set work the index does, none of it the
    index's code, and none of it depending on the seed, so a change to
    the program cannot change the kernel's time.  Samples are at least
    ``SAMPLE_EVERY_NS`` apart, and by then the caches of the shared host
    no longer hold the kernel's graph whatever ran in between: after a
    50-ms busy loop that touched no memory the kernel took within 10 % of
    its time after copying 64 MB, and about 1.8 times as long as when run
    back to back.  So every sample is a cold-cache one, and the index's
    own memory traffic does not change it.
    """

    def __init__(self) -> None:
        rng = random.Random(f"host-speed/{KERNEL_N}")
        self.ref = RefGraph(KERNEL_N, ba_edges(KERNEL_N, rng))
        self.pairs = [(rng.randrange(KERNEL_N), rng.randrange(KERNEL_N)) for _ in range(KERNEL_PAIRS)]
        self.samples: list[int] = []
        self.last = 0  # clock at the end of the last sample

    def sample(self) -> None:
        reaches = self.ref.reaches
        t0 = clock()
        for u, v in self.pairs:
            reaches(u, v)
        self.last = clock()
        self.samples.append(self.last - t0)

    def scale(self, since: int = 0) -> float:
        """Factor from the host speed of the samples taken after the
        first ``since`` to the reference speed."""
        return NOMINAL_NS / median(self.samples[since:])


@dataclass
class Outcome:
    """Counts and samples of one run, over all its passes."""

    attempted: int = 0
    failed: int = 0
    probe_failed: int = 0
    rebuilds: int = 0
    passes: int = 0
    build_ns: list[int] = field(default_factory=list)  # set-up builds, as measured
    build_scale: float = 1.0  # factor to the reference speed over the set-up
    scales: list[float] = field(default_factory=list)  # per pass
    # Per part, and per timed step of it, its best scaled time in ns over
    # the part's even- and over its odd-numbered replays (-1 where it
    # failed in all of them), and the steps' kinds.  Only the best is
    # kept, so memory does not grow with the number of passes.
    best: dict[int, tuple[list[float], list[float]]] = field(default_factory=dict)
    kinds: dict[int, list[str]] = field(default_factory=dict)
    replays: dict[int, int] = field(default_factory=dict)
    positives: int = 0  # reachable answers among the queries
    negatives: int = 0
    visited: int = 0  # with stats: nodes entered, summed over queries
    pruned: int = 0
    false_positives: int = 0  # negative answers whose search went past the source
    drift: list[float] = field(default_factory=list)  # label drift at the end of each pass
    errors: list[str] = field(default_factory=list)  # failed end checks

    def best_ns(self, part: int) -> list[float]:
        """Per timed step of ``part``, its best time over all replays."""
        even, odd = self.best[part]
        return _better(even, odd) if odd else even


def _better(best: list[float], times: list[float]) -> list[float]:
    """Stepwise the better of two time lists, where -1 marks a failure."""
    if not best:
        return list(times)
    return [t if b < 0 or 0 <= t < b else b for b, t in zip(best, times)]


class Replay:
    """Replays the parts of ``spec`` and ``seed`` against indexes made by
    ``build``.

    ``with_stats`` issues ``reachable_with_stats`` in place of
    ``reachable`` so that query visits and prunes can be counted.
    ``tracer``, when given, forgets the spans of the slot probe and of the
    end checks, so that only the script's own calls count toward a layer.
    """

    def __init__(
        self,
        spec: Spec,
        seed: int,
        build: Callable[..., ReachabilityIndex] = default_build,
        with_stats: bool = False,
        tracer=None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.build = build
        self.with_stats = with_stats
        self.tracer = tracer
        self.cfg = LabelerConfig(seed=seed)
        self.part = 0
        self.script = generate(spec, seed)  # of part ``self.part``
        self.host = HostSpeed()
        self.engine: ReachabilityIndex | None = None
        self.out = Outcome()

    # ------------------------------------------------------------------
    # set-up

    def setup(self, builds: int = SETUP_BUILDS) -> None:
        """Build the index ``builds`` times, timing each and sampling the
        host speed before each; keep the last."""
        since = len(self.host.samples)
        for _ in range(builds):
            self.host.sample()
            self.out.build_ns.append(self._build())
        self.out.build_scale = self.host.scale(since)

    def _build(self) -> int:
        """Build from the initial graph of the part at hand; returns the
        build's time in ns."""
        self.engine = None
        gc.collect()
        t0 = clock()
        engine = self.build(self.script.edges, self.spec.n, self.cfg)
        elapsed = clock() - t0
        self.engine = engine
        return elapsed

    # ------------------------------------------------------------------
    # replay

    def run(self, parts: int = 1) -> Outcome:
        """Replay parts ``0..parts-1`` once each, in turn, drawing each
        part (untimed) unless it is the one at hand.  A pass starts from
        the last set-up build or a fresh one."""
        for part in range(parts):
            if part != self.part:
                self.engine = self.script = None  # let the last part go first
                self.script = generate(self.spec, self.seed, part)
                self.part = part
            if self.engine is None:
                self._build()
            self._pass()
            self.engine = None
        return self.out

    def _pass(self) -> None:
        out, host, part = self.out, self.host, self.part
        # Logical node id -> the id the index knows it by (-1 once gone).
        self.to_engine = list(range(self.spec.n))
        since = len(host.samples)
        host.sample()
        times: list[float] = []
        for j, step in enumerate(self.script.steps):
            kind = step[0]
            if kind == QUERY:
                times.append(self._query(j, step))
            elif kind == PROBE:
                with self._untraced():
                    self._slot_probe()
            else:
                times.append(self._update(j, step))
            if clock() - host.last >= SAMPLE_EVERY_NS:
                host.sample()
        scale = host.scale(since)
        out.scales.append(scale)
        times = [t * scale if t >= 0 else t for t in times]
        if part not in out.best:
            out.best[part] = ([], [])
            out.kinds[part] = [step[0] for step in self.script.steps if step[0] != PROBE]
            out.replays[part] = 0
        side = out.replays[part] % 2
        out.best[part][side][:] = _better(out.best[part][side], times)
        out.replays[part] += 1
        out.passes += 1
        with self._untraced():
            out.errors += self.end_checks()
            out.drift.append(self.end_drift())
        gc.collect()

    @contextmanager
    def _untraced(self) -> Iterator[None]:
        mark = self.tracer.mark() if self.tracer else None
        try:
            yield
        finally:
            if mark is not None:
                self.tracer.drop_since(mark)

    def _update(self, j: int, step: tuple) -> int:
        """Issue one update; returns its time in ns, or -1 if it failed."""
        out, eng, m = self.out, self.engine, self.to_engine
        kind = step[0]
        if kind == IE:
            call, args = eng.insert_edge, (m[step[1]], m[step[2]])
        elif kind == DE:
            call, args = eng.delete_edge, (m[step[1]], m[step[2]])
        elif kind == IN:
            # The index's capacity is an id no slot uses, so new nodes
            # never collide with an SCC slot (the slot probe covers that).
            m.append(eng.graph.capacity)
            args = (m[step[1]], tuple(m[w] for w in step[2]), tuple(m[w] for w in step[3]))
            call = eng.insert_node
        else:
            call, args = eng.delete_node, (m[step[1]],)
        out.attempted += 1
        t0 = clock()
        try:
            call(*args)
        except DynReachError:
            self._fail(j)
            return -1
        return clock() - t0

    def _query(self, j: int, step: tuple) -> int:
        """Issue one query; returns its time in ns, or -1 if it failed."""
        out, eng, m = self.out, self.engine, self.to_engine
        _, u, v, expected = step
        eu, ev = m[u], m[v]
        out.attempted += 1
        t0 = clock()
        try:
            if self.with_stats:
                found, stats = eng.reachable_with_stats(eu, ev)
            else:
                found = eng.reachable(eu, ev)
        except DynReachError:
            self._fail(j)
            return -1
        elapsed = clock() - t0
        if found != expected:
            self._fail(j)
            return -1
        if found:
            out.positives += 1
        else:
            out.negatives += 1
        if self.with_stats:
            out.visited += stats.visited
            out.pruned += stats.pruned
            if not found and stats.visited > 1:
                out.false_positives += 1
        return elapsed

    def _fail(self, j: int) -> None:
        """Count a failure at step ``j`` and rebuild the index from the
        reference as it stands after that step."""
        self.out.failed += 1
        self.out.rebuilds += 1
        ref, m = self.script.reference_at(j), self.to_engine
        for x in range(len(m)):
            m[x] = -1
        for i, x in enumerate(ref.nodes):
            m[x] = i
        edges = [(m[u], m[v]) for u, v in ref.edges]
        self.engine = None
        gc.collect()
        self.engine = self.build(edges, len(ref.nodes), self.cfg)

    def _slot_probe(self) -> None:
        """A fixed script that inserts nodes whose ids collide with SCC
        slots and then splits their component (the slot fault named in
        CHANGES.md).  Its inputs do not depend on the seed, so it fails or
        passes alike in every round; its calls are not timed."""
        out = self.out
        eng = self.build([(0, 1), (1, 0)], 2, self.cfg)  # {0, 1} takes slot 2
        eng.insert_node(2)  # collides with slot 2
        eng.insert_node(3, (2,), (2,))  # collides with the slot node 2 took
        out.attempted += 3
        try:
            eng.delete_edge(2, 3)
            ok = eng.scc_partition() == {frozenset({0, 1}), frozenset({2}), frozenset({3})}
            ok = ok and eng.reachable(3, 2) and not eng.reachable(2, 3)
        except DynReachError:
            ok = False
        if not ok:
            out.failed += 1
            out.probe_failed += 1

    # ------------------------------------------------------------------
    # end checks

    def end_checks(self) -> list[str]:
        """Compare the index with the reference after the last step;
        returns the checks that failed."""
        eng, script, m = self.engine, self.script, self.to_engine
        errors = []
        want = {frozenset(m[x] for x in comp) for comp in script.final_sccs}
        if eng.scc_partition() != want:
            errors.append("scc_partition() differs from the reference partition")
        want_edges = {(m[u], m[v]) for u, v in script.final_edges}
        if set(eng.graph.input_edges()) != want_edges:
            errors.append("graph.input_edges() differs from the reference edge set")
        g = eng.graph
        labels = {s: eng.label_of(s) for s in g.current_dag_nodes()}
        for s, ls in labels.items():
            for t in g.dag_children(s):
                lt = labels[t]
                if any(bs > bt or es < et + 1 for (bs, es), (bt, et) in zip(ls, lt)):
                    errors.append(f"label of DAG node {s} does not contain child {t}'s")
                    break
        return errors

    def end_drift(self) -> float:
        """Largest label end over current components, per live input node
        (1.0 right after a build)."""
        eng = self.engine
        ends = [e for s in eng.graph.current_dag_nodes() for _, e in eng.label_of(s)]
        return max(ends, default=0) / max(1, eng.graph.num_input_nodes)

    # ------------------------------------------------------------------
    # end-to-end metrics

    def samples(self, queries: bool) -> list[float]:
        """Best scaled times in ns of the queries, or of the updates, of
        every part, leaving out those that failed in every replay."""
        return [
            t
            for part, kinds in self.out.kinds.items()
            for kind, t in zip(kinds, self.out.best_ns(part))
            if t >= 0 and (kind == QUERY) == queries
        ]

    def end_to_end(self, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        updates, queries = self.samples(queries=False), self.samples(queries=True)
        return {
            "setup_s": (median(self.out.build_ns) * self.out.build_scale / 1e9, "s"),
            "ops_per_s": ((len(updates) + len(queries)) / ((sum(updates) + sum(queries)) / 1e9), "1/s"),
            "update_p99_ms": (percentile(updates, 99), "ms"),
            "query_p50_ms": (percentile(queries, 50), "ms"),
            "query_p99_ms": (percentile(queries, 99), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in ms."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1] / 1e6
