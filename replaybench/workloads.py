"""The benchmark's workloads and their seeded generators.

The graph models follow ``dynreach.workload`` (uniform random edges and
directed preferential attachment with edge reversal), but they are copied
here so that a change to the package's generators cannot change what the
benchmark measures.  Every draw comes from a ``random.Random`` seeded
with a string built from the graph model (for the initial graph) or the
workload name and part number (for the op stream) and the ``--seed``
value, so the same seed gives the same graph and the same scripts.

Ops and queries use logical node ids: the initial graph's nodes are
``0..n-1`` and every inserted node takes the next unused id.  The replay
maps them onto the ids the index is given.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import islice

from reference import RefGraph

IE, DE, IN, DN = "insert_edge", "delete_edge", "insert_node", "delete_node"
UPDATE_KINDS = (IE, DE, IN, DN)
QUERY, PROBE = "query", "probe"

D = 2  # BA attachment parameter; inserted nodes draw 0..2D edges each way
REVERSE_PROB = 0.5  # BA edge reversal probability
MAX_WALK = 6  # steps of a walk query


@dataclass(frozen=True)
class Spec:
    """One workload: initial graph model, update mix and query load.

    A part of the workload is a fixed script of ``updates`` updates from
    an initial graph, in rounds; every part of a seed draws its own
    initial graph and op stream.  A run replays as many parts
    as its length allows at ``part_s`` seconds per replay of a part (on a
    2-core KVM guest, Python 3.11), so that the heavy-tailed cost of a
    single script is averaged over several.  A round holds exactly ``mix`` updates of
    each kind, in random order, so every seed gets the same mix.  Each
    update is followed by ``qpu`` queries, of which ``walk_queries`` aim
    along a random walk; with ``slot_probe`` each round ends with the
    fixed slot-fault probe.
    """

    name: str
    model: str  # "ba" or "er"
    n: int
    mix: tuple[int, int, int, int]  # updates per round: IE, DE, IN, DN
    qpu: int
    updates: int = 1000
    m: int = 0  # ER edge count
    walk_queries: int = 0
    slot_probe: bool = False
    part_s: float = 5.0

    @property
    def round_updates(self) -> int:
        return sum(self.mix)


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("churn", "ba", 20_000, mix=(12, 3, 4, 1), qpu=2, slot_probe=True, part_s=7.0),
        Spec("read-mostly", "ba", 20_000, mix=(4, 1, 0, 0), qpu=100, walk_queries=50, part_s=12.0),
        Spec("grow", "er", 20_000, m=40_000, mix=(3, 0, 1, 0), qpu=2, part_s=3.0),
    )
}


def smoke(spec: Spec) -> Spec:
    """The same workload at a size that replays in well under a second."""
    return replace(spec, n=400, m=400 if spec.m else 0, updates=2 * spec.round_updates)


# ----------------------------------------------------------------------
# initial graphs


def initial_graph(spec: Spec, seed: int, part: int = 0) -> list[tuple[int, int]]:
    """Edge list of the initial graph of part ``part``, on nodes ``0..n-1``.

    Workloads with the same model and parameters share the graph for a
    given seed and part (``churn`` and ``read-mostly`` start from the
    same ones).
    """
    tag = f"{seed}/{part}" if part else f"{seed}"
    if spec.model == "ba":
        rng = random.Random(f"ba/{spec.n}/{D}/{REVERSE_PROB}/{tag}")
        return ba_edges(spec.n, rng)
    if spec.model == "er":
        rng = random.Random(f"er/{spec.n}/{spec.m}/{tag}")
        return [(rng.randrange(spec.n), rng.randrange(spec.n)) for _ in range(spec.m)]
    raise ValueError(f"unknown graph model {spec.model!r}")


def ba_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Directed preferential attachment: each new node draws 1..2D
    endpoints with probability proportional to total degree, and each
    edge is reversed with probability ``REVERSE_PROB``."""
    edges: list[tuple[int, int]] = []
    pool: list[int] = []
    for w in range(2 * D, n):
        picked = []
        for _ in range(rng.randint(1, 2 * D)):
            x = pool[rng.randrange(len(pool))] if pool else rng.randrange(w)
            picked.append(x)
            edges.append((x, w) if rng.random() < REVERSE_PROB else (w, x))
        pool.extend(picked)
        pool.extend([w] * len(picked))
    return edges


# ----------------------------------------------------------------------
# op stream


class OpStream:
    """Draws valid updates and queries against the evolving reference.

    Every update is applied to ``ref`` as it is drawn.  Insert-edge
    sources are uniform and targets preferential, and the drawn edge is
    new and not a self-loop; delete-edge is uniform over current edges;
    an inserted node draws 0..2D distinct preferential neighbours each
    way; delete-node is uniform.  A kind that cannot be drawn (no edge to
    delete, no new edge found) gives way to the first kind of the mix that
can be drawn.
    """

    def __init__(self, spec: Spec, seed: int, ref: RefGraph, part: int = 0) -> None:
        self.spec = spec
        self.ref = ref
        self.rng = random.Random(f"{spec.name}/{seed}/ops" + (f"/{part}" if part else ""))
        self.deck: list[str] = []  # kinds left in the current round
        # One entry per unit of degree; entries of deleted nodes are
        # skipped when drawn.
        self.pool: list[int] = [x for e in ref.edges for x in e]

    def _uniform(self) -> int:
        nodes = self.ref.nodes
        return nodes[self.rng.randrange(len(nodes))]

    def _preferential(self) -> int:
        pool, alive = self.pool, self.ref.node_pos
        for _ in range(32):
            x = pool[self.rng.randrange(len(pool))] if pool else -1
            if x in alive:
                return x
        return self._uniform()

    def _add_edge(self, u: int, v: int) -> None:
        self.ref.add_edge(u, v)
        self.pool.append(u)
        self.pool.append(v)

    def next_update(self) -> tuple:
        """The next update as ``(kind, ...)``, already applied to ``ref``."""
        if not self.deck:
            self.deck = [kind for kind, count in zip(UPDATE_KINDS, self.spec.mix) for _ in range(count)]
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        for k in [kind] + [k for k, c in zip(UPDATE_KINDS, self.spec.mix) if c and k != kind]:
            op = self._draw(k)
            if op is not None:
                return op
        raise RuntimeError("no update kind can be drawn on the current graph")

    def _draw(self, kind: str) -> tuple | None:
        rng, ref = self.rng, self.ref
        if kind == IE:
            for _ in range(16):
                u, v = self._uniform(), self._preferential()
                if u != v and not ref.has_edge(u, v):
                    self._add_edge(u, v)
                    return (IE, u, v)
            return None
        if kind == DE:
            if not ref.edges:
                return None
            u, v = ref.edges[rng.randrange(len(ref.edges))]
            ref.remove_edge(u, v)
            return (DE, u, v)
        if kind == IN:
            outs = self._distinct(rng.randint(0, 2 * D))
            ins = self._distinct(rng.randint(0, 2 * D))
            u = ref.add_node()
            for w in outs:
                self._add_edge(u, w)
            for w in ins:
                self._add_edge(w, u)
            return (IN, u, tuple(outs), tuple(ins))
        if len(ref.nodes) < 2:
            return None
        u = self._uniform()
        ref.remove_node(u)
        return (DN, u)

    def _distinct(self, count: int) -> list[int]:
        picked: dict[int, None] = {}
        for _ in range(count):
            picked[self._preferential()] = None
        return list(picked)

    def next_query(self, walk: bool) -> tuple[int, int]:
        """A uniform pair, or with ``walk`` a node and the end of a short
        random walk along out-edges from it."""
        rng = self.rng
        u = self._uniform()
        if not walk:
            return u, self._uniform()
        out = self.ref.out
        v = u
        for _ in range(rng.randint(1, MAX_WALK)):
            succ = out[v]
            if not succ:
                break
            v = next(islice(succ, rng.randrange(len(succ)), None))
        return u, v


# ----------------------------------------------------------------------
# script


@dataclass
class Script:
    """One part of a workload drawn for one seed, with the reference's
    answers.

    ``steps`` holds updates ``(kind, ...)``, queries ``(QUERY, u, v,
    expected)`` and, per round, ``(PROBE,)`` when the workload has one.
    ``final_edges`` and ``final_sccs`` are the reference's edges and SCC
    partition after the last step (kept instead of the whole reference
    graph, which is several times their size).
    """

    spec: Spec
    edges: list[tuple[int, int]]
    steps: list[tuple]
    final_edges: list[tuple[int, int]]
    final_sccs: list[list[int]]

    def reference_at(self, last: int) -> RefGraph:
        """The reference graph just after step ``last``."""
        ref = RefGraph(self.spec.n, self.edges)
        for step in self.steps[: last + 1]:
            kind = step[0]
            if kind == IE:
                ref.add_edge(step[1], step[2])
            elif kind == DE:
                ref.remove_edge(step[1], step[2])
            elif kind == IN:
                u = ref.add_node()
                for w in step[2]:
                    ref.add_edge(u, w)
                for w in step[3]:
                    ref.add_edge(w, u)
            elif kind == DN:
                ref.remove_node(step[1])
        return ref


def generate(spec: Spec, seed: int, part: int = 0) -> Script:
    """Draw part ``part`` of the workload's script for ``seed``, with
    every query's answer from the reference."""
    edges = initial_graph(spec, seed, part)
    ref = RefGraph(spec.n, edges)
    stream = OpStream(spec, seed, ref, part)
    steps: list[tuple] = []
    for _ in range(spec.updates // spec.round_updates):
        for _ in range(spec.round_updates):
            steps.append(stream.next_update())
            for i in range(spec.qpu):
                u, v = stream.next_query(walk=i < spec.walk_queries)
                steps.append((QUERY, u, v, ref.reaches(u, v)))
        if spec.slot_probe:
            steps.append((PROBE,))
    return Script(spec, edges, steps, list(ref.edges), ref.scc_partition())
