"""Shared test inputs: the hand-checked 19-node sample graph and small
random-graph builders."""
from __future__ import annotations

import random

from dynreach import IntervalLabeler, Label, LabelerConfig, ReachabilityIndex, SccGraph

# Hand-worked sample: three multi-node components {A,B,C}, {D,E,F,G},
# {N,O,P,S,T} plus seven singletons; its condensation has 10 nodes.
LETTERS = "ABCDEFGHIJKLMNOPRST"
NODE = {c: i for i, c in enumerate(LETTERS)}
NAME = {i: c for c, i in NODE.items()}

SAMPLE_EDGES_LETTERS = [
    ("R", "A"), ("R", "D"), ("R", "E"),
    ("A", "B"), ("B", "C"), ("C", "A"),
    ("D", "E"), ("F", "D"), ("D", "G"), ("E", "F"), ("G", "F"),
    ("B", "H"), ("C", "I"), ("G", "J"), ("D", "H"),
    ("H", "L"), ("J", "K"), ("L", "M"),
    ("K", "N"), ("I", "O"), ("L", "P"),
    ("N", "T"), ("O", "T"), ("P", "T"),
    ("T", "S"), ("S", "N"), ("S", "O"), ("S", "P"),
]
SAMPLE_EDGES = [(NODE[a], NODE[b]) for a, b in SAMPLE_EDGES_LETTERS]


def sample_graph() -> SccGraph:
    return SccGraph.build(SAMPLE_EDGES)


def sample_comps(g: SccGraph) -> dict[str, int]:
    """Ids of the three multi-node components, keyed '1', '2', '3'."""
    return {
        "1": g.find_scc(NODE["A"]),
        "2": g.find_scc(NODE["D"]),
        "3": g.find_scc(NODE["N"]),
    }


def visual_ranks(comps: dict[str, int]) -> dict[int, int]:
    """Left-to-right x-positions of the condensation drawing; sorting
    children by these ranks reproduces the frozen label fixtures."""
    return {
        comps["1"]: 0, comps["2"]: 2, comps["3"]: 1,
        NODE["H"]: 0, NODE["I"]: 1, NODE["J"]: 2,
        NODE["K"]: 0, NODE["L"]: 2, NODE["M"]: 2, NODE["R"]: 1,
    }


class PinnedLabeler(IntervalLabeler):
    """A labeler whose traversal order is pinned per dimension: children
    are sorted by the mapped weight (0 when unmapped), then by id,
    instead of shuffled."""

    def __init__(self, cfg: LabelerConfig, orders: list[dict[int, int]]) -> None:
        super().__init__(cfg)
        self.orders = orders

    def _ordered(self, d: int, nodes: list[int]) -> list[int]:
        key = self.orders[d]
        nodes.sort(key=lambda x: (key.get(x, 0), x))
        return nodes


def set_labels(lab: IntervalLabeler, labels: dict[int, Label]) -> None:
    """Write these labels into ``lab``'s columns, raising each
    dimension's largest end as the labeler does."""
    for x, label in labels.items():
        for d, (b, e) in enumerate(label):
            lab._b[d][x] = b
            lab._e[d][x] = e
            lab._max_end[d] = max(lab._max_end[d], e)


def sample_index(k: int = 1, seed: int = 0, order: str | None = "reversed") -> ReachabilityIndex:
    """Sample graph with pinned traversal order.

    ``order``: 'ltr' sorts children left to right, 'reversed' right to
    left (the order behind the frozen merge/split label values), 'both'
    gives k=2 with one dimension each, None shuffles normally.
    """
    g = sample_graph()
    comps = sample_comps(g)
    lr = visual_ranks(comps)
    rl = {x: -r for x, r in lr.items()}
    if order == "ltr":
        orders = [lr] * max(k, 1)
    elif order == "reversed":
        orders = [rl] * max(k, 1)
    elif order == "both":
        k = 2
        orders = [lr, rl]
    elif order is None:
        orders = None
    else:
        raise ValueError(order)
    cfg = LabelerConfig(k=k, seed=seed)
    lab = IntervalLabeler(cfg) if orders is None else PinnedLabeler(cfg, orders)
    lab.initial_labels(g)
    return ReachabilityIndex(g, lab)


def containment_depth(g: SccGraph, x: int) -> int:
    """Links from slot ``x`` up to its component, read without the path
    compression a lookup does."""
    depth = 0
    while g._parent[x] != -1:
        x = g._parent[x]
        depth += 1
    return depth


def random_digraph(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]


def random_dag(n: int, m: int, seed: int, hubs: int = 0) -> list[tuple[int, int]]:
    """Random acyclic digraph: edges respect a hidden permutation order.
    Then ``hubs`` random nodes each gain, with probability one half, an
    edge to or from every other node, in the same order."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    while len(edges) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if perm[i] > perm[j]:
            i, j = j, i
        edges.add((i, j))
    for h in rng.sample(range(n), hubs):
        for x in range(n):
            if x != h and rng.random() < 0.5:
                edges.add((x, h) if perm[x] < perm[h] else (h, x))
    return sorted(edges)


def random_strongly_connected(n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    """A directed cycle over all nodes plus ``extra`` random chords."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    have = set(edges)
    while extra > 0:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in have:
            have.add((u, v))
            edges.append((u, v))
            extra -= 1
    return edges
