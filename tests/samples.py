"""Shared test inputs: the hand-checked 19-node sample graph and small
random-graph builders."""
from __future__ import annotations

import random

from dynreach import IntervalLabeler, LabelerConfig, ReachabilityIndex, SccGraph

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
        dim_orders = [lr] * max(k, 1)
    elif order == "reversed":
        dim_orders = [rl] * max(k, 1)
    elif order == "both":
        k = 2
        dim_orders = [lr, rl]
    elif order is None:
        dim_orders = None
    else:
        raise ValueError(order)
    lab = IntervalLabeler(LabelerConfig(k=k, seed=seed, dim_orders=dim_orders))
    lab.initial_labels(g)
    return ReachabilityIndex(g, lab)


def random_digraph(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]


def random_dag(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Random acyclic digraph: edges respect a hidden permutation order."""
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
