"""Synthetic graphs and update sequences for benchmark replay.

Two graph models (uniform random edges and directed preferential
attachment with probabilistic edge reversal) plus an update-sequence
generator that draws operation types by weight and keeps a shadow copy of
the evolving graph so every emitted operation is valid when replayed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InputError
from .ops import DeleteEdge, DeleteNode, InsertEdge, InsertNode, UpdateOp


@dataclass(frozen=True)
class OpRatios:
    """Relative weights of the four update kinds (normalized internally)."""

    insert_edge: float = 60.0
    delete_edge: float = 15.0
    insert_node: float = 20.0
    delete_node: float = 5.0

    def weights(self) -> tuple[float, float, float, float]:
        w = (self.insert_edge, self.delete_edge, self.insert_node, self.delete_node)
        if not all(math.isfinite(x) and x >= 0 for x in w) or sum(w) <= 0:
            raise InputError(f"op ratios must be finite and non-negative with positive sum, got {w}")
        return w


def gen_er(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Uniform random digraph: m edges with both endpoints drawn uniformly.

    Self-loops and duplicates are allowed at generation time; the index
    collapses duplicates on build.
    """
    if n < 1 or m < 0:
        raise InputError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    rng = random.Random(seed)
    rand = rng.randrange
    return [(rand(n), rand(n)) for _ in range(m)]


def gen_ba_directed(n: int, d: int, reverse_prob: float, seed: int) -> list[tuple[int, int]]:
    """Directed preferential-attachment graph.

    Growth starts from 2d seed nodes; every new node draws an out-degree
    uniform in [1, 2d] and attaches to endpoints with probability
    proportional to total degree, then each edge is independently
    reversed with ``reverse_prob``.  With reverse_prob = 0 the output is
    acyclic (every edge points from newer to older).
    """
    if d < 1 or n <= 2 * d:
        raise InputError(f"need n > 2d >= 2, got n={n}, d={d}")
    if not 0.0 <= reverse_prob <= 1.0:
        raise InputError(f"reverse_prob must be in [0, 1], got {reverse_prob}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    # Endpoint pool: one entry per unit of total degree.
    pool: list[int] = []
    for w in range(2 * d, n):
        k_out = rng.randint(1, 2 * d)
        picked: list[int] = []
        for _ in range(k_out):
            x = pool[rng.randrange(len(pool))] if pool else rng.randrange(w)
            picked.append(x)
            if rng.random() < reverse_prob:
                edges.append((x, w))
            else:
                edges.append((w, x))
        pool.extend(picked)
        pool.extend([w] * k_out)
    return edges


class _IndexedSet:
    """Distinct items in a list, with each item's position in ``pos``: a
    removal moves the last item into the gap, and a uniform draw is one
    ``randrange``."""

    def __init__(self, items=()) -> None:
        self.items = list(items)
        self.pos = {x: i for i, x in enumerate(self.items)}

    def add(self, x) -> None:
        self.pos[x] = len(self.items)
        self.items.append(x)

    def remove(self, x) -> None:
        pos = self.pos.pop(x)
        last = self.items.pop()
        if last != x:
            self.items[pos] = last
            self.pos[last] = pos

    def draw(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


class _Shadow:
    """Minimal evolving-graph mirror used while generating update ops."""

    def __init__(self, edges: list[tuple[int, int]], num_nodes: int, rng: random.Random):
        self.rng = rng
        self.nodes = _IndexedSet(range(num_nodes))
        self.out: dict[int, set[int]] = {u: set() for u in range(num_nodes)}
        self.inc: dict[int, set[int]] = {u: set() for u in range(num_nodes)}
        self.edges = _IndexedSet()
        self.pool: list[int] = []  # degree-proportional endpoint pool
        self.next_id = num_nodes
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> bool:
        if v in self.out[u]:
            return False
        self.out[u].add(v)
        self.inc[v].add(u)
        self.edges.add((u, v))
        self.pool.append(u)
        self.pool.append(v)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        self.out[u].discard(v)
        self.inc[v].discard(u)
        self.edges.remove((u, v))

    def add_node(self, u: int) -> None:
        self.nodes.add(u)
        self.out[u] = set()
        self.inc[u] = set()

    def remove_node(self, u: int) -> None:
        for v in list(self.out[u]):
            self.remove_edge(u, v)
        for w in list(self.inc[u]):
            self.remove_edge(w, u)
        self.nodes.remove(u)
        del self.out[u]
        del self.inc[u]

    def preferential_node(self) -> int:
        # Stale pool entries (from deletions) are skipped lazily.
        pool = self.pool
        alive = self.nodes.pos
        for _ in range(32):
            if not pool:
                break
            x = pool[self.rng.randrange(len(pool))]
            if x in alive:
                return x
        return self.nodes.draw(self.rng)


def gen_updates(
    edges: list[tuple[int, int]],
    num_nodes: int,
    count: int,
    ratios: OpRatios,
    seed: int,
    d: int = 2,
) -> list[UpdateOp]:
    """Draw ``count`` valid update operations against an evolving shadow
    of the given graph.

    Insert-edge sources are uniform, targets preferential; delete-edge is
    uniform over current edges; inserted nodes draw in/out degrees
    uniform in [0, 2d] with preferential endpoints (none while the
    shadow holds no node); delete-node is uniform.  A node insert is
    always applicable; the other kinds need an edge (delete-edge) or a
    node (insert-edge, delete-node), and an inapplicable draw falls back
    to a different op kind.  So the generation fails only when the node
    insert weighs 0 and no other kind applies.  A negative ``count`` or
    ``d`` fails before any draw.
    """
    if num_nodes < 1:
        raise InputError("update generation needs a nonempty graph")
    if count < 0 or d < 0:
        raise InputError(f"need count >= 0 and d >= 0, got count={count}, d={d}")
    rng = random.Random(seed)
    shadow = _Shadow(edges, num_nodes, rng)
    weights = ratios.weights()
    kinds = ("IE", "DE", "IN", "DN")
    ops: list[UpdateOp] = []
    for _ in range(count):
        tried: set[str] = set()
        while True:
            remaining = [(k, w) for k, w in zip(kinds, weights) if k not in tried and w > 0]
            if not remaining:
                raise InputError("no update kind is applicable to the current graph")
            names = [k for k, _ in remaining]
            kind = rng.choices(names, weights=[w for _, w in remaining])[0]
            if kind == "IN" or (shadow.edges if kind == "DE" else shadow.nodes).items:
                break
            tried.add(kind)
        if kind == "IE":
            u = shadow.nodes.draw(rng)
            v = shadow.preferential_node()
            shadow.add_edge(u, v)
            op = InsertEdge(u, v)
        elif kind == "DE":
            u, v = shadow.edges.draw(rng)
            shadow.remove_edge(u, v)
            op = DeleteEdge(u, v)
        elif kind == "IN":
            u = shadow.next_id
            shadow.next_id += 1
            outs = _distinct(shadow, rng.randint(0, 2 * d))
            ins = _distinct(shadow, rng.randint(0, 2 * d))
            shadow.add_node(u)
            for w in outs:
                shadow.add_edge(u, w)
            for w in ins:
                shadow.add_edge(w, u)
            op = InsertNode(u, tuple(outs), tuple(ins))
        else:
            u = shadow.nodes.draw(rng)
            shadow.remove_node(u)
            op = DeleteNode(u)
        ops.append(op)
    return ops


def _distinct(shadow: _Shadow, count: int) -> list[int]:
    """Up to ``count`` distinct preferential endpoints; none, and no draw,
    while the shadow holds no node."""
    picked: list[int] = []
    seen: set[int] = set()
    for _ in range(count if shadow.nodes.items else 0):
        x = shadow.preferential_node()
        if x not in seen:
            seen.add(x)
            picked.append(x)
    return picked
