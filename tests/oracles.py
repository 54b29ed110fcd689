"""Independent reference implementations used to cross-check the index.

Deliberately different machinery from the package: components come from
Kosaraju's two-pass sweep, reachability from a fresh DFS over a plain
adjacency dict or over the condensation's public child lists (never the
index's search or labels), and label checks from dense numpy comparisons.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

import numpy as np


def kosaraju_partition(
    nodes: Iterable[int], edges: Iterable[tuple[int, int]]
) -> set[frozenset[int]]:
    """SCC partition via two DFS passes (finish order, then transpose sweep)."""
    nodes = list(nodes)
    member = set(nodes)
    out: dict[int, list[int]] = {u: [] for u in nodes}
    inc: dict[int, list[int]] = {u: [] for u in nodes}
    for u, v in edges:
        if u != v and u in member and v in member:
            out[u].append(v)
            inc[v].append(u)
    finish: list[int] = []
    seen: set[int] = set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            w, i = stack.pop()
            kids = out[w]
            while i < len(kids) and kids[i] in seen:
                i += 1
            if i < len(kids):
                stack.append((w, i + 1))
                seen.add(kids[i])
                stack.append((kids[i], 0))
            else:
                finish.append(w)
    comps: set[frozenset[int]] = set()
    assigned: set[int] = set()
    for root in reversed(finish):
        if root in assigned:
            continue
        comp = [root]
        assigned.add(root)
        stack2 = [root]
        while stack2:
            w = stack2.pop()
            for p in inc[w]:
                if p not in assigned:
                    assigned.add(p)
                    comp.append(p)
                    stack2.append(p)
        comps.add(frozenset(comp))
    return comps


def edge_reach(edges: Iterable[tuple[int, int]], u: int, v: int) -> bool:
    """Plain DFS reachability over an edge list."""
    if u == v:
        return True
    out: dict[int, list[int]] = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    seen = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for c in out.get(w, ()):
            if c == v:
                return True
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def adjacency_reach(out: dict[int, set[int]], u: int, v: int) -> bool:
    """DFS reachability over a dict-of-sets adjacency (mirror graphs)."""
    if u == v:
        return True
    seen = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for c in out.get(w, ()):
            if c == v:
                return True
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def dag_reach(graph, s: int, t: int) -> bool:
    """DFS over ``graph.dag_children``: does current component ``s``
    reach current component ``t``?"""
    for x in (s, t):
        if not graph.is_current(x):
            raise ValueError(f"node {x} is not a current component")
    seen = {s}
    stack = [s]
    while stack:
        w = stack.pop()
        if w == t:
            return True
        for c in graph.dag_children(w):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def reachable_pairs(nodes: list[int], out: dict[int, set[int]]) -> dict[int, set[int]]:
    """Full reachable set per node (includes the node itself)."""
    result: dict[int, set[int]] = {}
    for u in nodes:
        seen = {u}
        stack = [u]
        while stack:
            w = stack.pop()
            for c in out.get(w, ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        result[u] = seen
    return result


class Mirror:
    """Trusted shadow of the evolving input graph, maintained op by op."""

    def __init__(self, edges: Iterable[tuple[int, int]], num_nodes: int):
        self.nodes: set[int] = set(range(num_nodes))
        self.out: dict[int, set[int]] = {u: set() for u in self.nodes}
        self.inc: dict[int, set[int]] = {u: set() for u in self.nodes}
        for u, v in edges:
            self.out[u].add(v)
            self.inc[v].add(u)

    def insert_edge(self, u: int, v: int) -> None:
        self.out[u].add(v)
        self.inc[v].add(u)

    def delete_edge(self, u: int, v: int) -> None:
        self.out[u].discard(v)
        self.inc[v].discard(u)

    def insert_node(self, u: int, outs: Iterable[int], ins: Iterable[int]) -> None:
        self.nodes.add(u)
        self.out[u] = set()
        self.inc[u] = set()
        for w in outs:
            self.insert_edge(u, w)
        for w in ins:
            self.insert_edge(w, u)

    def delete_node(self, u: int) -> None:
        for v in list(self.out[u]):
            self.delete_edge(u, v)
        for w in list(self.inc[u]):
            self.delete_edge(w, u)
        self.nodes.discard(u)
        del self.out[u]
        del self.inc[u]

    def edge_list(self) -> list[tuple[int, int]]:
        return [(u, v) for u, targets in self.out.items() for v in targets]

    def partition(self) -> set[frozenset[int]]:
        return kosaraju_partition(self.nodes, self.edge_list())

    def reach(self, u: int, v: int) -> bool:
        return adjacency_reach(self.out, u, v)


def check_label_invariants(index) -> None:
    """Edge-wise containment on every DAG edge plus exhaustive label
    soundness (reachability implies subsumption) over all component pairs.

    Reachability is a bitset per component, built over the stored child
    lists in reverse topological order (Kahn's), which also checks that
    the condensation is acyclic; pairs are compared in blocks of rows."""
    g = index.graph
    k = index.k
    if k == 0:
        return
    lab = index.labeler
    nodes = g.current_dag_nodes()
    pos = {s: i for i, s in enumerate(nodes)}
    n = len(nodes)
    kids: list[list[int]] = []
    for s in nodes:
        bs, es = [], []
        for d in range(k):
            bs.append(lab._b[d][s])
            es.append(lab._e[d][s])
        kids.append([pos[t] for t in g.dag_children(s)])
        for t in g.dag_children(s):
            for d in range(k):
                bt, et = lab._b[d][t], lab._e[d][t]
                assert bs[d] <= bt and es[d] >= et + 1, (
                    f"containment broken on edge ({s}, {t}) dim {d}: "
                    f"[{bs[d]}, {es[d]}] vs [{bt}, {et}]"
                )
    indeg = [0] * n
    for ks in kids:
        for j in ks:
            indeg[j] += 1
    order = [i for i in range(n) if not indeg[i]]
    for i in order:
        for j in kids[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    assert len(order) == n, "the condensation has a cycle"
    reach = [0] * n  # bit j of reach[i]: nodes[i] reaches nodes[j]
    for i in reversed(order):
        r = 0
        for j in kids[i]:
            r |= reach[j] | (1 << j)
        reach[i] = r
    b = np.array([[lab._b[d][s] for s in nodes] for d in range(k)], dtype=np.int64)
    e = np.array([[lab._e[d][s] for s in nodes] for d in range(k)], dtype=np.int64)
    width = (n + 7) // 8
    for lo in range(0, n, 256):
        hi = min(n, lo + 256)
        rows = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in reach[lo:hi]), np.uint8)
        closure = np.unpackbits(rows.reshape(hi - lo, width), axis=1, bitorder="little")[:, :n].astype(bool)
        covers = ((b[:, lo:hi, None] <= b[:, None, :]) & (e[:, None, :] <= e[:, lo:hi, None])).all(axis=0)
        bad = closure & ~covers
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise AssertionError(
                f"label soundness broken: {nodes[lo + i]} reaches {nodes[j]} but "
                f"{index.label_of(nodes[lo + i])} does not subsume {index.label_of(nodes[j])}"
            )


def check_trees(idx) -> None:
    """The spanning trees of every component that has them: its root is a
    member; the slots of the trees' generation are exactly its members
    that are not pending; and from each of them the out-tree parents and
    the in-tree parents lead to the root, without a cycle, along input
    edges between members (into the slot for the out-tree, out of it for
    the in-tree)."""
    g = idx.graph
    members: dict[int, set[int]] = {}
    for u in g.input_node_ids():
        x = g.input_slot(u)
        members.setdefault(g.find_scc(x), set()).add(x)
    for s, (root, gen, pending) in g._trees.items():
        assert g.is_current(s) and g.scc_size(s) > 1, f"trees kept for {s}, not a multi-node component"
        group = members[s]
        assert root in group, f"root {root} is not a member of {s}"
        assert set(pending) <= group, f"pending {pending} not all members of {s}"
        hung = {x for x, t in enumerate(g._tgen) if t == gen}
        assert hung == group - set(pending), (
            f"trees of {s}: slots {sorted(hung ^ (group - set(pending)))} in the trees or among the members, not both"
        )
        for links, out in ((g._tout, False), (g._tin, True)):
            for x in hung:
                seen = {x}
                while x != root:
                    p = links[x]
                    assert p in hung, f"{'in' if out else 'out'}-tree of {s}: parent {p} of {x} not in the trees"
                    assert g.has_input_edge(*((x, p) if out else (p, x))), (
                        f"{'in' if out else 'out'}-tree of {s}: link {x} -> {p} is no input edge"
                    )
                    assert p not in seen, f"{'in' if out else 'out'}-tree of {s}: cycle through {p}"
                    seen.add(p)
                    x = p


def assert_agrees(idx, mirror):
    """Input edges, partition, every DAG edge with its multiplicity, label
    containment and the spanning trees against the mirror, and that the
    visit-mark column covers every slot with no mark above the counter."""
    assert set(idx.graph.input_edges()) == set(mirror.edge_list())
    assert idx.scc_partition() == mirror.partition()
    g = idx.graph
    assert len(g._vis) == g.capacity and max(g._vis, default=0) <= g._stamp
    counts: Counter[tuple[int, int]] = Counter()
    for u, v in mirror.edge_list():
        s, t = idx.find(u), idx.find(v)
        if s != t:
            counts[s, t] += 1
    nodes = g.current_dag_nodes()
    stored = {(s, t): g.edge_multiplicity(s, t) for s in nodes for t in g.dag_children(s)}
    assert stored == dict(counts)
    assert {(p, s) for s in nodes for p in g.dag_parents(s)} == set(counts)
    check_label_invariants(idx)
    check_trees(idx)
