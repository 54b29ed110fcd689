"""Independent reference graph: plain adjacency sets, updated op by op.

The reference shares no code with ``dynreach``.  It answers reachability
with a bidirectional breadth-first search and computes the SCC partition
with its own iterative Tarjan pass, so the index under test is checked
against something it cannot influence.

Adjacency is kept in insertion-ordered dicts rather than sets, and the
node and edge lists support O(1) uniform sampling.  Nothing here iterates
in an order that depends on id values, so a workload drawn from the
reference is the same whatever ids the index hands out.
"""
from __future__ import annotations


class RefGraph:
    """Directed graph with set semantics on edges (self-loops allowed)."""

    def __init__(self, n: int, edges: list[tuple[int, int]]) -> None:
        self.out: dict[int, dict[int, None]] = {u: {} for u in range(n)}
        self.inc: dict[int, dict[int, None]] = {u: {} for u in range(n)}
        self.nodes: list[int] = list(range(n))
        self.node_pos: dict[int, int] = {u: u for u in range(n)}
        self.edges: list[tuple[int, int]] = []
        self.edge_pos: dict[tuple[int, int], int] = {}
        self.next_id = n
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # updates

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out[u]

    def add_edge(self, u: int, v: int) -> bool:
        """Add (u, v); False when it was already present."""
        if v in self.out[u]:
            return False
        self.out[u][v] = None
        self.inc[v][u] = None
        self.edge_pos[(u, v)] = len(self.edges)
        self.edges.append((u, v))
        return True

    def remove_edge(self, u: int, v: int) -> None:
        del self.out[u][v]
        del self.inc[v][u]
        pos = self.edge_pos.pop((u, v))
        last = self.edges.pop()
        if last != (u, v):
            self.edges[pos] = last
            self.edge_pos[last] = pos

    def add_node(self) -> int:
        """Create a node with a fresh id (ids are never reused)."""
        u = self.next_id
        self.next_id += 1
        self.node_pos[u] = len(self.nodes)
        self.nodes.append(u)
        self.out[u] = {}
        self.inc[u] = {}
        return u

    def remove_node(self, u: int) -> None:
        for v in list(self.out[u]):
            self.remove_edge(u, v)
        for w in list(self.inc[u]):
            self.remove_edge(w, u)
        pos = self.node_pos.pop(u)
        last = self.nodes.pop()
        if last != u:
            self.nodes[pos] = last
            self.node_pos[last] = pos
        del self.out[u]
        del self.inc[u]

    # ------------------------------------------------------------------
    # answers

    def reaches(self, u: int, v: int) -> bool:
        """Bidirectional BFS: grow the smaller frontier until the two
        searches meet (reachable) or one side runs out (not reachable)."""
        if u == v:
            return True
        out, inc = self.out, self.inc
        fseen = {u}
        bseen = {v}
        ffront = [u]
        bfront = [v]
        while ffront and bfront:
            if len(ffront) <= len(bfront):
                nxt = []
                for w in ffront:
                    for c in out[w]:
                        if c in bseen:
                            return True
                        if c not in fseen:
                            fseen.add(c)
                            nxt.append(c)
                ffront = nxt
            else:
                nxt = []
                for w in bfront:
                    for c in inc[w]:
                        if c in fseen:
                            return True
                        if c not in bseen:
                            bseen.add(c)
                            nxt.append(c)
                bfront = nxt
        return False

    def scc_partition(self) -> list[list[int]]:
        """Strongly connected components by iterative Tarjan."""
        out = self.out
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        comps: list[list[int]] = []
        counter = 0
        for root in self.nodes:
            if root in index:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(out[root]))]
            while work:
                w, it = work[-1]
                for c in it:
                    if c not in index:
                        index[c] = low[c] = counter
                        counter += 1
                        stack.append(c)
                        on_stack.add(c)
                        work.append((c, iter(out[c])))
                        break
                    if c in on_stack and index[c] < low[w]:
                        low[w] = index[c]
                else:
                    work.pop()
                    if work:
                        p = work[-1][0]
                        if low[w] < low[p]:
                            low[p] = low[w]
                    if low[w] == index[w]:
                        comp = []
                        while True:
                            x = stack.pop()
                            on_stack.discard(x)
                            comp.append(x)
                            if x == w:
                                break
                        comps.append(comp)
        return comps
