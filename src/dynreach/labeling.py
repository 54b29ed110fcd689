"""Randomized interval labels over the condensation DAG.

Each current DAG node carries ``k`` intervals ``[b, e]``, one per
dimension, produced by independent randomized post-order traversals.  The
one invariant maintained after every update is containment along DAG
edges: ``b_s <= b_t`` and ``e_s >= e_t + 1`` for every edge ``(s, t)``.
By induction, if ``s`` reaches ``t`` then the label of ``s`` subsumes the
label of ``t`` — so a failed subsumption test proves non-reachability,
while a passing test may still be a false positive that the search
resolves.

``k = 0`` disables labeling entirely: every operation is a no-op and
subsumption is treated as always true, degenerating search to a plain
DAG traversal.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import InternalError, LogicError
from .graph import INPUT as _INPUT
from .graph import SccGraph

#: A label value: one (begin, end) pair per dimension.
Label = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LabelerConfig:
    """Labeling parameters.  Identical (graph, k, seed) give identical labels.

    ``dim_orders`` pins the traversal child order per dimension for
    reproducing hand-worked fixtures: children are sorted by the mapped
    weight (then id) instead of shuffled.
    """

    k: int = 1
    seed: int = 0
    dim_orders: Sequence[Mapping[int, float]] | None = field(default=None, compare=False)


def subsumes(outer: Label, inner: Label) -> bool:
    """True iff every dimension of ``inner`` lies inside ``outer``."""
    if len(outer) != len(inner):
        raise LogicError(f"label dimension mismatch: {len(outer)} vs {len(inner)}")
    return all(ob <= ib and ie <= oe for (ob, oe), (ib, ie) in zip(outer, inner))


class IntervalLabeler:
    """Owns the label arrays for one index instance."""

    def __init__(self, cfg: LabelerConfig) -> None:
        if cfg.k < 0:
            raise LogicError(f"dimension count must be >= 0, got {cfg.k}")
        self.cfg = cfg
        self.k = cfg.k
        self._b: list[list[int]] = [[] for _ in range(cfg.k)]
        self._e: list[list[int]] = [[] for _ in range(cfg.k)]
        # One generator per dimension, consumed across the index lifetime.
        self._rngs = [random.Random(cfg.seed * 1_000_003 + d) for d in range(cfg.k)]
        self._max_end = [0] * cfg.k
        # Instrumentation: (node, dimension) end-recomputation events.
        self.pq_recomputes = 0

    # ------------------------------------------------------------------
    # access

    def label_of(self, s: int) -> Label:
        return tuple((self._b[d][s], self._e[d][s]) for d in range(self.k))

    def set_label(self, s: int, label: Label) -> None:
        for d, (b, e) in enumerate(label):
            self._ensure_dim(d, s)
            self._b[d][s] = b
            self._e[d][s] = e
            if e > self._max_end[d]:
                self._max_end[d] = e

    def covers(self, s: int, t: int) -> bool:
        """Id-level subsumption test; vacuously true when k = 0."""
        for d in range(self.k):
            if self._b[d][s] > self._b[d][t] or self._e[d][s] < self._e[d][t]:
                return False
        return True

    def _ensure_dim(self, d: int, upto: int) -> None:
        col = self._b[d]
        if upto >= len(col):
            extra = upto + 1 - len(col)
            col.extend([0] * extra)
            self._e[d].extend([0] * extra)

    def ensure_capacity(self, upto: int) -> None:
        for d in range(self.k):
            self._ensure_dim(d, upto)

    def _ordered(self, d: int, nodes: list[int]) -> list[int]:
        orders = self.cfg.dim_orders
        if orders is not None:
            key = orders[d]
            nodes.sort(key=lambda x: (key.get(x, 0), x))
        else:
            self._rngs[d].shuffle(nodes)
        return nodes

    # ------------------------------------------------------------------
    # initial assignment

    def initial_labels(self, graph: SccGraph) -> None:
        """Label every current DAG node with k randomized traversals.

        Each dimension runs one post-order traversal from all roots (in
        shuffled order, sharing a counter).  Exiting a node advances the
        counter by the component size and sets the end rank; the begin
        rank is the minimum of the entry counter and the children's
        begins.
        """
        if self.k == 0:
            return
        nodes = graph.current_dag_nodes()
        roots = [s for s in nodes if not graph.dag_parents(s)]
        self.ensure_capacity(graph.capacity - 1)
        for d in range(self.k):
            self._traverse_dim(graph, d, roots, len(nodes))

    def _traverse_dim(self, graph: SccGraph, d: int, roots: list[int], expected: int) -> None:
        b_col, e_col = self._b[d], self._e[d]
        size = graph._size
        state = bytearray(graph.capacity)  # 0 new, 1 active, 2 done
        ctr = 0
        labeled = 0
        for root in self._ordered(d, list(roots)):
            if state[root]:
                continue
            state[root] = 1
            frames: list[list] = [[root, self._ordered(d, graph.dag_children(root)), 0, ctr]]
            while frames:
                frame = frames[-1]
                node, kids, i, entry = frame
                if i < len(kids):
                    frame[2] = i + 1
                    c = kids[i]
                    if state[c] == 0:
                        state[c] = 1
                        frames.append([c, self._ordered(d, graph.dag_children(c)), 0, ctr])
                    elif state[c] == 1:
                        raise InternalError(f"cycle through node {c} in the condensation")
                    continue
                frames.pop()
                state[node] = 2
                begin = entry
                for c in kids:
                    cb = b_col[c]
                    if cb < begin:
                        begin = cb
                ctr += size[node]
                b_col[node] = begin
                e_col[node] = ctr
                labeled += 1
        if labeled != expected:
            raise InternalError("condensation contains nodes unreachable from any root")
        if ctr > self._max_end[d]:
            self._max_end[d] = ctr

    # ------------------------------------------------------------------
    # enlargement on edge insertion / merge

    def enlarge_to_cover(self, graph: SccGraph, s: int, t: int) -> None:
        """Grow the label of ``s`` over the label of its new child ``t``.

        No-op when ``s`` already subsumes ``t``; otherwise the enlargement
        is propagated to ancestors of ``s``.
        """
        if self.k == 0:
            return
        changed = False
        for d in range(self.k):
            b_col, e_col = self._b[d], self._e[d]
            if b_col[t] < b_col[s]:
                b_col[s] = b_col[t]
                changed = True
            need = e_col[t] + 1
            if need > e_col[s]:
                e_col[s] = need
                changed = True
                if need > self._max_end[d]:
                    self._max_end[d] = need
        if changed:
            self.propagate(graph, (s,))

    def propagate(self, graph: SccGraph, seeds: Iterable[int]) -> None:
        """Restore edge-wise containment above ``seeds`` (labels final).

        Begin values are min-propagated with a worklist.  End values are
        finalized in ascending order of their previous value through a
        priority queue, so every ancestor sees finished children and is
        recomputed at most once.
        """
        if self.k == 0:
            return
        seeds = list(seeds)
        in_d, in_i = graph._in_d, graph._in_i
        parent, kind = graph._parent, graph._kind
        input_kind = _INPUT
        b_cols = self._b
        # Begin phase: push the (monotone) min up every parent chain.
        stack = list(seeds)
        while stack:
            w = stack.pop()
            idd = in_d[w]
            if idd:
                for p in idd:
                    changed = False
                    for b_col in b_cols:
                        if b_col[p] > b_col[w]:
                            b_col[p] = b_col[w]
                            changed = True
                    if changed:
                        stack.append(p)
            if kind[w] == input_kind:
                for p in in_i[w]:
                    if parent[p] != -1 or p == w:
                        continue
                    changed = False
                    for b_col in b_cols:
                        if b_col[p] > b_col[w]:
                            b_col[p] = b_col[w]
                            changed = True
                    if changed:
                        stack.append(p)
        # End phase, one dimension at a time.  Entries are relaxations
        # (old end, node, required floor): because a parent's old end
        # exceeds its children's, every floor a node receives is final
        # before any of its parents pop, so one pass settles the cone
        # without rescanning child lists.
        for d in range(self.k):
            e_col = self._e[d]
            heap: list[tuple[int, int, int]] = []
            for w in seeds:
                floor = e_col[w] + 1
                idd = in_d[w]
                if idd:
                    for p in idd:
                        if e_col[p] < floor:
                            heappush(heap, (e_col[p], p, floor))
                if kind[w] == input_kind:
                    for p in in_i[w]:
                        if parent[p] == -1 and p != w and e_col[p] < floor:
                            heappush(heap, (e_col[p], p, floor))
            applied = 0
            hi = self._max_end[d]
            while heap:
                _, p, floor = heappop(heap)
                if e_col[p] >= floor:
                    continue
                e_col[p] = floor
                applied += 1
                if floor > hi:
                    hi = floor
                up = floor + 1
                idd = in_d[p]
                if idd:
                    for q in idd:
                        if e_col[q] < up:
                            heappush(heap, (e_col[q], q, up))
                if kind[p] == input_kind:
                    for q in in_i[p]:
                        if parent[q] == -1 and q != p and e_col[q] < up:
                            heappush(heap, (e_col[q], q, up))
            self.pq_recomputes += applied
            self._max_end[d] = hi

    # ------------------------------------------------------------------
    # split relabeling

    def relabel_split(self, graph: SccGraph, clist: Sequence[int], old_label: Label) -> None:
        """Redistribute a split component's interval over its fragments.

        ``clist`` holds the new components in extraction order with the
        surviving component last; they form a sub-DAG with that survivor
        as sole root and the deletion source's component as sole leaf.
        Per dimension, a randomized post-order restricted to ``clist``
        assigns intervals starting from the old begin value; a node's end
        is the larger of the running counter and its largest child end
        plus one, so edges out of the fragment stay covered.  Any growth
        past the old label is propagated to outside ancestors.
        """
        if self.k == 0:
            return
        cset = set(clist)
        if len(cset) != len(clist) or len(clist) < 2:
            raise LogicError("split list must hold at least two distinct components")
        root = clist[-1]
        self.ensure_capacity(graph.capacity - 1)
        leaves = [w for w in clist if not any(c in cset for c in graph.dag_children(w))]
        if len(leaves) != 1:
            raise LogicError(f"split sub-DAG must have exactly one leaf, found {len(leaves)}")
        size = graph._size
        for d in range(self.k):
            b_col, e_col = self._b[d], self._e[d]
            ctr = old_label[d][0]
            state = {root: 1}
            inner = [c for c in graph.dag_children(root) if c in cset]
            frames: list[list] = [[root, self._ordered(d, inner), 0, ctr]]
            done = 0
            while frames:
                frame = frames[-1]
                node, kids, i, entry = frame
                if i < len(kids):
                    frame[2] = i + 1
                    c = kids[i]
                    if c not in state:
                        state[c] = 1
                        nxt = [x for x in graph.dag_children(c) if x in cset]
                        frames.append([c, self._ordered(d, nxt), 0, ctr])
                    continue
                frames.pop()
                begin = entry
                end = 0
                for c in graph.dag_children(node):
                    cb = b_col[c]
                    if cb < begin:
                        begin = cb
                    ce = e_col[c]
                    if ce > end:
                        end = ce
                ctr += size[node]
                b_col[node] = begin
                e_col[node] = max(ctr, end + 1)
                if e_col[node] > self._max_end[d]:
                    self._max_end[d] = e_col[node]
                done += 1
            if done != len(clist):
                raise LogicError("split sub-DAG is not connected under its root")
        self.propagate(graph, clist)

    # ------------------------------------------------------------------
    # fresh nodes

    def label_new_source(self, graph: SccGraph, u: int, out_comps: Iterable[int]) -> None:
        """Label a just-inserted node from its outgoing neighbors.

        With successors, the interval spans their hull plus one; without,
        it opens past the largest end value ever assigned (0 on an empty
        index).
        """
        if self.k == 0:
            return
        comps = list(out_comps)
        self.ensure_capacity(graph.capacity - 1)
        for d in range(self.k):
            b_col, e_col = self._b[d], self._e[d]
            if comps:
                b = min(b_col[c] for c in comps)
                e = max(e_col[c] for c in comps) + 1
            else:
                b = self._max_end[d]
                e = b + 1
            b_col[u] = b
            e_col[u] = e
            if e > self._max_end[d]:
                self._max_end[d] = e

    def full_relabel(self, graph: SccGraph) -> None:
        """Recompute every label from scratch (maintenance valve for
        long-running instances whose end values have drifted high)."""
        if self.k == 0:
            return
        self._max_end = [0] * self.k
        self.initial_labels(graph)
