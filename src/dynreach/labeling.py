"""Randomized interval labels over the condensation DAG.

Each current DAG node carries ``k`` intervals ``[b, e]``, one per
dimension, first given by independent randomized post-order traversals.  The
one invariant maintained after every update is containment along DAG
edges: ``b_s <= b_t`` and ``e_s >= e_t + 1`` for every edge ``(s, t)``.
By induction, if ``s`` reaches ``t`` then the label of ``s`` subsumes the
label of ``t`` — so a failed subsumption test proves non-reachability,
while a passing test may still be a false positive that the search
resolves.

Two steps maintain the labels.  ``_exit`` labels nodes in an order
that puts every node after its DAG children among them: on a build, the
whole condensation in one randomized post-order (``_post_order``); on a
split, the pieces alone, in the order the extraction detached them
(``relabel_split``), with no traversal and no random draw.  The remnant
keeps the split component's label, and each piece's exit step reads it
like any other DAG child.  ``propagate`` takes DAG edges that may lack
containment, as ``(child, parents)`` pairs: an insertion passes its new
edge, a merge the edges it gave its representative, and a split the
edges into its pieces.  It repairs each end from the cheaper side.  When
the parent has more DAG parents than the child has DAG children, it first
lowers the child's end, cascading down the child's cone, within a budget
of ``_LOWER_BUDGET`` ends and a floor of 0; otherwise, or when the
lowering would pass either, it raises the parent's end, then every
ancestor that no longer covers a raised label.  A lowering so costs at
most the budget, and a raise the part of the parent's ancestry that has
to grow.  Begins only ever fall, up the parents' ancestry.  A fresh slot
starts with the empty label (``ensure_capacity``), which needs no
containment until it gains a DAG edge, so an inserted node, or a fresh
merge representative, is labelled by the ``propagate`` of its new edges
to its children like any other parent.  Since ends move both ways, labels are sound but not the least
that hold containment: a lowered end lies below the one a fresh traversal
would give.

``k = 0`` disables labeling entirely: every operation is a no-op and
subsumption is treated as always true, degenerating search to a plain
DAG traversal.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import InputError, InternalError, LogicError
from .graph import SccGraph

#: A label value: one (begin, end) pair per dimension.  A component that
#: has never had a DAG child may hold the empty interval its slot started
#: with (``b > e``).
Label = tuple[tuple[int, int], ...]

#: The most ends one downward repair in ``propagate`` may lower before it
#: is undone and the parent is raised instead.
_LOWER_BUDGET = 64


@dataclass(frozen=True)
class LabelerConfig:
    """Labeling parameters.  Identical (graph, k, seed) give identical labels."""

    k: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise InputError(f"dimension count must be >= 0, got {self.k}")


def subsumes(outer: Label, inner: Label) -> bool:
    """True iff every dimension of ``inner`` lies inside ``outer``."""
    if len(outer) != len(inner):
        raise LogicError(f"label dimension mismatch: {len(outer)} vs {len(inner)}")
    return all(ob <= ib and ie <= oe for (ob, oe), (ib, ie) in zip(outer, inner))


class IntervalLabeler:
    """Owns the label arrays for one index instance."""

    def __init__(self, cfg: LabelerConfig) -> None:
        self.k = cfg.k
        self._b: list[list[int]] = [[] for _ in range(cfg.k)]
        self._e: list[list[int]] = [[] for _ in range(cfg.k)]
        # (begin, end) columns per dimension; the columns only grow in place.
        self._cols = tuple(zip(self._b, self._e))
        # One generator per dimension, consumed by the build alone.
        self._rngs = [random.Random(cfg.seed * 1_000_003 + d) for d in range(cfg.k)]
        self._max_end = [0] * cfg.k

    # ------------------------------------------------------------------
    # access

    def covers(self, s: int, t: int) -> bool:
        """Does ``s``'s label hold ``t``'s in every dimension?  False
        proves that ``s`` does not reach ``t``; always true at k 0."""
        for b_col, e_col in self._cols:
            if b_col[s] > b_col[t] or e_col[t] > e_col[s]:
                return False
        return True

    def label_of(self, s: int) -> Label:
        return tuple((self._b[d][s], self._e[d][s]) for d in range(self.k))

    def ensure_capacity(self, upto: int) -> None:
        """Grow the label columns to hold slot ``upto``.

        A new slot gets the empty label ``[max_end, -1]`` in every
        dimension: every label made so far covers it, and it covers only
        empty labels, which is valid for a node without DAG edges.  Its
        first DAG children ``c``, whether an inserted node's out-edges or
        the children a merge gives a fresh representative, make
        ``propagate`` grow it over them (begin at most ``b_c``, end at
        least ``e_c + 1``); a split overwrites it.
        """
        for b_col, e_col, hi in zip(self._b, self._e, self._max_end):
            if upto >= len(b_col):
                extra = upto + 1 - len(b_col)
                b_col.extend([hi] * extra)
                e_col.extend([-1] * extra)

    def _ordered(self, d: int, nodes: list[int]) -> list[int]:
        """``nodes`` in the traversal order of dimension ``d``: shuffled.
        A list of fewer than two is left alone; shuffling it draws no
        random number either."""
        if len(nodes) > 1:
            self._rngs[d].shuffle(nodes)
        return nodes

    # ------------------------------------------------------------------
    # exit steps: build and split

    def initial_labels(self, graph: SccGraph) -> None:
        """Label every current DAG node with k randomized traversals.

        Each dimension runs one post-order traversal (``_post_order``)
        from all roots and labels its nodes in that order (``_exit``), the
        counter starting at 0, so the end of a node is the counter when it
        exits.
        """
        if self.k == 0:
            return
        nodes = graph.current_dag_nodes()
        in_d = graph._in_d
        roots = [s for s in nodes if not in_d[s]]
        self.ensure_capacity(graph.capacity - 1)
        for d in range(self.k):
            order = self._post_order(graph, d, roots)
            if len(order) != len(nodes):
                raise InternalError("condensation contains nodes unreachable from any root")
            self._exit(graph, d, order, 0)

    def _post_order(self, graph: SccGraph, d: int, roots: Iterable[int]) -> list[int]:
        """The DAG nodes one traversal from ``roots`` (in shuffled order)
        reaches, following DAG edges (in shuffled order), in the order it
        exits them: each after its DAG children."""
        out_d, ordered = graph._out_d, self._ordered
        state = bytearray(graph.capacity)  # 0 new, 1 active, 2 done
        order: list[int] = []
        for root in ordered(d, list(roots)):
            if state[root]:
                continue
            state[root] = 1
            frames = [(root, iter(ordered(d, list(out_d[root]))))]
            while frames:
                node, it = frames[-1]
                for c in it:
                    if state[c] == 0:
                        state[c] = 1
                        frames.append((c, iter(ordered(d, list(out_d[c])))))
                        break
                    if state[c] == 1:
                        raise InternalError(f"cycle through node {c} in the condensation")
                else:
                    frames.pop()
                    state[node] = 2
                    order.append(node)
        return order

    def _exit(self, graph: SccGraph, d: int, order: Iterable[int], ctr: int) -> None:
        """Label dimension ``d`` of the nodes of ``order``, each after its
        DAG children among them, with a counter that starts at ``ctr``.

        Exiting a node advances the counter by the component size and
        gives the node the begin ``min(counter before, DAG children's
        begins)`` and the end ``max(counter after, largest DAG child end +
        1)``; ``_max_end[d]`` rises to the ends given.
        """
        b_col, e_col = self._b[d], self._e[d]
        out_d, size = graph._out_d, graph._size
        hi = self._max_end[d]
        for node in order:
            begin = ctr
            ctr += size[node]
            end = ctr
            for c in out_d[node]:
                if b_col[c] < begin:
                    begin = b_col[c]
                if e_col[c] >= end:
                    end = e_col[c] + 1
            b_col[node] = begin
            e_col[node] = end
            if end > hi:
                hi = end
        self._max_end[d] = hi

    def relabel_split(self, graph: SccGraph, clist: Sequence[int], s: int) -> None:
        """Label the pieces of the split component ``s``.

        ``clist`` holds the detached pieces, each after every piece that
        is its DAG child, with the remnant last
        (``ReachabilityIndex.extract_components`` detaches them in that
        order).  The remnant keeps ``s``'s label: its edges to and from
        outside were the component's, so they stay covered.  When it is
        ``s`` itself its columns are left as they are; when ``s``
        dissolved to one node, that node takes ``s``'s label.  Per
        dimension, one exit step per piece in ``clist``'s order
        (``_exit``), the counter starting at ``s``'s begin, labels the
        pieces: each reads every DAG child, its piece children already
        labelled and the remnant and outside nodes as they are, so it
        covers them all.  Propagating over the edges into the pieces, the
        remnant's among them, restores containment where it lacks, by
        lowering a piece or raising a parent, the remnant among them.  No
        random number is drawn, and the remnant's own edges are never
        scanned, so the cost follows the pieces' degrees.
        """
        if self.k == 0:
            return
        *pieces, remnant = clist
        if not pieces:
            raise LogicError("split list must hold a piece and the remnant")
        if remnant != s:
            for b_col, e_col in self._cols:
                b_col[remnant] = b_col[s]
                e_col[remnant] = e_col[s]
        for d, b_col in enumerate(self._b):
            self._exit(graph, d, pieces, b_col[s])
        self.propagate(graph, [(w, graph._in_d[w]) for w in pieces])

    # ------------------------------------------------------------------
    # propagation

    def propagate(self, graph: SccGraph, covers: Iterable[tuple[int, Iterable[int]]]) -> None:
        """Restore edge-wise containment along ``covers``, ``(child,
        parents)`` pairs of DAG edges that may lack it: each of
        ``parents`` gets a begin ``b_p <= b_c`` and an end ``e_p >= e_c +
        1`` over ``child``.

        A plain insertion of ``(s, t)`` passes ``((t, (s,)),)``, and a
        split every piece with all its parents.  A merge passes the DAG
        edges it gave its representative ``rep``: ``(c, (rep,))`` for each
        external child ``c`` moved onto it, and ``(rep, parents)`` for the
        external parents moved onto it.

        Begins are min-propagated up every parent chain with a worklist,
        which takes a node's parents once per time its begin fell.

        Ends are repaired one dimension at a time, from whichever side is
        cheaper.  Each edge ``(p, w)`` that lacks ``e_p >= e_w + 1`` is
        taken in turn.  When ``p`` has more DAG parents than ``w`` has DAG
        children, ``w``'s end is first lowered to ``e_p - 1`` (``_lower``):
        lowering an end keeps every edge into the node, and the lowering
        cascades down ``w``'s cone into every child that no longer ends
        below its parent.  It is undone, and ``p`` is raised instead, when
        it would change more than ``_LOWER_BUDGET`` ends or take an end
        below 0, the floor that keeps every label apart from the empty
        label's end of -1.  A lowering so costs at most the budget, and
        keeps a parent with many ancestors, such as a parent of the giant
        component, from raising all of them.  The edges still lacking
        containment once every lowering is done are repaired upward: each
        parent is raised, and so on up every parent chain that grows.  The
        result holds containment but need not be the least labels that
        do: a lowered end lies below the end a fresh traversal gives.

        A merge's ``rep`` is a parent and a child in one call.  Its new
        children come first: each is lowered below ``rep``, or ``rep`` is
        queued to be raised over it.  Then each parent that ends too low
        is raised over ``rep``, or ``rep`` is lowered below it, cascading
        into its children, the new ones included.  Whatever order the
        lowerings take, none breaks an edge, and the raise pass starts
        from the edges that still lack containment after all of them, at
        the ends they left.

        The raise pass finalizes ends in ascending order of their
        previous value through a priority queue, and a node's floors pop
        largest first, so every ancestor sees finished children and is
        raised at most once, apart from ``rep``'s parents, which are
        raised at most twice: once against ``rep``'s old end and once
        against its raised one.  Only a cycle in the condensation raises
        more ends than twice the slots in one dimension, and then
        ``InternalError`` is raised instead of raising the ends around the
        cycle forever.
        """
        if self.k == 0:
            return
        covers = list(covers)
        in_d, out_d = graph._in_d, graph._out_d
        b_cols = self._b
        # Begin phase: push the (monotone) min up every parent chain.
        stack = list(covers)
        while stack:
            w, parents = stack.pop()
            for p in parents:
                changed = False
                for b_col in b_cols:
                    if b_col[p] > b_col[w]:
                        b_col[p] = b_col[w]
                        changed = True
                if changed:
                    stack.append((p, in_d[p]))
        # End phase, one dimension at a time: first the lowerings, then
        # the raise pass over the edges still short of containment.  Its
        # entries are relaxations (old end, node, minus the required
        # floor): because every other edge holds containment, a parent's
        # old end exceeds its children's, every floor a node receives is
        # queued before any of them pops, the largest pops first and the
        # rest are skipped, so one pass settles the cone.
        for d in range(self.k):
            e_col = self._e[d]
            short = []
            for w, parents in covers:
                for p in parents:
                    if e_col[p] <= e_col[w] and not (
                        len(in_d[p]) > len(out_d[w]) and _lower(e_col, out_d, w, e_col[p] - 1)
                    ):
                        short.append((w, p))
            heap = [(e_col[p], p, -1 - e_col[w]) for w, p in short if e_col[p] <= e_col[w]]
            heapify(heap)
            hi = self._max_end[d]
            raises = 2 * len(e_col)  # every slot raised twice; only a cycle exceeds it
            while heap:
                _, p, floor = heappop(heap)
                floor = -floor
                if e_col[p] >= floor:
                    continue
                raises -= 1
                if raises < 0:
                    raise InternalError(f"cycle through node {p} in the condensation: its end keeps rising")
                e_col[p] = floor
                if floor > hi:
                    hi = floor
                up = floor + 1
                for q in in_d[p]:
                    if e_col[q] < up:
                        heappush(heap, (e_col[q], q, -up))
            self._max_end[d] = hi


def _lower(e_col: list[int], out_d: Sequence, w: int, end: int) -> bool:
    """Lower ``w``'s end in ``e_col`` to ``end`` and then, down its cone,
    every child's end that no longer lies below its parent's to the
    parent's end minus 1.  True when done; false, with every end as it
    was, when that would take more than ``_LOWER_BUDGET`` lowerings (a
    node reached again by a longer path is lowered again, and counts
    again) or an end below 0."""
    undo: list[tuple[int, int]] = []
    stack = [(w, end)]
    while stack:
        n, end = stack.pop()
        if e_col[n] <= end:
            continue
        if end < 0 or len(undo) == _LOWER_BUDGET:
            for n, old in reversed(undo):
                e_col[n] = old
            return False
        undo.append((n, e_col[n]))
        e_col[n] = end
        for c in out_d[n]:
            if e_col[c] >= end:
                stack.append((c, end - 1))
    return True
