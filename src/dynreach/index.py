"""Dynamic reachability index: update operations and label-pruned queries.

The index composes the layered graph with the interval labeler and keeps
both consistent through the four update operations (edge/node insertion
and deletion).  A node insertion is the node plus its edges: the node
takes a fresh slot, whose label starts empty, joins a component that
holds one of its in- and one of its out-neighbours, and each of its
edges runs through the edge insertion.

A query from ``s`` to ``t`` tests, in this order and in ``reachable``'s
own frame: both lie in one component (true), a stored DAG edge leads
from ``s``'s to ``t``'s (true: such an edge joins current components),
``s``'s label fails to cover ``t``'s (false, by
``IntervalLabeler.covers``, the one test of two ends, which the merge
search's entry also uses), ``s``'s component has no DAG child or
``t``'s no DAG parent (false: no path leaves or enters it), and a
component is a DAG child of ``s``'s and a DAG parent of ``t``'s (true:
a path of two edges).  The edge goes before the labels, as more queries
end there, and the labels before the adjacency, so that the queries the
three earlier tests settle pay nothing more.  Only a query that none of
the five settles calls a search, which runs the condensation from both
ends (``_two_way``):
forward from ``s`` into children whose labels still cover ``t``'s, and
backward from ``t`` into parents whose labels ``s``'s still covers.  A
dead end, a component with no edge onward on that side, is not
entered: nothing past it lies on a path.  The side with fewer edges
left to scan expands next, so a hub on either side is passed by the
other.  The answer is true when one side reaches a node the other has
found, which certifies a path, and false when either side runs out of
nodes; a failed label test never hides a path.

An edge (s, t) closes a cycle when ``t`` reaches ``s``.  The most common
such cycle has two components: a DAG edge (t, s) is already stored, and
typically ``t`` is a lone node joining the giant.  Every t-to-s path
ends at a DAG parent of ``s`` and starts at a DAG child of ``t``, so
when every other member of the smaller of those two sides fails the
label test (``t``'s label does not hold the parent's, or the child's
does not hold ``s``'s), the merge set is ``{s, t}`` and no search runs.
Otherwise the same two-way search as a query's (``collect_merge_list``),
forward from ``t`` and backward from ``s``, both detects the cycle and
finds the components on a t-to-s path: it runs on until one side runs
out of nodes and keeps the links that side followed.  A component that
both sides have found lies on such a path.  The first one that a side is
about to expand before the other side has becomes the search's one hub,
which neither side expands; both sides then run dry, and the merge set
is read off the links of both.  The giant component in the middle of a
small merge set is so passed without a scan of its adjacency.  The
components found merge into the graph's representative (the largest
member, the smallest id on ties, or a fresh node when every member is a
singleton), which also carries the merged label.  Labels only need
containment along DAG edges (GRAIL's condition), and the only DAG edges
that can lack it are the ones the merge created: from the representative
to the external children moved onto it, and from the external parents
moved onto it to the representative.  The merge hands just those edges to
``propagate``, as an insertion hands over its one edge, and calls nothing
when there are none, as when a node joins before its edges.  That repairs each
edge from its cheaper side: it lowers a new child's end, and the ends
below it, when the representative has more DAG parents than the child
has DAG children and the lowering stays within a small budget, and
otherwise raises the representative over the child, or a new parent over
the representative, and then every ancestor that no longer covers it.  A
merge therefore scans the adjacency of the absorbed members once, plus
the labels that really change; joining a component with many parents
costs neither its in-degree nor its ancestry.  A node insertion whose
node has an in- and an out-neighbour in one component joins it before
any edge, with no search; a multi-node component keeps its label.

An edge deletion and a node deletion look up the components at each
removed edge's ends once; an edge between two components only adjusts
its DAG edge's multiplicity.  Deleting edges inside an SCC (one
edge, or every edge of a deleted node at once) splits it from the
smaller side (``extract_components``).  The SCC holds an out-tree and
an in-tree of breadth-first parent links from one root (``SccGraph``
keeps them; ``build`` grows them for the SCC of the node of highest
degree, and a deletion plants them, just before it removes anything, in
a component that has none).  Only the slots whose tree parent edge was
removed, or whose parent broke off, are checked: each first re-hangs on
another neighbour whose parent chain still reaches the root, and only
one that finds none races a search from itself against one from the
root, balanced by edges scanned.  That check is complete: a member's
tree path can only break at a removed edge or at a slot that broke off,
and the first break on it is checked.  A search that runs dry first has
found a closed set, which breaks off and is decomposed on its own; the
slots of the rest whose tree parent it held are checked in turn.  When
the trees cannot help (the root breaks off, the root's side of a race
runs dry, or a slot that found no parent is still joined to the root),
they are dropped, and what is left of the SCC is decomposed by one
Tarjan restricted to it, whose largest piece keeps the handle.  Otherwise
a deletion costs in proportion to the edges of the pieces that break
off, plus the re-hangs and the races, never the size of what is left;
the remnant keeps its handle, containment chain, label and trees.  The
pieces come out children first, as a set that breaks off forward lies
below every later piece and one that breaks off backward above them, so
each is labelled by one exit step in that order, with no traversal
(``IntervalLabeler.relabel_split``).
Within a deletion the trees' generation is membership: a slot is in
what is left of the SCC iff it holds that generation, and a piece that
breaks off leaves by taking generation 0, so the re-hangs, the races
and the fallback each read one list entry per slot.

Public methods take external node ids and translate them to graph slots
once, on entry; everything below that boundary (extraction, splits,
merges, labels) works on slots and component handles only.

Every search here, the two-way search and the races, marks slots in
the graph's one visit-mark column (``SccGraph._vis``, see its module
docstring), as the Tarjan of a split and the growth of the trees do.
The label columns grow with the slot space
(``IntervalLabeler.ensure_capacity``) after each update that takes new
slots: a node insertion, a merge and a split.

All operations, queries included, mutate internal state (path compression
and visit stamps); an instance therefore needs exclusive access.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import InternalError, LogicError
from .graph import SccGraph
from .labeling import IntervalLabeler, Label, LabelerConfig


@dataclass(frozen=True, slots=True)
class QueryStats:
    """Search instrumentation.  ``visited`` is 1 plus the components the
    search found from either end, the two ends and the dead ends it
    skipped not counted; ``pruned`` is the label tests failed on both
    sides.  A query answered without a search (same component, a DAG
    edge from ``s``'s to ``t``'s, the ends' labels fail, either end has no
    DAG edge on its side, or the ends share a DAG neighbour) has (1, 0),
    so a negative answer with ``visited > 1`` is a label false positive."""

    visited: int
    pruned: int


class ReachabilityIndex:
    """SCC condensation plus k-dimensional interval labels, kept current
    under edge/node insertions and deletions."""

    def __init__(self, graph: SccGraph, labeler: IntervalLabeler) -> None:
        self.graph = graph
        self.labeler = labeler
        labeler.ensure_capacity(graph.capacity - 1)
        # (visited, pruned) of the last query's search.
        self._searched = 1, 0

    @property
    def k(self) -> int:
        return self.labeler.k

    @classmethod
    def build(
        cls,
        edges: Iterable[tuple[int, int]],
        num_nodes: int | None = None,
        cfg: LabelerConfig | None = None,
    ) -> "ReachabilityIndex":
        """Construct the condensation from an edge list and label it."""
        graph = SccGraph.build(edges, num_nodes)
        labeler = IntervalLabeler(cfg or LabelerConfig())
        labeler.initial_labels(graph)
        return cls(graph, labeler)

    # ------------------------------------------------------------------
    # queries

    def reachable(self, u: int, v: int) -> bool:
        """Does input node ``u`` reach input node ``v``?

        The ids and components are looked up in this frame: a slot with no
        containment link (-1) is its component, one whose link leads to a
        slot without one needs no ``_find`` call, and a deeper one goes
        through ``_find``, which compresses its path.  Then, as the module
        docstring sets out: one component, a DAG edge, the ends' labels,
        an end with no DAG edge on its side, and a shared DAG neighbour,
        which ``isdisjoint`` finds by a loop over the smaller of the two
        adjacencies.  Only then does ``_two_way`` search; it leaves its
        ``visited`` and ``pruned`` counts in ``_searched``, where
        ``reachable_with_stats`` reads them."""
        g = self.graph
        try:
            s = g._slot[u]
            t = g._slot[v]
        except KeyError:
            g.input_slot(u)  # raises InputError naming the unknown id
            g.input_slot(v)
            raise
        parent = g._parent
        p = parent[s]
        if p != -1:
            s = p if parent[p] == -1 else g._find(s)
        p = parent[t]
        if p != -1:
            t = p if parent[p] == -1 else g._find(t)
        if s == t:
            return True
        od = g._out_d[s]
        if t in od:
            return True
        if not self.labeler.covers(s, t):
            return False
        idd = g._in_d[t]
        if not od or not idd:
            return False
        if not od.keys().isdisjoint(idd.keys()):
            return True
        dry, visited, pruned, _ = self._two_way(s, t, False)
        self._searched = visited, pruned
        return dry < 0

    # Called by ``reachable_with_stats`` under this name: a tracer that
    # wraps the public methods would otherwise give every query a second,
    # nested span.
    _reachable = reachable

    def reachable_with_stats(self, u: int, v: int) -> tuple[bool, QueryStats]:
        """``reachable``, with the search's ``QueryStats``: (1, 0) for an
        answer given without a search."""
        self._searched = 1, 0
        found = self._reachable(u, v)
        return found, QueryStats(*self._searched)

    # ------------------------------------------------------------------
    # edge insertion

    def insert_edge(self, u: int, v: int) -> None:
        """Insert input edge (u, v), merging components when it closes a
        cycle at the DAG level.  Re-inserting an existing edge is a no-op.

        Between components ``s`` and ``t``, a cycle through the new edge
        needs a DAG parent of ``s`` to return through, and ``t``'s label to
        hold ``s``'s; only then does the merge search run.  When ``t`` is
        itself a DAG parent of ``s`` and the labels show that nothing else
        lies on a t-to-s path (``_closes_two_cycle``), the merge list is
        ``[s, t]``, what the search would return, and no search runs."""
        g = self.graph
        su = g.input_slot(u)
        sv = g.input_slot(v)
        if not g.add_input_edge(su, sv):
            return
        s = g._find(su)
        t = g._find(sv)
        if s == t:
            return  # self-loops and edges inside a component never alter the condensation
        if t in g._out_d[s]:
            g._add_dag_edge(s, t, 1)
            return
        ind = g._in_d[s]
        if t in ind and self._closes_two_cycle(s, t):
            mlist = [s, t]
        elif ind and self.labeler.covers(t, s):
            mlist = self.collect_merge_list(t, s)
        else:
            mlist = None
        if mlist:
            self._merge(mlist)
        else:
            g._add_dag_edge(s, t, 1)
            self.labeler.propagate(g, ((t, (s,)),))

    def _closes_two_cycle(self, s: int, t: int) -> bool:
        """Given the DAG edge (t, s), is ``{s, t}`` the whole merge set of
        the new edge (s, t)?  True when every other member of the smaller
        of ``s``'s DAG parents and ``t``'s DAG children fails the label
        test: a parent ``p`` whose label ``t``'s does not hold, or a child
        ``c`` whose label does not hold ``s``'s.

        Every t-to-s path ends at a parent of ``s`` and starts at a child
        of ``t``, and a failed test proves that ``t`` does not reach ``p``
        or that ``c`` does not reach ``s``; so only the edge (t, s) is
        left.  At ``k`` 0 every test passes, and this holds only when that
        side has no other member.  False leaves the answer to the search."""
        g = self.graph
        covers = self.labeler.covers
        parents = g._in_d[s]
        kids = g._out_d[t]
        if len(parents) <= len(kids):
            for p in parents:
                if p != t and covers(t, p):
                    return False
        else:
            for c in kids:
                if c != s and covers(c, s):
                    return False
        return True

    def _merge(self, mlist: list[int]) -> None:
        """Collapse the components of ``mlist`` into the graph's
        representative ``rep`` and restore containment along the DAG
        edges the merge gave it: from ``rep`` to each external child the
        merge moved onto it, and from each such parent to ``rep``.  One
        ``propagate`` over those edges lowers a child below ``rep`` or
        raises ``rep`` over it, and lowers ``rep`` below a parent or raises
        the parent and its ancestry over ``rep``; only the absorbed
        members' adjacency is scanned.  A merge that gave ``rep`` no new
        DAG edge, as when a lone node with no edge yet joins a component,
        has no edge to repair and calls no ``propagate``."""
        g = self.graph
        rep, kids, parents = g.merge_components(mlist)
        self.labeler.ensure_capacity(g.capacity - 1)
        if kids or parents:
            self.labeler.propagate(g, [*((c, (rep,)) for c in kids), (rep, parents)])

    def collect_merge_list(self, t: int, s: int) -> list[int]:
        """Every component on some t-to-s path, with ``s`` first and ``t``
        last; empty when ``t`` does not reach ``s``.

        One two-way search (``_two_way``, forward from ``t`` and backward
        from ``s``) both detects the cycle and finds the merge set; the
        caller has seen ``t``'s label hold ``s``'s.  ``insert_edge`` does
        not call it for a cycle that ``_closes_two_cycle`` settles, where
        it would return ``[s, t]``.
        Without a hub it runs until one side runs out of nodes: that side
        has found everything on a t-to-s path, and it has met the far
        endpoint iff there is one; the merge set is read off the links
        that side recorded, from the far endpoint back to its start.  With
        a hub ``H`` both sides run dry, and the merge set is read off the
        links of both, back from ``s``, ``t`` and ``H``: the forward links
        lead back from ``s`` and ``H`` to ``t``, the backward ones from ``t``
        and ``H`` to ``s``.
        """
        _, _, _, (links, starts) = self._two_way(t, s, keep=True)
        return self._read_off(links, starts, t, s)

    def _two_way(self, a: int, b: int, keep: bool) -> tuple[int, int, int, tuple | None]:
        """Search the condensation forward from ``a`` and backward from
        ``b``, skipping every node whose label, in one of its dimensions,
        is not inside ``a``'s or does not hold ``b``'s; no node on an
        a-to-b path fails.  Forward, only the test against ``b`` can
        fail, and backward only the one against ``a``.  The caller has
        tested the ends already (``IntervalLabeler.covers``): ``a``'s
        label holds ``b``'s, or there would be nothing to search.  Without
        ``keep`` (a query) the caller has also seen that ``a`` has a DAG
        child and ``b`` a DAG parent, and that no child of ``a`` is a
        parent of ``b``, so every a-to-b path has three edges or more; the
        search stays correct without that, and the merge search does not
        test it.  A node
        that passes but has no edge onward on that side is skipped
        unmarked: it is not the goal, which is marked from the start, so
        no a-to-b path passes it.  In a
        BA graph most parents of the giant component are sources, so the
        side that expands the giant finds only the few that lead on.

        Without ``keep`` the search stops when one side reaches a node the
        other has found, which certifies a path, or when one side runs out
        of nodes.  With ``keep`` each side finds the other's nodes as its
        own and records, per found node, the found nodes it was reached
        from; the other side's start is recorded but never expanded, since
        nothing past it lies on an a-to-b path.

        The hub, under ``keep``.  A node that both sides have found lies on
        an a-to-b path.  When a side is about to expand such a node that is
        not a start and that the other side has not expanded, the node
        becomes the search's one hub ``H``, and neither side expands
        it.  Without a hub the search stops when one side runs out of
        nodes, and that side's found set holds every node on an a-to-b
        path.  Once there is a hub the search runs until both sides run
        out, and the a-to-b nodes are read off both sides' links back from
        ``b``, ``a`` and ``H`` (``_read_off``).  That is complete.  Take any
        a-to-b path.  If it avoids ``H``, the forward side expands all of
        it but ``b``, since only ``H`` is skipped, so the forward links
        lead back along it from ``b``.  If it passes ``H``, the segment
        a..H is found forward and the segment H..b backward, so the links
        lead back from ``H`` along both.  The giant component in the middle
        of a small merge set is so found by both sides and scanned by
        neither.  Skipping more than one node on both sides is unsound:
        take a -> z -> Y -> z' -> b, z -> q -> b and a -> r -> z'.  Both
        sides find z (backward through q) and z' (forward through r), and
        if neither side expanded either, ``Y`` would be found by neither.

        The sides are balanced by edges.  The side with fewer edges known
        to be left (those of its found, unexpanded nodes) expands next,
        unless its edges scanned plus left exceed twice the other side's.
        A node of high degree at either end is so expanded only when the
        other side has as much left.  Without ``keep``, one in the middle,
        which both sides must pass, is usually expanded once: the side that
        expanded it has little left and finishes or meets the other first;
        with ``keep`` it is usually the hub.  Until a side
        runs dry, its scanned plus left edges never exceed what it needs
        to run dry, so the search scans at most about three times the
        edges of the cheaper one-way search, plus one node's degree; once
        there is a hub, each side scans at most its own one-way search
        that stops at ``H``.

        Returns (dry, visited, pruned, read): the side that ran out of
        nodes (0 forward, 1 backward, 2 both after a hub; -1 when the
        sides met), one plus the nodes either side found other than ``a``
        and ``b``, the failed label tests, and under ``keep`` the links to
        read the a-to-b nodes off and the nodes to read them from (None
        without ``keep``).  Those are the dry side's links and the far
        endpoint, or no node when that side did not reach it; after a hub,
        both sides' links and ``b``, ``a`` and ``H``.
        """
        # Per dimension: the columns, then the bounds of b and e between
        # the labels of a and b.  One loop below tests them at every k
        # (none at k 0).
        dims = [(bcol, ecol, bcol[a], bcol[b], ecol[b], ecol[a]) for bcol, ecol in self.labeler._cols]
        g = self.graph
        vis = g._vis
        base = g._stamp  # marks above base belong to this search
        both = g._stamp = base + 3
        vis[a] = base + 1
        vis[b] = base + 2
        # Per side: found nodes in order, adjacency followed, own mark,
        # the other side's mark, the other side's start, links.
        sides = (
            ([a], g._out_d, base + 1, base + 2, b, {a: []} if keep else None),
            ([b], g._in_d, base + 2, base + 1, a, {b: []} if keep else None),
        )
        found_a, found_b = sides[0][0], sides[1][0]
        pos = [0, 0]
        cost = [0, 0]  # edges and nodes scanned
        left = [len(g._out_d[a]), len(g._in_d[b])]  # edges of found, unexpanded nodes
        pruned = 0
        hub = None
        done: set[int] = set()  # nodes expanded by either side, under keep
        while True:
            if pos[0] == len(found_a) or pos[1] == len(found_b):
                dry = 0 if pos[0] == len(found_a) else 1
                visited = len(found_a) + len(found_b) - 1
                if hub is None:
                    if not keep:
                        return dry, visited, pruned, None
                    goal, links = sides[dry][4:]
                    return dry, visited, pruned, ((links,), (goal,) if goal in links else ())
                if dry == 0 and pos[1] == len(found_b):
                    return 2, visited, pruned, ((sides[0][5], sides[1][5]), (b, a, hub))
                side = 1 - dry
            else:
                side = 0 if left[0] <= left[1] else 1
                if cost[side] + left[side] > 2 * (cost[1 - side] + left[1 - side]):
                    side = 1 - side
            found, adj, own, other, goal, links = sides[side]
            w = found[pos[side]]
            pos[side] += 1
            nbrs = adj[w]
            left[side] -= len(nbrs)
            if keep:
                if w == hub or (hub is None and vis[w] == both and w != found[0] and w not in done):
                    hub = w
                    continue
                done.add(w)
            cost[side] += len(nbrs) + 1
            for c in nbrs:
                m = vis[c]
                if m <= base:
                    ok = True
                    for bcol, ecol, bd_lo, bd_hi, ed_lo, ed_hi in dims:
                        if not (bd_lo <= bcol[c] <= bd_hi and ed_lo <= ecol[c] <= ed_hi):
                            ok = False
                            break
                    if not ok:
                        pruned += 1
                        continue
                    if not adj[c]:
                        continue  # a dead end: not the goal, which is marked
                    vis[c] = own
                    if keep:
                        links[c] = [w]
                elif m != other:
                    if keep:
                        links[c].append(w)
                    continue
                elif not keep:
                    return -1, len(found_a) + len(found_b) - 1, pruned, None
                else:
                    vis[c] = both
                    links[c] = [w]
                    if c == goal:
                        continue
                found.append(c)
                left[side] += len(adj[c])

    @staticmethod
    def _read_off(
        links: Sequence[dict[int, list[int]]], starts: Sequence[int], t: int, s: int
    ) -> list[int]:
        """The nodes on a t-to-s path, walking back from ``starts`` along
        the links of every dict in ``links`` (``_two_way``'s read); ordered
        ``s`` first, ``t`` last, and empty without a start.

        Every step stays on a t-to-s path: a forward link leads from a
        node on one to a node that ``t`` reaches and that reaches it, and a
        backward link to a node that it reaches and that reaches ``s``."""
        if not starts:
            return []
        seen = {s, t, *starts}
        middle = [x for x in starts if x != s and x != t]
        stack = list(starts)
        while stack:
            x = stack.pop()
            for found in links:
                for y in found.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        middle.append(y)
                        stack.append(y)
        return [s, *middle, t]

    # ------------------------------------------------------------------
    # edge deletion

    def delete_edge(self, u: int, v: int) -> None:
        """Delete input edge (u, v), splitting its component if that was
        the last internal connection.  Inter-component removals only
        adjust multiplicities; labels are never shrunk.  An edge inside a
        component without trees first gives it trees rooted at ``u``,
        while the component is still strongly connected.  Each endpoint's
        component is looked up once, before the edge goes: a self-loop
        then leaves the condensation as it is, and an edge between two
        components drops one witness of their DAG edge."""
        g = self.graph
        su = g.input_slot(u)
        sv = g.input_slot(v)
        s = g._find(su)
        t = g._find(sv)
        inside = s == t and su != sv
        if inside and s not in g._trees:
            g._plant_trees(s, su)
        g.remove_input_edge(su, sv)
        if inside:
            self._split(s, (su,), (sv,))
        elif s != t:
            g._dec_dag_edge(s, t)

    def _split(self, s: int, tails: Sequence[int], heads: Sequence[int]) -> None:
        """Split SCC ``s`` after the removal of internal edges with these
        tails and heads, and relabel the pieces.  ``s``'s label columns
        are not touched by the split itself, so the remnant's label is
        read from them (``IntervalLabeler.relabel_split``)."""
        split = self.extract_components(s, tails, heads)
        if split is None:
            return
        keep, comps = split
        clist = self.graph.apply_split(s, keep, comps)
        self.labeler.ensure_capacity(self.graph.capacity - 1)
        self.labeler.relabel_split(self.graph, clist, s)

    def extract_components(
        self, s: int, tails: Sequence[int], heads: Sequence[int]
    ) -> tuple[int, list[list[int]]] | None:
        """Find the components that break off SCC ``s`` once internal
        edges with these tails and heads (``tails[i]`` to ``heads[i]``)
        are gone.

        ``s`` must hold an out-tree and an in-tree from its member
        ``root`` (``SccGraph`` keeps them, see its module docstring; both
        callers plant them first), else ``LogicError``.  The remnant ``R``
        starts as all of ``s``.  An item ``(x, forward)`` is a slot whose
        parent edge in the in-tree (``forward``) or the out-tree is gone:
        the head of a removed edge that was its out-tree parent edge, the
        tail of one that was its in-tree parent edge, every pending input
        (in both trees), and, when a set ``D`` detaches, the slots of
        ``R`` whose parent is in ``D``.  A deleted node is the tail of its
        in-tree parent edge, and its tree children are heads and tails of
        its other edges.  An item's parent is unset at once, and the item
        then re-hangs (``_rehang``): it takes as its new parent the first
        neighbour (an in-neighbour in the out-tree, an out-neighbour in
        the in-tree) whose parent chain reaches the root without meeting
        a slot whose parent is unset, the item among them, or a slot not
        in ``R``.  An item that finds no such neighbour waits, and is
        tried again once another item has re-hung, since its parent may
        be one of them.  Only the items that
        still find none race the root: a search from ``x`` and one from
        the root, in opposite directions and inside ``R``, take turns by
        edges scanned (``_race``).  When ``x``'s search runs dry first,
        its closed set ``D`` misses the root and is a union of final
        components.  ``D`` leaves ``R`` and is decomposed on its own: a
        lone node is its own component, a larger set goes through a
        Tarjan restricted to it.

        The trees' generation ``gen`` is the one record of ``R``: a slot
        is in ``R`` iff ``tgen`` holds ``gen``.  The members that are not
        pending hold it already (the trees span exactly them), the
        pending inputs take it before any re-hang or race, and a slot
        that detaches takes 0, so leaving ``R`` is that one write.  No
        other slot holds ``gen``: a generation is handed out once and
        never reused after its trees drop.  So the re-hangs, the races,
        the skip of a waiting item that has detached, and the fallback
        below each read one list entry per slot.

        That is complete.  A remaining member's tree path can only break
        at a removed edge or a detached slot, and the first break below
        the root on that path is an item.  So when no item is left every
        parent link in ``R`` is an edge of ``R``, and none closes a cycle,
        as a new parent's chain reached the root without meeting the
        item: every member of ``R`` is reached from the root and reaches
        it.

        The trees give up when the root has lost every edge on one side
        (it breaks off; a deleted root has lost all), when the root's
        side of a race runs dry, and when an item that found no parent
        meets the root (its chain passes another item that found none).
        Then what is left of ``s``, the slots of the trees' generation,
        is decomposed by one Tarjan restricted to it, which is exact.
        Its largest piece is the remnant, a tie between lone nodes going
        to the root, or to the first head when the root broke off: a
        live slot, as a deleted node has no edge left and so is a lone
        node, and is neither.  The trees are dropped, and the next
        internal deletion plants new ones.

        Cost: a race that runs dry has scanned about as many edges on the
        other side as its closed set holds, so a deletion costs in
        proportion to the edges of the pieces that break off, plus the
        re-hangs' chain walks, plus the races; only when the trees give
        up is the remnant enumerated, by a scan of every slot's
        generation and the Tarjan.

        Returns a slot of the remnant and the detached components, each
        after every one that is its DAG child; None when nothing breaks
        off.  That order needs no search.  A set closed forward has no
        edge to what is left, so it goes before every piece found later;
        a set closed backward has no edge from it, so it goes after them.
        So the sets closed forward come in the order they detach, then the
        fallback's pieces, then the sets closed backward in reverse detach
        order, each set's pieces in Tarjan's completion order, which is
        reverse topological (Tarjan, SIAM J. Comput. 1972): every block
        goes in at ``mid``, which only a set closed forward moves past
        itself.
        """
        g = self.graph
        parent, find = g._parent, g._find
        for x in (*tails, *heads):
            if parent[x] != s and find(x) != s:
                raise LogicError(f"slot {x} is not a member of component {s}")
        try:
            root, gen, pending = g._trees.pop(s)  # put back at the end if kept
        except KeyError:
            raise LogicError(f"component {s} has no trees") from None
        out_i, in_i = g._out_i, g._in_i
        tout, tin, tgen = g._tout, g._tin, g._tgen
        queue = []
        for t, h in zip(tails, heads):
            if tout[h] == t:
                tout[h] = -1
                queue.append((h, False))
            if tin[t] == h:
                tin[t] = -1
                queue.append((t, True))
        for x in pending:
            tgen[x] = gen
            tout[x] = tin[x] = -1
            queue += ((x, False), (x, True))
        waiting: list[tuple[int, bool]] = []  # items that found no parent
        comps: list[list[int]] = []
        mid = 0  # where the next block goes: after the sets closed forward
        held = bool(out_i[root] and in_i[root])  # the root has not broken off
        while held:
            if queue:
                waiting = self._rehang(queue, waiting, s, root, gen)
                queue = []
            if not waiting:
                g._trees[s] = (root, gen, [])
                return (root, comps) if comps else None
            x, forward = waiting.pop()
            if tgen[x] != gen:
                continue
            closed = self._race(x, root, gen, out_i if forward else in_i, in_i if forward else out_i)
            if closed is None:  # met without a parent, or the root's side ran dry
                break
            for y in closed:
                tgen[y] = 0
            block = [closed] if len(closed) == 1 else g._tarjan(closed)
            comps[mid:mid] = block
            if forward:
                mid += len(block)
            # A closed set reached forward only has edges in from R, which
            # may be in-tree links; one reached backward only has edges out
            # to R, which may be out-tree links.  A slot outside R may keep
            # a stale link, so only the trees' generation counts.
            links, adj = (tin, in_i) if forward else (tout, out_i)
            for y in closed:
                for w in adj[y]:
                    if links[w] == y and tgen[w] == gen:
                        links[w] = -1
                        queue.append((w, forward))
        # The trees give up: decompose what is left of s.
        left = [y for y, t in enumerate(tgen) if t == gen]
        pieces = g._tarjan(left)
        a = root if held else heads[0]  # live: a deleted node has lost every edge
        kept = max(pieces, key=lambda c: (len(c), c[0] == a))
        pieces.remove(kept)
        comps[mid:mid] = pieces
        return (kept[0], comps) if comps else None

    def _rehang(self, queue: list, waiting: list, s: int, root: int, gen: int) -> list[tuple[int, bool]]:
        """Give each item of ``queue`` whose parent is unset a new parent
        (``extract_components``), trying ``waiting`` again after any
        re-hangs; returns the items still waiting.

        An item ``(x, forward)`` of the in-tree (``forward``) takes the
        first out-neighbour, one of the out-tree the first in-neighbour,
        whose chain of parents in that tree reaches ``root`` through slots
        of generation ``gen`` with their parent set.  An item that has
        left the remnant (its generation is no longer ``gen``) is skipped.
        ``x``'s own parent is unset, so a chain through ``x``, from one of
        its descendants, fails: no link closes a cycle.  A chain of the trees visits each
        member of ``s`` at most once, so a walk of more links than ``s``
        has members has met a cycle the trees should never hold, and
        raises ``InternalError`` instead of walking it forever."""
        g = self.graph
        out_i, in_i, tout, tin, tgen = g._out_i, g._in_i, g._tout, g._tin, g._tgen
        limit = g._size[s]
        while queue:
            hung = False
            for item in queue:
                x, forward = item
                links = tin if forward else tout
                if tgen[x] != gen or links[x] != -1:
                    continue
                for q in (out_i if forward else in_i)[x]:
                    z = q
                    walk = limit
                    while z != root and z != -1 and tgen[z] == gen:
                        if not walk:
                            raise InternalError(
                                f"the {'in' if forward else 'out'}-tree chain from slot {q} in component {s}"
                                f" passes more than {limit} links: it holds a cycle"
                            )
                        walk -= 1
                        z = links[z]
                    if z == root:
                        links[x] = q
                        hung = True
                        break
                else:
                    waiting.append(item)
            if not hung:
                break
            queue, waiting = waiting, []
        return waiting

    def _race(self, x: int, root: int, gen: int, x_adj: list, root_adj: list) -> list[int] | None:
        """Search from the item ``x`` along ``x_adj`` and from the trees'
        ``root`` along ``root_adj`` over the slots of generation ``gen``,
        which are the remnant (``extract_components``), expanding one node
        at a time on the side that has scanned fewer edges.  Returns the
        nodes ``x``'s side found when it runs out of nodes first, a set
        then closed under ``x_adj``; None when the searches meet or the
        root's side runs out first, which the trees cannot settle.  An
        item is never the root, whose tree parents are unset."""
        g = self.graph
        tgen, vis = g._tgen, g._vis
        mine = g._stamp + 1
        theirs = g._stamp = mine + 1
        vis[x] = mine
        vis[root] = theirs
        sides = (([x], x_adj, mine, theirs), ([root], root_adj, theirs, mine))
        pos = [0, 0]
        cost = [0, 0]
        while True:
            if pos[0] == len(sides[0][0]):
                return sides[0][0]
            if pos[1] == len(sides[1][0]):
                return None
            side = 0 if cost[0] <= cost[1] else 1
            found, adj, own, other = sides[side]
            w = found[pos[side]]
            pos[side] += 1
            nbrs = adj[w]
            cost[side] += len(nbrs) + 1
            for c in nbrs:
                m = vis[c]
                if m == own:
                    continue
                if m == other:
                    return None
                if tgen[c] == gen:
                    vis[c] = own
                    found.append(c)

    # ------------------------------------------------------------------
    # node insertion / deletion

    def insert_node(
        self, u: int, out_edges: Sequence[int] = (), in_edges: Sequence[int] = ()
    ) -> None:
        """Add a fresh node with its incident edges.

        The node starts as its own singleton component, in a fresh slot
        with the empty label (``IntervalLabeler.ensure_capacity``).  A
        component that holds both an in- and an out-neighbour lies on a
        cycle through the node, so the node first joins the largest such
        component ``C`` (``_merge``), before any edge.  The node has no
        edge yet, so the merge moves nothing and runs no search, and ``C``
        keeps its label and no ``propagate`` runs (a lone input node ``C``
        gets a fresh component, which the merge's ``propagate`` labels over
        ``C``'s DAG edges).  Only one component joins
        this way: two of them may have a path between them through
        components that the node's edges do not touch.  Then each
        out-edge, then each in-edge, runs through ``insert_edge``; those
        into ``C`` change nothing, and the rest may change labels or merge.
        """
        g = self.graph
        x = g.add_input_node(u, (*out_edges, *in_edges))
        self.labeler.ensure_capacity(g.capacity - 1)
        heads = {g._find(g._slot[w]) for w in out_edges if w != u}
        joint = [c for c in (g._find(g._slot[w]) for w in in_edges if w != u) if c in heads]
        if joint:
            self._merge([max(joint, key=g._size.__getitem__), x])
        for w in out_edges:
            self.insert_edge(u, w)
        for w in in_edges:
            self.insert_edge(w, u)

    def delete_node(self, u: int) -> None:
        """Remove a node with all incident edges.

        Every incident edge leaves the input layer at once
        (``SccGraph.remove_input_edges_at``); then each, out-edges first,
        is unlinked as ``delete_edge`` unlinks one, with only its far end
        looked up, since the node's own component ``s`` is known.  The
        component is not split per edge: when the node sat in a multi-node
        component, that component is split once, over every internal edge
        removed.  The node is then a lone, edge-free piece and is dropped.
        A multi-node component without trees first gets them, rooted at
        the node's first out-neighbour inside it, as ``delete_edge`` does.
        """
        g = self.graph
        find, dec = g._find, g._dec_dag_edge
        x = g.input_slot(u)
        s = find(x)
        if s != x and s not in g._trees:
            g._plant_trees(s, next(y for y in g._out_i[x] if y != x and find(y) == s))
        outs, ins = g.remove_input_edges_at(x)
        inner = []
        for y in outs:
            if y != x:
                t = find(y)
                if t == s:
                    inner.append((x, y))
                else:
                    dec(s, t)
        for w in ins:  # holds no self-loop
            t = find(w)
            if t == s:
                inner.append((w, x))
            else:
                dec(t, s)
        if inner:
            tails, heads = zip(*inner)
            self._split(s, tails, heads)
        g.remove_input_node(x)

    # ------------------------------------------------------------------
    # views

    def find(self, u: int) -> int:
        """Component handle of the input node with external id ``u``."""
        g = self.graph
        return g.find_scc(g.input_slot(u))

    def label_of(self, s: int) -> Label:
        self.graph._check_current(s)
        return self.labeler.label_of(s)

    def scc_partition(self) -> set[frozenset[int]]:
        """Current partition of the input nodes into components."""
        groups: dict[int, list[int]] = defaultdict(list)
        find = self.graph._find
        for u, slot in self.graph._slot.items():
            groups[find(slot)].append(u)
        return {frozenset(members) for members in groups.values()}

    def census(self) -> dict[str, int]:
        """Headline sizes: input nodes/edges, DAG nodes, largest SCC."""
        g = self.graph
        dag_nodes = g.current_dag_nodes()
        return {
            "nodes": g.num_input_nodes,
            "edges": g.num_input_edges,
            "dag_nodes": len(dag_nodes),
            "largest_scc": max((g._size[s] for s in dag_nodes), default=0),
        }
