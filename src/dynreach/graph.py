"""Layered graph: input digraph, SCC condensation, and containment forest.

One structure holds three coupled layers:

* the input graph (adjacency over input nodes, set semantics on edges),
* the condensation DAG (one node per current SCC, edges carry the count of
  underlying input edges),
* containment links from input nodes and former SCC nodes up to the
  component that currently subsumes them.  The links form a union-find
  forest whose roots are exactly the current DAG nodes.

The input layer keeps, per input slot, two plain lists: its out- and
its in-neighbours, each in the order the edges were added (the first
occurrence, for duplicates in ``build``), every edge once.  Removing an
edge keeps the order of the rest, so every walk over the input layer
(Tarjan, the extraction races, the splits) sees its neighbours in one
fixed order, which fixes the labels a seed gives.  A list costs far less
memory than a set for the few neighbours most nodes have; the price is
that membership scans the shorter of the two lists an edge sits in, and
removal pays one scan of each list (``list.remove``), so its cost
follows the endpoints' degrees.  Deleting a node removes it from each
neighbour's list and drops its own two lists whole.  ``build`` writes
this layer in its first step, ``_input_layer``, which is also all that
the ``dfs`` baseline (``bench.DfsBaseline``) builds.

A single-node SCC is represented by the input node itself; a condensation
node is allocated only for components of two or more nodes.  Every DAG
edge, between singletons too, is stored in one adjacency (``_out_d`` and
its mirror ``_in_d``) with its multiplicity, so walks over the
condensation never consult the input layer.  Only ``build`` (which
counts each DAG edge's multiplicity in one pass), ``_add_dag_edge``,
``_dec_dag_edge`` and ``_move_dag_edges`` write that adjacency.  Each
side is a mapping: the shared, read-only ``_NO_EDGES`` until its first
edge, then a dict of the slot's own, which its last edge leaves empty.
Only ``build`` and ``_add_dag_edge`` test for ``_NO_EDGES``, to swap in
that dict; every reader takes a side as it is.

Every multi-node SCC can hold an out-tree and an in-tree of
breadth-first parent links from one root, its member ``root``: per
slot, ``_tout`` names an in-neighbour (a path from the root reaches the
slot through it) and ``_tin`` an out-neighbour (the slot reaches the root
through it), each an input edge inside the component, and ``_tgen`` the
generation of the trees the slot belongs to.  ``_trees`` maps a component
with trees to ``(root, generation, pending)``; a slot is in them only
while its generation matches, so trees are dropped by dropping their
entry.  ``pending`` lists the lone inputs that joined the component since
its last internal deletion, and are in no tree yet.  So the slots of a
generation are the members that are not pending, and no slot holds it
again once its trees drop.  An extraction first gives the pending
inputs the generation, and gives a slot that breaks off generation 0:
within it, the generation is membership.  ``build`` gives
trees to the SCC of the node of highest degree; the index gives them to
any other component at its first internal deletion and keeps them
through its deletions (``ReachabilityIndex.extract_components``).  A
merge that absorbs a multi-node SCC drops them, as do a split that
leaves one node and a deletion the trees cannot certify (the root
breaks off, or a search from the root runs dry or meets a slot that
found no parent), which decomposes what is left with a Tarjan instead.

Every node lives in a slot of one dense internal id space.  Callers name
input nodes by external ids, which the graph maps to slots in exactly one
place: ``build`` gives input ``u`` slot ``u``, and every later input and
every SCC node takes the next fresh slot, so slots are never reused.  Only
``input_slot``, ``add_input_node``, ``external_id``, ``input_node_ids``
and ``input_edges`` speak external ids; every other method takes and
returns slots.  ``ReachabilityIndex.reachable`` also reads ``_slot``
directly, so that a query stays in one frame, as does
``ReachabilityIndex.scc_partition``.
"""
from __future__ import annotations

import sys
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from .errors import InputError, InternalError, LogicError

_NONE = -1
# Tarjan's mark of a node whose SCC is complete: above every index and low-link.
_DONE = sys.maxsize
_NO_EDGES = MappingProxyType({})  # a DAG side that never had an edge; writes raise TypeError


class SccGraph:
    """Mutable layered graph over a dense integer slot space.

    Input nodes and SCC nodes share one slot space; a new slot is
    appended to every per-slot array and never reused.  A dict maps the
    external id of every live input node to its slot; ``_ext`` is its
    inverse.  Slots and the component handles returned by lookups are
    internal and should be treated as opaque.

    A slot's containment link (``_parent``), size and external id say
    all there is about it:

    * a live input has an external id (``_ext[x] != -1``) and size 1;
    * a current component, a DAG node, has a size above 0 and no link:
      a lone input, or an SCC node of two or more members;
    * an SCC node merged away, or dissolved to its one remaining member
      ``keep`` by a split, links to the node that took it over;
    * a removed input has size 0 and no link, and is unknown to every
      lookup.

    A DAG side without edges is ``_NO_EDGES`` or an emptied dict; an SCC
    node merged away or dissolved gets ``_NO_EDGES`` back.

    Not thread-safe: lookups compress containment paths.
    """

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise InputError(f"negative node count {num_nodes}")
        self._parent: list[int] = [_NONE] * num_nodes
        self._size: list[int] = [1] * num_nodes
        # External id -> slot for every live input, and its inverse
        # (-1 for SCC and dead slots).
        self._slot: dict[int, int] = {u: u for u in range(num_nodes)}
        self._ext: list[int] = list(self._slot)  # shares the keys' int objects
        # Input-layer adjacency: per input slot, its out- and in-neighbours
        # in insertion order, each edge once; None for other slots.  A
        # membership test scans the shorter list of the edge's two, a
        # removal scans both (see the module docstring).
        self._out_i: list[list[int] | None] = [[] for _ in range(num_nodes)]
        self._in_i: list[list[int] | None] = [[] for _ in range(num_nodes)]
        # Explicit DAG adjacency with input-edge multiplicities.
        self._out_d: list[Mapping[int, int]] = [_NO_EDGES] * num_nodes
        self._in_d: list[Mapping[int, int]] = [_NO_EDGES] * num_nodes
        # Spanning trees (see the module docstring): per slot the out- and
        # in-tree parent (-1: unset) and the trees' generation (0: none);
        # per component with trees (root, generation, pending inputs).
        self._tout: list[int] = [_NONE] * num_nodes
        self._tin: list[int] = [_NONE] * num_nodes
        self._tgen: list[int] = [0] * num_nodes
        self._trees: dict[int, tuple[int, int, list[int]]] = {}
        self._gen = 0  # the last generation handed out

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, edges: Iterable[tuple[int, int]], num_nodes: int | None = None) -> "SccGraph":
        """Build the layered graph from an edge list.

        The node universe is ``[0, max(num_nodes, max id + 1))``.  Duplicate
        edges collapse (set semantics); self-loops are kept in the input
        layer but never influence the condensation.

        The SCC of ``r``, the node of highest in- plus out-degree (the
        smallest id on ties), is found first, by a forward breadth-first
        search from ``r`` and then a backward one restricted to the nodes
        the forward one found (``_grow_trees``): the nodes both find are
        ``r``'s SCC, and the two searches' parent links, restricted to
        it, are its out- and in-tree, since a tree path to a member only
        passes members.  Restricting the backward search keeps it among
        the descendants of ``r``, which are few when ``r`` lies on no
        cycle.  That SCC takes the first SCC slot, and its members enter
        Tarjan already marked complete, so Tarjan finds the other SCCs
        only, numbered after it in completion order.
        """
        g = cls._input_layer(edges, num_nodes)
        n = g.capacity
        out_i = g._out_i
        low = [0] * n
        if n:
            deg = [a + b for a, b in zip(map(len, out_i), map(len, g._in_i))]
            members = g._grow_trees(deg.index(max(deg)), _NONE)
            if len(members) > 1:
                s = g._new_slot(len(members))
                g._trees[s] = (members[0], g._gen, [])
                for m in members:
                    g._parent[m] = s
                    low[m] = _DONE
        for comp in g._tarjan(range(n), low):
            if len(comp) > 1:
                s = g._new_slot(len(comp))
                for m in comp:
                    g._parent[m] = s
        # DAG edges with their multiplicities, counted in one pass in the
        # order ``_add_dag_edge`` would have stored them.  The loop is inline
        # because a call per edge costs: through ``_add_dag_edge`` the build
        # of a 100k-node acyclic BA graph took 289-310 ms instead of
        # 278-299 ms (five alternating runs, 2-core Xeon); with one large
        # SCC, and so fewer DAG edges, it did not move.
        parent, out_d, in_d = g._parent, g._out_d, g._in_d
        for u in range(n):
            s = parent[u]
            if s == _NONE:
                s = u
            od = out_d[s]
            for v in out_i[u]:
                t = parent[v]
                if t == _NONE:
                    t = v
                if s != t:
                    if od is _NO_EDGES:
                        od = out_d[s] = {}
                    od[t] = od.get(t, 0) + 1
                    ind = in_d[t]
                    if ind is _NO_EDGES:
                        ind = in_d[t] = {}
                    ind[s] = ind.get(s, 0) + 1
        return g

    @classmethod
    def _input_layer(cls, edges: Iterable[tuple[int, int]], num_nodes: int | None) -> "SccGraph":
        """``build``'s first step: a graph whose input layer holds ``edges``
        in first-occurrence order, and which has no component yet."""
        edges = dict.fromkeys(edges)  # set semantics, in first-occurrence order
        n = num_nodes or 0
        if n < 0:  # checked here, as an edge may raise ``n`` above 0
            raise InputError(f"negative node count {n}")
        for u, v in edges:
            if u < 0 or v < 0:
                raise InputError(f"negative node id in edge ({u}, {v})")
            m = u if u > v else v
            if m >= n:
                n = m + 1
        g = cls(n)
        out_i, in_i = g._out_i, g._in_i
        for u, v in edges:
            out_i[u].append(v)
            in_i[v].append(u)
        return g

    def _grow_trees(self, r: int, s: int) -> list[int]:
        """Give ``r``'s SCC, inside component ``s`` (or over the whole
        input layer when ``s`` is -1, before there are components), an
        out-tree and an in-tree rooted at ``r`` in a fresh generation.

        A forward breadth-first search from ``r`` marks the nodes it finds
        with one new generation and links each to the node it was found
        from (``_tout``); a backward one over the marked nodes only moves
        each node it finds on to the next generation, the trees' own, and
        links it to the node it was found from (``_tin``).  Returns the
        nodes the backward search found, ``r`` first: ``r``'s SCC.  The
        nodes only the forward search found keep a generation no trees
        use.
        """
        out_i, in_i = self._out_i, self._in_i
        tout, tin, tgen = self._tout, self._tin, self._tgen
        parent, find = self._parent, self._find
        fwd = self._gen + 1
        gen = self._gen = fwd + 1
        tgen[r] = fwd
        tout[r] = tin[r] = _NONE
        found = [r]
        for w in found:
            for c in out_i[w]:
                # Before ``build`` makes components every link is -1 == s.
                if tgen[c] != fwd and (parent[c] == s or find(c) == s):
                    tgen[c] = fwd
                    tout[c] = w
                    found.append(c)
        tgen[r] = gen
        members = [r]
        for w in members:
            for c in in_i[w]:
                if tgen[c] == fwd:
                    tgen[c] = gen
                    tin[c] = w
                    members.append(c)
        return members

    def _plant_trees(self, s: int, r: int) -> None:
        """Give the multi-node SCC ``s`` trees rooted at its member ``r``;
        they span it, as it is strongly connected."""
        self._grow_trees(r, s)
        self._trees[s] = (r, self._gen, [])

    def _tarjan(
        self, roots: Iterable[int], low: list[int] | dict[int, int], restricted: bool = False
    ) -> list[list[int]]:
        """Iterative Tarjan over the input layer; SCCs in completion order.

        ``low`` maps every node the run may enter to 0 (a list over all
        slots, or a dict over a node set); with ``restricted``, nodes
        missing from ``low`` are not entered, so the run sees the subgraph
        that set induces.  One array serves for index, low-link and stack
        mark (Pearce, "A space-efficient algorithm for finding strongly
        connected components", IPL 2016): a node's entry holds its index
        when entered, then its low-link, and ``_DONE`` once its SCC is
        complete, which both marks it visited and keeps it out of every
        later low-link; each frame carries its node's own index.
        """
        out_i = self._out_i
        stack: list[int] = []
        comps: list[list[int]] = []
        counter = 1
        for root in roots:
            if low[root]:
                continue
            work: list[tuple[int, int, Iterator[int]]] = [(root, counter, iter(out_i[root]))]
            low[root] = counter
            counter += 1
            stack.append(root)
            while work:
                w, index, it = work[-1]
                for c in it:
                    if restricted and c not in low:
                        continue
                    lc = low[c]
                    if not lc:
                        low[c] = counter
                        work.append((c, counter, iter(out_i[c])))
                        counter += 1
                        stack.append(c)
                        break
                    if lc < low[w]:
                        low[w] = lc
                else:
                    work.pop()
                    lw = low[w]
                    if work:
                        p = work[-1][0]
                        if lw < low[p]:
                            low[p] = lw
                    if lw == index:
                        comp = []
                        while True:
                            x = stack.pop()
                            low[x] = _DONE
                            comp.append(x)
                            if x == w:
                                break
                        comps.append(comp)
        return comps

    # ------------------------------------------------------------------
    # id bookkeeping

    def _new_slot(self, size: int) -> int:
        """Append a slot of this size with no link, no external id and no
        edges; returns it."""
        s = len(self._parent)
        self._parent.append(_NONE)
        self._size.append(size)
        self._ext.append(-1)
        self._out_i.append(None)
        self._in_i.append(None)
        self._out_d.append(_NO_EDGES)
        self._in_d.append(_NO_EDGES)
        self._tout.append(_NONE)
        self._tin.append(_NONE)
        self._tgen.append(0)
        return s

    def add_input_node(self, u: int, endpoints: Iterable[int] = ()) -> int:
        """Register a fresh input node with external id ``u`` as a
        singleton component in the next fresh slot; returns the slot.

        Every id in ``endpoints`` other than ``u`` must name a live input
        node; all are checked before any change, so a node whose edges
        name an unknown node is never half inserted."""
        for w in endpoints:
            if w != u:
                self.input_slot(w)
        if u < 0:
            raise InputError(f"negative node id {u}")
        if u in self._slot:
            raise InputError(f"node id {u} already in use")
        slot = self._new_slot(1)
        self._ext[slot] = u
        self._out_i[slot] = []
        self._in_i[slot] = []
        self._slot[u] = slot
        return slot

    def remove_input_node(self, x: int) -> None:
        """Drop the isolated input node in slot ``x``.  Slots are never
        reused."""
        if not (0 <= x < len(self._ext)) or self._ext[x] == -1:
            raise InputError(f"slot {x} holds no input node")
        if self._out_i[x] or self._in_i[x]:
            raise LogicError(f"slot {x} still has incident edges")
        if self._parent[x] != _NONE:
            raise LogicError(f"slot {x} is still inside a component")
        self._size[x] = 0
        self._out_i[x] = self._in_i[x] = None
        del self._slot[self._ext[x]]
        self._ext[x] = -1

    # ------------------------------------------------------------------
    # basic views

    @property
    def num_input_nodes(self) -> int:
        return len(self._slot)

    @property
    def num_input_edges(self) -> int:
        """Counted over the out-lists, one pass over the slots."""
        return sum(map(len, filter(None, self._out_i)))

    @property
    def capacity(self) -> int:
        """One past the largest id ever allocated."""
        return len(self._parent)

    def input_slot(self, u: int) -> int:
        """Slot of the live input node with external id ``u``."""
        try:
            return self._slot[u]
        except KeyError:
            raise InputError(f"unknown input node {u}") from None

    def external_id(self, x: int) -> int:
        """External id of the input node in slot ``x``."""
        return self._ext[x]

    def is_current(self, x: int) -> bool:
        """True for current DAG nodes: slots with a size and no link."""
        return 0 <= x < len(self._parent) and self._parent[x] == _NONE and self._size[x] > 0

    def scc_size(self, s: int) -> int:
        if not self.is_current(s):
            raise LogicError(f"node {s} is not a current component")
        return self._size[s]

    def input_node_ids(self) -> list[int]:
        """External ids of all live input nodes, in slot order."""
        return list(self._slot)

    def current_dag_nodes(self) -> list[int]:
        size = self._size
        return [x for x, p in enumerate(self._parent) if p == _NONE and size[x]]

    def input_edges(self) -> Iterator[tuple[int, int]]:
        """Current input edges as external id pairs."""
        ext = self._ext
        for u, targets in enumerate(self._out_i):
            if targets:
                eu = ext[u]
                for v in targets:
                    yield (eu, ext[v])

    def has_input_edge(self, x: int, y: int) -> bool:
        """True when input edge (x, y) exists; scans the shorter of the
        two lists it would sit in."""
        ox, iy = self._out_i[x], self._in_i[y]
        return y in ox if len(ox) <= len(iy) else x in iy

    def _check_known(self, x: int) -> None:
        if not (0 <= x < len(self._parent)) or (self._parent[x] == _NONE and not self._size[x]):
            raise InputError(f"unknown node id {x}")

    def _check_current(self, x: int) -> None:
        if not self.is_current(x):
            raise LogicError(f"node {x} is not a current component")

    # ------------------------------------------------------------------
    # component lookup (union-find)

    def find_scc(self, x: int) -> int:
        """Current component of any known node, with path compression."""
        self._check_known(x)
        return self._find(x)

    def _find(self, x: int) -> int:
        """``find_scc`` without the check that ``x`` names a known node."""
        parent = self._parent
        root = x
        while parent[root] != _NONE:
            root = parent[root]
        while x != root:
            nxt = parent[x]
            parent[x] = root
            x = nxt
        return root

    # ------------------------------------------------------------------
    # input-layer edits (set semantics)

    def add_input_edge(self, x: int, y: int) -> bool:
        """Record edge (x, y) between input slots; False if already present."""
        if self.has_input_edge(x, y):
            return False
        self._out_i[x].append(y)
        self._in_i[y].append(x)
        return True

    def remove_input_edge(self, x: int, y: int) -> None:
        """Drop edge (x, y) between input slots, keeping the order of the
        other neighbours; one ``list.remove`` scan per endpoint.  The one
        missing-edge check: ``InputError``, by external ids, and no change."""
        try:
            self._out_i[x].remove(y)
        except ValueError:
            raise InputError(f"edge ({self._ext[x]}, {self._ext[y]}) does not exist") from None
        self._in_i[y].remove(x)

    def remove_input_edges_at(self, x: int) -> tuple[list[int], list[int]]:
        """Drop every input edge at slot ``x``; returns its former out- and
        in-neighbours in stored order, a self-loop among the out-neighbours
        only.

        ``x`` leaves each neighbour's list by one ``list.remove``, and its
        own two lists are replaced whole, so the cost follows the
        neighbours' degrees, not the square of ``x``'s.
        """
        out_i, in_i = self._out_i, self._in_i
        outs = out_i[x]
        ins = [w for w in in_i[x] if w != x]
        for y in outs:
            if y != x:
                in_i[y].remove(x)
        for w in ins:
            out_i[w].remove(x)
        out_i[x] = []
        in_i[x] = []
        return outs, ins

    # ------------------------------------------------------------------
    # DAG layer

    def dag_children(self, s: int) -> list[int]:
        """Distinct successor components of ``s``."""
        self._check_current(s)
        return list(self._out_d[s])

    def dag_parents(self, s: int) -> list[int]:
        """Distinct predecessor components of ``s``."""
        self._check_current(s)
        return list(self._in_d[s])

    def edge_multiplicity(self, s: int, t: int) -> int:
        """Number of input edges mapping onto DAG edge (s, t); 0 if absent."""
        self._check_current(s)
        self._check_current(t)
        return self._out_d[s].get(t, 0)

    def _add_dag_edge(self, s: int, t: int, mult: int) -> None:
        od = self._out_d[s]
        if od is _NO_EDGES:
            od = self._out_d[s] = {}
        od[t] = od.get(t, 0) + mult
        ind = self._in_d[t]
        if ind is _NO_EDGES:
            ind = self._in_d[t] = {}
        ind[s] = ind.get(s, 0) + mult

    def _dec_dag_edge(self, s: int, t: int) -> None:
        od = self._out_d[s]
        if t not in od:
            raise InternalError(f"no DAG edge ({s}, {t}) to drop an input edge from")
        left = od[t] - 1
        if left:
            od[t] = left
            self._in_d[t][s] = left
        else:
            del od[t]
            del self._in_d[t][s]

    # ------------------------------------------------------------------
    # merge

    def merge_components(self, members: Sequence[int]) -> tuple[int, list[int], list[int]]:
        """Collapse two or more current components into one.

        The member with the largest size (smallest id on ties) becomes the
        representative; when every member is a lone input node a fresh SCC
        node is allocated instead.  Every absorbed member gains a
        containment link to the representative, which inherits the union
        of everyone's external DAG edges (``_move_dag_edges``), so the
        cost follows the degrees of the members other than the
        representative.

        Returns the representative, then the external children and the
        external parents of the absorbed members (all members when the
        representative is fresh): the components whose DAG edges to or
        from the merged component are new.  The index restores label
        containment along exactly those edges, in one
        ``IntervalLabeler.propagate``.

        One pass over ``members`` checks that each is current, sums the
        sizes and picks the representative; a member that is not current
        raises ``LogicError`` before the check for duplicates.

        A representative with trees keeps them when every absorbed member
        is a lone input, which waits as pending until the next internal
        deletion hangs it in them.  Absorbing a multi-node SCC drops them,
        since its members are not enumerated, and drops the absorbed
        SCCs' own.
        """
        if len(members) < 2:
            raise LogicError("merge needs at least two components")
        parent, size = self._parent, self._size
        n = len(parent)
        rep = best = total = 0
        for m in members:
            z = size[m] if 0 <= m < n and parent[m] == _NONE else 0
            if not z:
                raise LogicError(f"node {m} is not a current component")
            total += z
            if z > best or (z == best and m < rep):
                rep, best = m, z
        merge_set = set(members)
        if len(merge_set) != len(members):
            raise LogicError("duplicate components in merge list")
        if best == 1:  # every member is a lone input
            rep = self._new_slot(0)
        size[rep] = total
        kids: dict[int, None] = {}
        parents: dict[int, None] = {}
        trees = self._trees
        held = trees.get(rep)
        for m in members:
            if m != rep:
                self._move_dag_edges(m, rep, merge_set, kids, parents)
                parent[m] = rep
                if size[m] > 1:
                    trees.pop(m, None)
                    held = None
                elif held:
                    held[2].append(m)
        if held is None:
            trees.pop(rep, None)
        return rep, list(kids), list(parents)

    def _move_dag_edges(
        self, m: int, rep: int, inside: Container[int], kids: dict[int, None], parents: dict[int, None]
    ) -> None:
        """Hand every DAG edge of ``m`` to ``rep`` with its multiplicity,
        dropping those to or from ``inside``, record the far ends moved in
        ``kids`` and ``parents``, and give ``m`` back ``_NO_EDGES`` on both sides.

        Every edge also leaves the far end's mirror, so when a merge moves
        its members in turn, a member's edges to members already absorbed
        were dropped when those moved, and no internal edge survives.  The
        cost follows the degree of ``m``, so a merge's follows the
        absorbed members' degrees, never the representative's.
        """
        out_d, in_d = self._out_d, self._in_d
        for t, mu in out_d[m].items():
            del in_d[t][m]
            if t not in inside:
                self._add_dag_edge(rep, t, mu)
                kids[t] = None
        for src, mu in in_d[m].items():
            del out_d[src][m]
            if src not in inside:
                self._add_dag_edge(src, rep, mu)
                parents[src] = None
        out_d[m] = in_d[m] = _NO_EDGES

    # ------------------------------------------------------------------
    # split

    def apply_split(self, s: int, keep: int, comps: Sequence[Sequence[int]]) -> list[int]:
        """Detach the components that broke off SCC ``s``.

        ``comps`` lists the member slots of each detached component; the
        remnant is the rest of ``s``, which holds the slot ``keep``.  It
        keeps the node ``s`` unless it shrinks to ``keep`` alone, in which
        case ``s``'s remaining DAG edges go to ``keep`` and ``s`` links to
        ``keep``, and ``s``'s trees are dropped.  Only the detached
        members' incident edges are touched, so the cost follows their
        degrees, not the remnant's size; taking the detached members out
        of the trees is the caller's
        (``ReachabilityIndex.extract_components``).  Returns the new
        component ids in ``comps``' order, followed by the remnant id.
        """
        if not self.is_current(s) or self._size[s] < 2:
            raise LogicError(f"node {s} is not a current multi-node component")
        parent, size = self._parent, self._size
        out_i, in_i = self._out_i, self._in_i
        find = self._find
        detached: set[int] = set()
        new_ids: list[int] = []
        for members in comps:
            detached.update(members)
            if len(members) == 1:
                x = members[0]
                parent[x] = _NONE
                new_ids.append(x)
            else:
                c = self._new_slot(len(members))
                for m in members:
                    parent[m] = c
                new_ids.append(c)
        remaining = size[s] - len(detached)
        if remaining < 1 or keep in detached:
            raise InternalError("split does not leave the kept node behind")
        if remaining == 1:
            parent[keep] = _NONE
            remnant = keep
            self._trees.pop(s, None)
        else:
            size[s] = remaining
            remnant = s
        split_ids = set(new_ids)
        split_ids.add(remnant)

        for members, cid in zip(comps, new_ids):
            for x in members:
                for y in out_i[x]:
                    fy = find(y)
                    if fy != cid:
                        if fy not in split_ids:  # external: the old (s, fy) edge loses one witness
                            self._dec_dag_edge(s, fy)
                        self._add_dag_edge(cid, fy, 1)
                for w in in_i[x]:
                    if w in detached:  # x itself too; the tail's out-edges add it
                        continue
                    fw = find(w)
                    if fw not in split_ids:
                        self._dec_dag_edge(fw, s)
                    self._add_dag_edge(fw, cid, 1)

        if remnant != s:  # dissolved to the single node ``keep``
            self._move_dag_edges(s, keep, (), {}, {})
            parent[s] = keep
        new_ids.append(remnant)
        return new_ids
