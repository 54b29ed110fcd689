"""Layered graph: input digraph, SCC condensation, and containment forest.

One structure holds three coupled layers:

* the input graph (adjacency over input nodes, set semantics on edges),
* the condensation DAG (one node per current SCC, edges carry the count of
  underlying input edges),
* containment links from input nodes and expired SCCs up to the SCC that
  currently subsumes them.  The links form a union-find forest whose roots
  are exactly the current DAG nodes.

A single-node SCC is represented by the input node itself; a condensation
node is allocated only for components of two or more nodes.  A DAG edge is
stored explicitly only when at least one endpoint is a multi-node SCC;
between two singleton components the input edge itself serves as the DAG
edge.  The accessors below unify both views.

Every node lives in a slot of one dense internal id space.  Callers name
input nodes by external ids, which the graph maps to slots in exactly one
place: ``build`` gives input ``u`` slot ``u``, and every later input and
every SCC node takes the next fresh slot, so slots are never reused.  Only
``input_slot``, ``is_input_node``, ``add_input_node``, ``external_id``,
``input_node_ids`` and ``input_edges`` speak external ids; every other
method takes and returns slots.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import InputError, InternalError, LogicError

# Node kinds.  An input node keeps its identity for life; a condensation
# node is allocated when a multi-node SCC forms, expires when merged away,
# and is orphaned (expired, no parent) when its component dissolves.
INPUT, SCC_CURRENT, SCC_EXPIRED, DEAD = range(4)

KIND_NAMES = {INPUT: "input", SCC_CURRENT: "scc-current", SCC_EXPIRED: "scc-expired"}

_NONE = -1


class SccGraph:
    """Mutable layered graph over a dense integer slot space.

    Input nodes and SCC nodes share one slot space, allocated from a
    monotone counter and never reused.  A dict maps the external id of
    every live input node to its slot; ``_ext`` is its inverse.  Slots
    and the component handles returned by lookups are internal and should
    be treated as opaque.

    Not thread-safe: lookups compress containment paths.
    """

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise InputError(f"negative node count {num_nodes}")
        self._kind: list[int] = [INPUT] * num_nodes
        self._parent: list[int] = [_NONE] * num_nodes
        self._size: list[int] = [1] * num_nodes
        # External id -> slot for every live input, and its inverse
        # (-1 for SCC and dead slots).
        self._slot: dict[int, int] = {u: u for u in range(num_nodes)}
        self._ext: list[int] = list(range(num_nodes))
        # Input-layer adjacency; dicts double as insertion-ordered sets.
        self._out_i: list[dict[int, None] | None] = [{} for _ in range(num_nodes)]
        self._in_i: list[dict[int, None] | None] = [{} for _ in range(num_nodes)]
        # Explicit DAG adjacency with input-edge multiplicities.
        self._out_d: list[dict[int, int] | None] = [None] * num_nodes
        self._in_d: list[dict[int, int] | None] = [None] * num_nodes
        self._next_id = num_nodes
        self._num_input = num_nodes
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, edges: Iterable[tuple[int, int]], num_nodes: int | None = None) -> "SccGraph":
        """Build the layered graph from an edge list.

        The node universe is ``[0, max(num_nodes, max id + 1))``.  Duplicate
        edges collapse (set semantics); self-loops are kept in the input
        layer but never influence the condensation.
        """
        edges = list(edges)
        n = num_nodes or 0
        for u, v in edges:
            if u < 0 or v < 0:
                raise InputError(f"negative node id in edge ({u}, {v})")
            m = u if u > v else v
            if m >= n:
                n = m + 1
        g = cls(n)
        out_i = g._out_i
        in_i = g._in_i
        for u, v in edges:
            ou = out_i[u]
            if v not in ou:
                ou[v] = None
                in_i[v][u] = None
                g._num_edges += 1
        for comp in g._tarjan_all():
            if len(comp) > 1:
                s = g._alloc_scc(len(comp))
                for m in comp:
                    g._parent[m] = s
        parent = g._parent
        for u in range(n):
            s = parent[u]
            if s == _NONE:
                s = u
            for v in out_i[u]:
                t = parent[v]
                if t == _NONE:
                    t = v
                if s != t:
                    g._add_dag_edge(s, t, 1)
        return g

    def _tarjan_all(self) -> list[list[int]]:
        """Iterative Tarjan over the input layer; SCCs in completion order."""
        n = len(self._kind)
        out_i = self._out_i
        index = [0] * n  # 0 = unvisited, otherwise discovery index + 1
        low = [0] * n
        on_stack = bytearray(n)
        stack: list[int] = []
        comps: list[list[int]] = []
        counter = 1
        for root in range(n):
            if index[root] or out_i[root] is None:
                continue
            work: list[tuple[int, Iterator[int]]] = [(root, iter(out_i[root]))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = 1
            while work:
                w, it = work[-1]
                advanced = False
                for c in it:
                    if not index[c]:
                        index[c] = low[c] = counter
                        counter += 1
                        stack.append(c)
                        on_stack[c] = 1
                        work.append((c, iter(out_i[c])))
                        advanced = True
                        break
                    if on_stack[c] and index[c] < low[w]:
                        low[w] = index[c]
                if advanced:
                    continue
                work.pop()
                if work:
                    p = work[-1][0]
                    if low[w] < low[p]:
                        low[p] = low[w]
                if low[w] == index[w]:
                    comp = []
                    while True:
                        x = stack.pop()
                        on_stack[x] = 0
                        comp.append(x)
                        if x == w:
                            break
                    comps.append(comp)
        return comps

    # ------------------------------------------------------------------
    # id bookkeeping

    def _grow(self, upto: int) -> None:
        n = len(self._kind)
        if upto < n:
            return
        extra = upto + 1 - n
        self._kind.extend([DEAD] * extra)
        self._parent.extend([_NONE] * extra)
        self._size.extend([0] * extra)
        self._ext.extend([-1] * extra)
        self._out_i.extend([None] * extra)
        self._in_i.extend([None] * extra)
        self._out_d.extend([None] * extra)
        self._in_d.extend([None] * extra)

    def _alloc_scc(self, size: int) -> int:
        s = self._next_id
        self._next_id = s + 1
        self._grow(s)
        self._kind[s] = SCC_CURRENT
        self._parent[s] = _NONE
        self._size[s] = size
        self._out_d[s] = {}
        self._in_d[s] = {}
        return s

    def add_input_node(self, u: int) -> int:
        """Register a fresh input node with external id ``u`` as a
        singleton component in the next fresh slot; returns the slot."""
        if u < 0:
            raise InputError(f"negative node id {u}")
        if u in self._slot:
            raise InputError(f"node id {u} already in use")
        slot = self._next_id
        self._next_id = slot + 1
        self._grow(slot)
        self._kind[slot] = INPUT
        self._parent[slot] = _NONE
        self._size[slot] = 1
        self._ext[slot] = u
        self._out_i[slot] = {}
        self._in_i[slot] = {}
        self._slot[u] = slot
        self._num_input += 1
        return slot

    def remove_input_node(self, x: int) -> None:
        """Drop the isolated input node in slot ``x``.  Slots are never
        reused."""
        if not (0 <= x < len(self._kind)) or self._kind[x] != INPUT:
            raise InputError(f"slot {x} holds no input node")
        if self._out_i[x] or self._in_i[x]:
            raise LogicError(f"slot {x} still has incident edges")
        if self._parent[x] != _NONE:
            raise LogicError(f"slot {x} is still inside a component")
        self._kind[x] = DEAD
        self._out_i[x] = self._in_i[x] = None
        self._out_d[x] = self._in_d[x] = None
        del self._slot[self._ext[x]]
        self._ext[x] = -1
        self._num_input -= 1

    # ------------------------------------------------------------------
    # basic views

    @property
    def num_input_nodes(self) -> int:
        return self._num_input

    @property
    def num_input_edges(self) -> int:
        return self._num_edges

    @property
    def capacity(self) -> int:
        """One past the largest id ever allocated."""
        return len(self._kind)

    def node_kind(self, x: int) -> str:
        """Kind of an internal node handle."""
        self._check_known(x)
        return KIND_NAMES[self._kind[x]]

    def is_input_node(self, u: int) -> bool:
        """True when the external id ``u`` names a live input node."""
        return u in self._slot

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
        """True for current DAG nodes: SCC nodes and parent-free inputs."""
        if not (0 <= x < len(self._kind)):
            return False
        k = self._kind[x]
        return k == SCC_CURRENT or (k == INPUT and self._parent[x] == _NONE)

    def scc_size(self, s: int) -> int:
        if not self.is_current(s):
            raise LogicError(f"node {s} is not a current component")
        return self._size[s]

    def input_node_ids(self) -> list[int]:
        """External ids of all live input nodes, in slot order."""
        return list(self._slot)

    def input_slots(self) -> list[int]:
        return list(self._slot.values())

    def current_dag_nodes(self) -> list[int]:
        kind, parent = self._kind, self._parent
        return [
            x
            for x in range(len(kind))
            if kind[x] == SCC_CURRENT or (kind[x] == INPUT and parent[x] == _NONE)
        ]

    def input_edges(self) -> Iterator[tuple[int, int]]:
        """Current input edges as external id pairs."""
        ext = self._ext
        for u, targets in enumerate(self._out_i):
            if targets:
                eu = ext[u]
                for v in targets:
                    yield (eu, ext[v])

    def has_input_edge(self, x: int, y: int) -> bool:
        return y in self._out_i[x]

    def input_successors(self, x: int) -> list[int]:
        return list(self._out_i[x])

    def _check_known(self, x: int) -> None:
        if not (0 <= x < len(self._kind)) or self._kind[x] == DEAD:
            raise InputError(f"unknown node id {x}")

    def _check_current(self, x: int) -> None:
        if not self.is_current(x):
            raise LogicError(f"node {x} is not a current component")

    # ------------------------------------------------------------------
    # component lookup (union-find)

    def find_scc(self, x: int) -> int:
        """Current component of any known node, with path compression."""
        self._check_known(x)
        parent = self._parent
        root = x
        while parent[root] != _NONE:
            root = parent[root]
        while x != root:
            nxt = parent[x]
            parent[x] = root
            x = nxt
        return root

    def containment_depth(self, x: int) -> int:
        """Links traversed from ``x`` to its component (no compression)."""
        self._check_known(x)
        parent = self._parent
        depth = 0
        while parent[x] != _NONE:
            x = parent[x]
            depth += 1
        return depth

    # ------------------------------------------------------------------
    # input-layer edits (set semantics)

    def add_input_edge(self, x: int, y: int) -> bool:
        """Record edge (x, y) between input slots; False if already present."""
        ox = self._out_i[x]
        if y in ox:
            return False
        ox[y] = None
        self._in_i[y][x] = None
        self._num_edges += 1
        return True

    def remove_input_edge(self, x: int, y: int) -> None:
        ox = self._out_i[x]
        if y not in ox:
            raise InputError(f"edge between slots ({x}, {y}) does not exist")
        del ox[y]
        del self._in_i[y][x]
        self._num_edges -= 1

    # ------------------------------------------------------------------
    # DAG layer

    def dag_children(self, s: int) -> list[int]:
        """Distinct successor components of ``s`` (explicit and implicit)."""
        self._check_current(s)
        od = self._out_d[s]
        out = list(od) if od else []
        if self._kind[s] == INPUT:
            parent = self._parent
            out.extend(v for v in self._out_i[s] if parent[v] == _NONE and v != s)
        return out

    def dag_parents(self, s: int) -> list[int]:
        """Distinct predecessor components of ``s``."""
        self._check_current(s)
        idd = self._in_d[s]
        out = list(idd) if idd else []
        if self._kind[s] == INPUT:
            parent = self._parent
            out.extend(v for v in self._in_i[s] if parent[v] == _NONE and v != s)
        return out

    def edge_multiplicity(self, s: int, t: int) -> int:
        """Number of input edges mapping onto DAG edge (s, t); 0 if absent."""
        self._check_current(s)
        self._check_current(t)
        od = self._out_d[s]
        if od is not None and t in od:
            return od[t]
        if self._kind[s] == INPUT and self._kind[t] == INPUT and t in self._out_i[s]:
            return 1
        return 0

    def has_explicit_dag_edge(self, s: int, t: int) -> bool:
        od = self._out_d[s]
        return od is not None and t in od

    def _add_dag_edge(self, s: int, t: int, mult: int) -> None:
        # Stored only when a multi-node SCC is involved; otherwise the
        # input edge itself represents the DAG edge.
        if self._kind[s] != SCC_CURRENT and self._kind[t] != SCC_CURRENT:
            return
        od = self._out_d[s]
        if od is None:
            od = self._out_d[s] = {}
        od[t] = od.get(t, 0) + mult
        idd = self._in_d[t]
        if idd is None:
            idd = self._in_d[t] = {}
        idd[s] = idd.get(s, 0) + mult

    def increment_dag_edge(self, s: int, t: int) -> None:
        self._out_d[s][t] += 1
        self._in_d[t][s] += 1

    def _dec_dag_edge(self, s: int, t: int) -> None:
        od = self._out_d[s]
        if od is None or t not in od:
            return  # implicit edge: nothing stored
        left = od[t] - 1
        if left:
            od[t] = left
            self._in_d[t][s] = left
        else:
            del od[t]
            del self._in_d[t][s]

    # ------------------------------------------------------------------
    # merge

    def merge_components(self, members: Sequence[int]) -> int:
        """Collapse two or more current components into one.

        The member with the largest size (smallest id on ties) becomes the
        representative; when every member is a lone input node a fresh SCC
        node is allocated instead.  Absorbed SCC nodes expire, absorbed
        singletons simply gain a containment link, and the representative
        inherits the union of everyone's external DAG edges.
        """
        if len(members) < 2:
            raise LogicError("merge needs at least two components")
        kind = self._kind
        size = self._size
        for m in members:
            self._check_current(m)
        merge_set = set(members)
        if len(merge_set) != len(members):
            raise LogicError("duplicate components in merge list")
        rep = min(members, key=lambda m: (-size[m], m))
        if kind[rep] == INPUT:
            rep = self._alloc_scc(0)
        out_d, in_d = self._out_d, self._in_d
        out_rep = out_d[rep]
        in_rep = in_d[rep]
        # Internal edges between the representative and absorbed members
        # disappear; a pre-existing representative keeps the rest of its
        # adjacency in place, so the cost stays proportional to the
        # absorbed members' degrees.
        for m in members:
            if m != rep:
                out_rep.pop(m, None)
                in_rep.pop(m, None)
        add_out: dict[int, int] = {}
        add_in: dict[int, int] = {}
        total = 0
        # Phase 1: gather the absorbed members' external adjacency while
        # containment links still resolve to the pre-merge components.
        for m in members:
            total += size[m]
            if m == rep:
                continue
            if kind[m] == SCC_CURRENT:
                for t, mu in out_d[m].items():
                    if t in merge_set or t == rep:
                        continue
                    add_out[t] = add_out.get(t, 0) + mu
                    del in_d[t][m]
                for src, mu in in_d[m].items():
                    if src in merge_set or src == rep:
                        continue
                    add_in[src] = add_in.get(src, 0) + mu
                    del out_d[src][m]
            else:
                # Lone input node: its incident edges live in the input
                # layer; explicit entries exist only toward SCC neighbors.
                for t in out_d[m] or ():
                    if t not in merge_set and t != rep:
                        del in_d[t][m]
                for src in in_d[m] or ():
                    if src not in merge_set and src != rep:
                        del out_d[src][m]
                for v in self._out_i[m]:
                    if v == m:
                        continue
                    f = self.find_scc(v)
                    if f not in merge_set and f != rep:
                        add_out[f] = add_out.get(f, 0) + 1
                for w in self._in_i[m]:
                    if w == m:
                        continue
                    f = self.find_scc(w)
                    if f not in merge_set and f != rep:
                        add_in[f] = add_in.get(f, 0) + 1
            out_d[m] = in_d[m] = None
        # Phase 2: relink and expire the absorbed components.
        for m in members:
            if m != rep:
                self._parent[m] = rep
                if kind[m] == SCC_CURRENT:
                    kind[m] = SCC_EXPIRED
        for t, mu in add_out.items():
            nt = out_rep.get(t, 0) + mu
            out_rep[t] = nt
            idd = in_d[t]
            if idd is None:
                idd = in_d[t] = {}
            idd[rep] = nt
        for src, mu in add_in.items():
            ns = in_rep.get(src, 0) + mu
            in_rep[src] = ns
            od = out_d[src]
            if od is None:
                od = out_d[src] = {}
            od[rep] = ns
        size[rep] = total
        return rep

    # ------------------------------------------------------------------
    # split

    def apply_split(self, s: int, v: int, comps: Sequence[Sequence[int]]) -> list[int]:
        """Detach extracted components from SCC ``s`` after an edge deletion.

        ``comps`` lists the member slots of each new component in
        discovery order; the remnant holding the deletion target's slot
        ``v`` keeps the node ``s`` unless it shrinks to ``v`` alone, in
        which case ``s`` is orphaned.  Only the extracted members'
        incident edges are touched.  Returns the new component ids
        followed by the remnant id.
        """
        if not self.is_current(s) or self._kind[s] != SCC_CURRENT:
            raise LogicError(f"node {s} is not a current multi-node component")
        parent, kind, size = self._parent, self._kind, self._size
        extracted: set[int] = set()
        new_ids: list[int] = []
        for members in comps:
            extracted.update(members)
            if len(members) == 1:
                x = members[0]
                parent[x] = _NONE
                new_ids.append(x)
            else:
                c = self._alloc_scc(len(members))
                for m in members:
                    parent[m] = c
                new_ids.append(c)
        remaining = size[s] - len(extracted)
        if remaining < 1 or v in extracted:
            raise InternalError("split does not leave the deletion target behind")
        if remaining == 1:
            parent[v] = _NONE
            remnant = v
        else:
            size[s] = remaining
            remnant = s
        split_ids = set(new_ids)
        split_ids.add(remnant)

        for members, cid in zip(comps, new_ids):
            for x in members:
                for y in self._out_i[x]:
                    if y == x:
                        continue
                    if y in extracted:
                        fy = self.find_scc(y)
                        if fy != cid:
                            self._add_dag_edge(cid, fy, 1)
                        continue
                    fy = self.find_scc(y)
                    if fy in split_ids:  # stayed in the remnant
                        self._add_dag_edge(cid, fy, 1)
                    else:  # external: the old (s, fy) edge loses one witness
                        self._dec_dag_edge(s, fy)
                        self._add_dag_edge(cid, fy, 1)
                for w in self._in_i[x]:
                    if w == x or w in extracted:
                        continue
                    fw = self.find_scc(w)
                    if fw in split_ids:
                        self._add_dag_edge(fw, cid, 1)
                    else:
                        self._dec_dag_edge(fw, s)
                        self._add_dag_edge(fw, cid, 1)

        if remnant != s:
            # The component dissolved to the single node v: hand the
            # leftover explicit edges to v under the storage rule.
            for t, mu in (self._out_d[s] or {}).items():
                del self._in_d[t][s]
                self._add_dag_edge(v, t, mu)
            for src, mu in (self._in_d[s] or {}).items():
                del self._out_d[src][s]
                self._add_dag_edge(src, v, mu)
            self._out_d[s] = self._in_d[s] = None
            kind[s] = SCC_EXPIRED
        new_ids.append(remnant)
        return new_ids
