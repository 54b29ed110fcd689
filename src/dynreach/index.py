"""Dynamic reachability index: update operations and label-pruned queries.

The index composes the layered graph with the interval labeler and keeps
both consistent through the four update operations (edge/node insertion
and deletion); a batch of edge updates runs through the same edge
insertion and deletion.  Queries run a depth-first search over the
condensation that descends only into children whose labels could still
subsume the target, so a positive answer is always certified by an
actual path and a failed label test never hides one.

Public methods take external node ids and translate them to graph slots
once, on entry; everything below that boundary (extraction, splits,
merges, labels) works on slots and component handles only.

All operations, queries included, mutate internal state (path compression
and visit stamps); an instance therefore needs exclusive access.
"""
from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import InputError, LogicError
from .graph import SccGraph
from .labeling import IntervalLabeler, Label, LabelerConfig
from .ops import DeleteEdge, InsertEdge, UpdateOp


@dataclass(frozen=True, slots=True)
class QueryStats:
    """Search instrumentation: nodes entered and children label-pruned."""

    visited: int
    pruned: int


class ReachabilityIndex:
    """SCC condensation plus k-dimensional interval labels, kept current
    under edge/node insertions and deletions."""

    def __init__(self, graph: SccGraph, labeler: IntervalLabeler) -> None:
        self.graph = graph
        self.labeler = labeler
        self._vis: list[int] = [0] * graph.capacity
        self._stamp = 0
        # Scratch state for component extraction (stamped, not cleared).
        self._ex_seen: list[int] = [0] * graph.capacity
        self._ex_idx: list[int] = [0] * graph.capacity
        self._ex_low: list[int] = [0] * graph.capacity
        self._ex_on: list[int] = [0] * graph.capacity
        self._ex_stamp = 0

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
    # capacity plumbing

    def _ensure_capacity(self) -> None:
        """Grow the scratch arrays and labels to the graph's capacity; the
        capacity grows only on node insertion, merge and split."""
        cap = self.graph.capacity
        if len(self._vis) < cap:
            grow = cap - len(self._vis)
            self._vis.extend([0] * grow)
            self._ex_seen.extend([0] * grow)
            self._ex_idx.extend([0] * grow)
            self._ex_low.extend([0] * grow)
            self._ex_on.extend([0] * grow)
        self.labeler.ensure_capacity(cap - 1)

    # ------------------------------------------------------------------
    # queries

    def reachable(self, u: int, v: int) -> bool:
        """Does input node ``u`` reach input node ``v``?"""
        g = self.graph
        s = g.find_scc(g.input_slot(u))
        t = g.find_scc(g.input_slot(v))
        if s == t:
            return True
        return self._search_dag(s, t, use_labels=True)[0]

    def reachable_with_stats(self, u: int, v: int) -> tuple[bool, QueryStats]:
        g = self.graph
        s = g.find_scc(g.input_slot(u))
        t = g.find_scc(g.input_slot(v))
        if s == t:
            return True, QueryStats(1, 0)
        found, visited, pruned = self._search_dag(s, t, use_labels=True)
        return found, QueryStats(visited, pruned)

    def dfs_dag(self, s: int, t: int) -> bool:
        """Plain DFS over the condensation (no label pruning)."""
        self.graph._check_current(s)
        self.graph._check_current(t)
        if s == t:
            return True
        return self._search_dag(s, t, use_labels=False)[0]

    def _search_dag(self, s: int, t: int, use_labels: bool) -> tuple[bool, int, int]:
        """DFS from component ``s`` toward ``t``.  Returns (found, visited,
        pruned); children are skipped when their label cannot subsume the
        target's (k >= 1 and use_labels)."""
        g = self.graph
        lab = self.labeler
        k = lab.k if use_labels else 0
        if k and not lab.covers(s, t):
            return False, 1, 0
        k1 = k == 1
        if k1:
            b0, e0 = lab._b[0], lab._e[0]
            bt, et = b0[t], e0[t]
        elif k:
            dims = [(lab._b[d], lab._e[d], lab._b[d][t], lab._e[d][t]) for d in range(k)]
        vis = self._vis
        self._stamp += 1
        stamp = self._stamp
        out_d = g._out_d
        vis[s] = stamp
        visited = 1
        pruned = 0
        stack = [s]
        while stack:
            w = stack.pop()
            od = out_d[w]
            if od:
                for c in od:
                    if c == t:
                        return True, visited, pruned
                    if vis[c] == stamp:
                        continue
                    if k1:
                        if b0[c] > bt or e0[c] < et:
                            pruned += 1
                            continue
                    elif k:
                        ok = True
                        for bcol, ecol, btd, etd in dims:
                            if bcol[c] > btd or ecol[c] < etd:
                                ok = False
                                break
                        if not ok:
                            pruned += 1
                            continue
                    vis[c] = stamp
                    visited += 1
                    stack.append(c)
        return False, visited, pruned

    # ------------------------------------------------------------------
    # edge insertion

    def insert_edge(self, u: int, v: int) -> None:
        """Insert input edge (u, v), merging components when it closes a
        cycle at the DAG level.  Re-inserting an existing edge is a no-op."""
        g = self.graph
        su = g.input_slot(u)
        sv = g.input_slot(v)
        if not g.add_input_edge(su, sv):
            return
        if su == sv:
            return  # self-loops never alter the condensation
        s = g.find_scc(su)
        t = g.find_scc(sv)
        if s == t:
            return
        od = g._out_d[s]
        if od is not None and t in od:
            g._add_dag_edge(s, t, 1)
            return
        if self._search_dag(t, s, use_labels=True)[0]:
            self._merge(s, t)
        else:
            g._add_dag_edge(s, t, 1)
            if self.k:
                self.labeler.enlarge_to_cover(g, s, t)

    def _merge(self, s: int, t: int) -> None:
        """Collapse every component on a t-to-s path; the representative
        adopts t's label, which already subsumes all of them."""
        mlist = self.collect_merge_list(t, s)
        snapshot = self.labeler.label_of(t) if self.k else ()
        rep = self.graph.merge_components(mlist)
        self._ensure_capacity()
        if self.k:
            self.labeler.set_label(rep, snapshot)
            self.labeler.propagate(self.graph, (rep,))

    def collect_merge_list(self, t: int, s: int) -> list[int]:
        """Every component on some t-to-s path, ordered with ``s`` first
        and ``t`` last.  The search skips children whose labels cannot
        subsume ``s``'s, since those provably do not reach it."""
        g = self.graph
        lab = self.labeler
        prune = lab.k > 0
        reach: dict[int, bool] = {s: True}
        order: list[int] = []
        frames: list[list] = [[t, g.dag_children(t), 0, False]]
        while frames:
            frame = frames[-1]
            node, kids, i, acc = frame
            if i < len(kids):
                frame[2] = i + 1
                c = kids[i]
                hit = reach.get(c)
                if hit is not None:
                    if hit:
                        frame[3] = True
                elif prune and not lab.covers(c, s):
                    reach[c] = False  # cannot reach s: label test failed
                else:
                    frames.append([c, g.dag_children(c), 0, False])
                continue
            frames.pop()
            reach[node] = acc
            if acc:
                order.append(node)
                if frames:
                    frames[-1][3] = True
        if not reach.get(t):
            raise LogicError(f"component {t} does not reach {s}: nothing to merge")
        return [s] + order

    # ------------------------------------------------------------------
    # edge deletion

    def delete_edge(self, u: int, v: int) -> None:
        """Delete input edge (u, v), splitting its component if that was
        the last internal connection.  Inter-component removals only
        adjust multiplicities; labels are never shrunk."""
        g = self.graph
        su = g.input_slot(u)
        sv = g.input_slot(v)
        if not g.has_input_edge(su, sv):
            raise InputError(f"edge ({u}, {v}) does not exist")
        self._delete_edge(su, sv)

    def _delete_edge(self, su: int, sv: int) -> None:
        """Delete the existing edge between input slots ``su`` and ``sv``."""
        g = self.graph
        g.remove_input_edge(su, sv)
        if su == sv:
            return
        s = g.find_scc(su)
        t = g.find_scc(sv)
        if s != t:
            g._dec_dag_edge(s, t)
            return
        comps = self.extract_components(su, sv, s)
        if not comps:
            return  # su still reaches sv: component intact
        old_label = self.labeler.label_of(s) if self.k else ()
        clist = g.apply_split(s, sv, comps)
        self._ensure_capacity()
        if self.k:
            self.labeler.relabel_split(g, clist, old_label)

    def extract_components(self, su: int, sv: int, s: int) -> list[list[int]]:
        """Find the components that break off ``s`` once the edge between
        slots ``su`` and ``sv`` is gone.

        Bottom-up restricted Tarjan: start at ``su``; whenever a run
        touches ``sv`` (or a node already known to reach it) the whole
        exploration spine still reaches ``sv`` and is marked to stay, and
        the run stops.  Confirmed components enqueue their in-component
        parents as future start points.  Members of the remnant around
        ``sv`` are never visited.  Empty result means no split.
        """
        g = self.graph
        if g.find_scc(su) != s or g.find_scc(sv) != s:
            raise LogicError(f"slots {su}, {sv} are not members of component {s}")
        reaches_v: set[int] = set()
        assigned: set[int] = set()
        comps: list[list[int]] = []
        pending: deque[int] = deque()
        if self._extract_run(su, sv, s, reaches_v, assigned, comps, pending):
            return []  # u still reaches v (nothing was extracted)
        while pending:
            start = pending.popleft()
            if start in reaches_v or start in assigned:
                continue
            self._extract_run(start, sv, s, reaches_v, assigned, comps, pending)
        return comps

    def _extract_run(
        self,
        start: int,
        v: int,
        s: int,
        reaches_v: set[int],
        assigned: set[int],
        comps: list[list[int]],
        pending: deque[int],
    ) -> bool:
        """One restricted Tarjan pass from ``start``; True if it aborted
        because ``start`` still reaches ``v``."""
        g = self.graph
        out_i, in_i, parent = g._out_i, g._in_i, g._parent
        find = g.find_scc
        self._ex_stamp += 1
        stamp = self._ex_stamp
        seen, idx, low, on_stack = self._ex_seen, self._ex_idx, self._ex_low, self._ex_on
        tstack: list[int] = []
        counter = 1
        seen[start] = stamp
        idx[start] = low[start] = counter
        counter += 1
        tstack.append(start)
        on_stack[start] = stamp
        # adjacency is not mutated while a run is in flight
        frames: list[tuple[int, Iterable[int]]] = [(start, iter(out_i[start]))]
        while frames:
            w, it = frames[-1]
            advanced = False
            for c in it:
                if c == v or c in reaches_v:
                    # Everything still on the Tarjan stack has a path to
                    # the current node, hence to v: it all stays put.
                    reaches_v.update(tstack)
                    return True
                if c == w or c in assigned:
                    continue
                if parent[c] != s and find(c) != s:
                    continue
                if seen[c] != stamp:
                    seen[c] = stamp
                    idx[c] = low[c] = counter
                    counter += 1
                    tstack.append(c)
                    on_stack[c] = stamp
                    frames.append((c, iter(out_i[c])))
                    advanced = True
                    break
                if on_stack[c] == stamp and idx[c] < low[w]:
                    low[w] = idx[c]
            if advanced:
                continue
            frames.pop()
            if frames:
                p = frames[-1][0]
                if low[w] < low[p]:
                    low[p] = low[w]
            if low[w] == idx[w]:
                members = []
                while True:
                    x = tstack.pop()
                    on_stack[x] = 0
                    members.append(x)
                    assigned.add(x)
                    if x == w:
                        break
                comps.append(members)
                for m in members:
                    for p in in_i[m]:
                        if (
                            p != v
                            and p not in assigned
                            and p not in reaches_v
                            and (parent[p] == s or find(p) == s)
                        ):
                            pending.append(p)
        return False

    # ------------------------------------------------------------------
    # node insertion / deletion

    def insert_node(
        self, u: int, out_edges: Sequence[int] = (), in_edges: Sequence[int] = ()
    ) -> None:
        """Add a fresh node with its incident edges.

        The node starts as its own singleton component; its label spans
        its out-neighbors' hull (or opens past every existing end value
        when there are none).  Incoming edges then run through the full
        edge-insertion path one at a time and may trigger merges.
        """
        g = self.graph
        for w in (*out_edges, *in_edges):
            if w != u:
                g.input_slot(w)  # reject unknown endpoints before any change
        slot = g.add_input_node(u)
        self._ensure_capacity()
        comps: list[int] = []
        seen: set[int] = set()
        for w in out_edges:
            sw = g.input_slot(w)
            if not g.add_input_edge(slot, sw) or sw == slot:
                continue  # duplicate, or a self-loop kept in the input layer only
            f = g.find_scc(sw)
            g._add_dag_edge(slot, f, 1)
            if f not in seen:
                seen.add(f)
                comps.append(f)
        if self.k:
            self.labeler.label_new_source(g, slot, comps)
        for w in in_edges:
            self.insert_edge(w, u)

    def delete_node(self, u: int) -> None:
        """Remove a node with all incident edges.

        Outgoing edges run through the full deletion path in stored
        order (each may split a component); once the node is a lone
        source, its incoming edges are inter-component by construction
        and are dropped with multiplicity bookkeeping only.
        """
        g = self.graph
        slot = g.input_slot(u)
        for ws in list(g._out_i[slot]):
            self._delete_edge(slot, ws)
        for ws in list(g._in_i[slot]):
            g.remove_input_edge(ws, slot)
            g._dec_dag_edge(g.find_scc(ws), slot)
        g.remove_input_node(slot)

    # ------------------------------------------------------------------
    # batch updates

    def apply_batch(self, ops: Sequence[UpdateOp]) -> int:
        """Apply a batch of edge updates as one net change.

        Every op is first checked in order against the edge set as the
        ops before it leave it; a batch holding an unknown node, an op
        other than an edge update, or the deletion of an edge absent at
        that point raises ``InputError`` and changes nothing.  Then each
        edge whose presence after the batch differs from its presence
        before goes once through ``insert_edge`` or ``delete_edge``, in
        the order of first mention.  Returns the number of edges changed.
        """
        g = self.graph
        before: dict[tuple[int, int], bool] = {}
        after: dict[tuple[int, int], bool] = {}
        for op in ops:
            if not isinstance(op, (InsertEdge, DeleteEdge)):
                raise InputError(f"batch mode accepts edge updates only, got {op!r}")
            key = (op.u, op.v)
            if key not in before:
                before[key] = after[key] = g.has_input_edge(g.input_slot(op.u), g.input_slot(op.v))
            if isinstance(op, DeleteEdge) and not after[key]:
                raise InputError(f"edge ({op.u}, {op.v}) does not exist")
            after[key] = isinstance(op, InsertEdge)
        changed = [key for key, present in after.items() if present != before[key]]
        for u, v in changed:
            if after[u, v]:
                self.insert_edge(u, v)
            else:
                self.delete_edge(u, v)
        return len(changed)

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
        g = self.graph
        for slot in g.input_slots():
            groups[g.find_scc(slot)].append(g.external_id(slot))
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

    def full_relabel(self) -> None:
        """Maintenance valve: rerun the initial labeling in place."""
        self.labeler.initial_labels(self.graph)
