"""Label-switching expansion of a labeled graph, and walk queries on top of it.

Replacing every vertex of a flag-labeled graph by a switch gadget (see
``gadget``) and joining gadgets with one connector arc per edge traversal
direction yields an unlabeled digraph whose paths correspond exactly to the
walks of the input in which consecutive edges never repeat a flag label at
their shared vertex.  The expansion has O(m) nodes and arcs.

It is built with array operations, without a Python loop over vertices or
edges: the distinct (vertex, flag label) pairs, ordered by vertex and then by
first occurrence, become each vertex's label slots; one gadget is built per
distinct label count and its arc template is offset to every vertex with that
count; connector arcs follow all gadget arcs, one row per edge.  Per-vertex
slot arrays (``vp_ptr``, ``slot_label``, ``slot_entry``, ``slot_exit``) map
slots to gadget nodes.  Of its arcs the expansion keeps the CSR alone: an
arc's tail is the node whose row holds it.  ``flag_slot`` gives the slot of
each flag, so the connector of (edge, direction) leaves the exit node of one
flag's slot and enters the entry node of the other's; connectors are named
by their slots, never by CSR position.  The cycle query keeps its hits as a
mask over (edge, direction) and a reach as a Python-int bitset over the same
entries; ``traversal_rows`` reads the hit traversals straight from a mask,
the ``ends`` array and the graph's name lists, and ``.edges`` and
``cycle_directions`` make one ``ReachedEdge`` per row only when asked for.

Below ``_kernels.FRONTIER_MIN_NODES`` nodes the first reach walks the
condensation once, in the reverse topological order of the component ids,
and every later reach is a lookup; from there on the strong components and
a reach's hits come from numpy frontier sweeps.  A reach runs the DFS that
records parents only for its first witness walk, so every walk is the one
the DFS gives.

Queries answered here:

* which edges lie on some label-switching (nonrepetitive) closed walk
  (strong connectivity of the expansion),
* which edges are reachable by nonrepetitive walks from a given
  (vertex, first label) start (reachability in the expansion),
* a minimum-edge-count nonrepetitive walk between two vertices
  (0/1 BFS; entering a slot entry node costs 1, which only connectors do).
  The targets are the destination's slot entry nodes; the search stops at
  the nearest target's distance with the full search's walk, ties included
  (``_kernels.bfs01``), and copies nothing of the expansion.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, NamedTuple, Optional

import numpy as np

from . import _kernels
from .gadget import build_switch_gadget
from .labeled_graph import FlagLabeledGraph


class ReachedEdge(NamedTuple):
    """One traversal of an input edge: ``tail -> head`` with the head flag label."""

    edge_id: int
    tail: Any
    head: Any
    far_label: Any


class LabelSwitchDigraph:
    """The expanded digraph plus provenance maps back to the input graph.

    Immutable after construction; all queries are read-only.
    """

    def __init__(self, graph: FlagLabeledGraph):
        n = graph.num_vertices
        m = graph.num_edges
        ends = np.array(graph.edges, dtype=np.int64).reshape(m, 4)
        if (ends[:, 0] == ends[:, 1]).any():
            raise ValueError("self-loops are not supported by the expansion")
        self.graph = graph

        # Flag 2*eid + end sits at vertex ends[eid, end] with label
        # ends[eid, 2 + end].  A vertex's slots are its distinct flag labels
        # in first-occurrence order over its flags (edge id order), which is
        # the order of ``graph.vertex_label_ids``.
        flag_vertex = ends[:, :2].ravel()
        flag_label = ends[:, 2:].ravel()
        width = int(flag_label.max()) + 1 if m else 1
        keys, first, slot_of_key = np.unique(
            flag_vertex * width + flag_label, return_index=True, return_inverse=True
        )
        by_slot = np.lexsort((first, keys // width))
        slot_vertex = keys[by_slot] // width
        slot_label = keys[by_slot] % width
        slot_of_flag = np.empty(len(keys), dtype=np.int64)
        slot_of_flag[by_slot] = np.arange(len(keys), dtype=np.int64)
        slot_of_flag = slot_of_flag[slot_of_key]

        label_count = np.bincount(slot_vertex, minlength=n)
        vp_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(label_count, out=vp_ptr[1:])
        rank = np.arange(len(keys), dtype=np.int64) - vp_ptr[slot_vertex]

        # One gadget per distinct label count; vertex v's gadget occupies
        # nodes off[v] .. off[v] + size - 1, vertices in id order.
        gadgets = {k: build_switch_gadget(k) for k in sorted(set(label_count.tolist())) if k}
        gadget_size = np.zeros(int(label_count.max()) + 1 if n else 1, dtype=np.int64)
        for k, gadget in gadgets.items():
            gadget_size[k] = gadget.num_nodes
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(gadget_size[label_count], out=off[1:])
        num_nodes = int(off[-1])

        # A gadget lists its entry nodes, then its exit nodes, each in slot
        # order, so slot_entry and slot_exit increase with the slot.
        slot_entry = np.empty(len(keys), dtype=np.int64)
        slot_exit = np.empty(len(keys), dtype=np.int64)
        tail_blocks = []
        head_blocks = []
        slot_k = label_count[slot_vertex]
        for k, gadget in gadgets.items():
            at = slot_k == k
            base = off[slot_vertex[at]]
            slot_entry[at] = base + np.array(gadget.entry, dtype=np.int64)[rank[at]]
            slot_exit[at] = base + np.array(gadget.exit, dtype=np.int64)[rank[at]]
            if gadget.arcs:
                template = np.array(gadget.arcs, dtype=np.int64)
                bases = off[:-1][label_count == k][:, None]
                tail_blocks.append((bases + template[:, 0]).ravel())
                head_blocks.append((bases + template[:, 1]).ravel())

        self.num_nodes = num_nodes
        # Row eid: u, v, label at u, label at v (vertex and label ids).
        self.ends = ends
        # Slots of vertex v are vp_ptr[v] .. vp_ptr[v + 1] - 1.
        self.vp_ptr = vp_ptr
        self.slot_label = slot_label
        self.slot_entry = slot_entry
        self.slot_exit = slot_exit
        # Row eid: the slots of the flags at u and at v.
        self.flag_slot = slot_of_flag.reshape(m, 2)
        # Connector directions per edge: 0 runs u -> v, 1 (undirected only) v -> u.
        self._k = 1 if graph.directed else 2
        # Connector arcs, one row per edge after all gadget arcs: a walk
        # leaves the near vertex through the exit node of the near flag
        # label and enters the far vertex at the entry node of the far flag
        # label.  No gadget arc leaves an exit node or enters an entry node.
        tails = np.concatenate(tail_blocks + [self._conn_tails().ravel()])
        heads = np.concatenate(head_blocks + [slot_entry[self._conn_slots()[1]].ravel()])
        self.num_arcs = len(tails)
        self.indptr, self.indices = _kernels.build_csr(num_nodes, tails, heads)
        self._scc: Optional[np.ndarray] = None
        self._reach_sets: Optional[list[int]] = None
        self._arrivals_of: dict[int, dict] = {}
        self._slot_lists: Optional[tuple] = None
        self._transit: Optional[tuple] = None

    # -- helpers -------------------------------------------------------------

    def _oriented(self, eid: int, direction: int) -> ReachedEdge:
        u, v = self.graph.endpoints(eid)
        lu, lv = self.graph.edge_labels(eid)
        if direction == 0:
            return ReachedEdge(eid, u, v, lv)
        return ReachedEdge(eid, v, u, lu)

    def traversal_rows(self, hit: np.ndarray):
        """The traversals ``hit`` selects (a mask over (edge, direction)), in
        edge order, then direction, as (edge id, tail, head, far label)
        tuples: the fields of their ``ReachedEdge``s, read column by column
        from ``ends`` and the graph's name lists."""
        eids, dirs = np.nonzero(hit)
        ends = self.ends[eids]
        rows = np.arange(len(eids))
        vertex = self.graph.vertex_names.__getitem__
        label = self.graph.label_names.__getitem__
        return zip(
            eids.tolist(),
            map(vertex, ends[rows, dirs].tolist()),
            map(vertex, ends[rows, 1 - dirs].tolist()),
            map(label, ends[rows, 3 - dirs].tolist()),
        )

    def _slots(self, vid: int) -> slice:
        return slice(int(self.vp_ptr[vid]), int(self.vp_ptr[vid + 1]))

    def _slot_table(self) -> tuple[list[int], list[tuple[Any, Any]], list[int]]:
        """Python lists built on first use: ``vp_ptr``, the (vertex name, label
        name) of each slot, and the slot each connector enters, by bit of
        ``ReachResult.bits``."""
        if self._slot_lists is None:
            graph = self.graph
            vp = self.vp_ptr.tolist()
            labels = self.slot_label.tolist()
            label_names = [graph.label_name(x) for x in range(max(labels, default=-1) + 1)]
            names = []
            for v in range(graph.num_vertices):
                vertex = graph.vertex_name(v)
                names += [(vertex, label_names[x]) for x in labels[vp[v] : vp[v + 1]]]
            self._slot_lists = vp, names, self._conn_slots()[1].ravel().tolist()
        return self._slot_lists

    def _conn_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, ``_k``) arrays: connector (eid, d) leaves slot
        flag_slot[eid, d] and enters slot flag_slot[eid, 1 - d]."""
        return self.flag_slot[:, : self._k], self.flag_slot[:, ::-1][:, : self._k]

    def _conn_tails(self) -> np.ndarray:
        """The tail node of each connector: the exit node of the slot it leaves."""
        return self.slot_exit[self._conn_slots()[0]]

    @property
    def scc(self) -> np.ndarray:
        """Component id per node: a partition of the nodes (see
        ``_kernels.scc_csr``; the ids are in reverse topological order only
        below ``_kernels.FRONTIER_MIN_NODES`` nodes)."""
        # A memo set up in __init__, not functools.cached_property: on
        # CPython 3.11 a cached_property writes the instance __dict__, after
        # which every attribute read on the instance is slower, and the
        # result builders read attributes once per result.
        if self._scc is None:
            self._scc = _kernels.scc_csr(self.indptr, self.indices)
        return self._scc

    # -- queries --------------------------------------------------------------

    def cycle_mask(self) -> np.ndarray:
        """Mask over (edge, direction): the traversals that lie on some
        nonrepetitive closed walk."""
        comp = self.scc
        return comp[self._conn_tails()] == comp[self.slot_entry[self._conn_slots()[1]]]

    def cycle_directions(self) -> list[ReachedEdge]:
        """Edge traversals that lie on some nonrepetitive closed walk."""
        return [ReachedEdge(*row) for row in self.traversal_rows(self.cycle_mask())]

    def cycle_edge_ids(self) -> set[int]:
        return set(np.flatnonzero(self.cycle_mask().any(axis=1)).tolist())

    def cycle_transit_pairs(self, vertex: Any) -> set[frozenset]:
        """Label pairs {x, y} of consecutive edges some nonrepetitive closed
        walk uses at this vertex (entering on one, leaving on the other).

        The pair is realized exactly when the entry node of x and the exit
        node of y share a strong component: the gadget supplies the entry
        -> exit hop and the component supplies the return path.  The slot
        names and components are read from Python lists built on the first
        call.
        """
        vp, names = self._slot_table()[:2]
        if self._transit is None:
            comp = self.scc
            self._transit = comp[self.slot_entry].tolist(), comp[self.slot_exit].tolist()
        enter, leave = self._transit
        vid = self.graph.vertex_id(vertex)
        slots = range(vp[vid], vp[vid + 1])
        pairs: set[frozenset] = set()
        for i in slots:
            for j in slots:
                if i != j and enter[i] == leave[j]:
                    pairs.add(frozenset((names[i][1], names[j][1])))
        return pairs

    def reachable_from(self, vertex: Any, label: Any) -> "ReachResult":
        """Edges on nonrepetitive walks starting at ``vertex`` with first edge flag label
        ``label``, empty when no such edge exists: a ``_node_reach`` lookup or one sweep."""
        slots = self._slots(self.graph.vertex_id(vertex))
        lid = self.graph.label_id(label)
        starts = () if lid is None else self.slot_exit[slots][self.slot_label[slots] == lid]
        if not len(starts):
            return ReachResult(self, None, 0)
        start = int(starts[0])
        if self.num_nodes < _kernels.FRONTIER_MIN_NODES:
            return ReachResult(self, start, self._node_reach()[start])
        seen = _kernels.sweep_csr(self.indptr, self.indices, (start,))
        packed = np.packbits(seen[self._conn_tails()], axis=None, bitorder="little")
        return ReachResult(self, start, int.from_bytes(packed.tobytes(), "little"))

    def _node_reach(self) -> list[int]:
        """Per node, the bitset of the connectors it reaches, built on first use in one pass
        over the components in id order, reverse topological below ``FRONTIER_MIN_NODES``:
        each takes the connectors leaving its nodes and its successors' finished sets."""
        if self._reach_sets is None:
            comp = self.scc
            sets = [0] * (int(comp.max()) + 1)
            for bit, c in enumerate(comp[self._conn_tails()].ravel().tolist()):
                sets[c] |= 1 << bit
            # Arcs as (tail, head) component pairs, by tail; one inside a component is a no-op.
            # A stable argsort, as build_csr runs: np.sort's default kind touches more code
            # pages, 0.3 MB of peak RSS on the Sudoku workloads.
            tails = np.repeat(comp, np.diff(self.indptr))
            by_tail = np.argsort(tails, kind="stable")
            for t, h in zip(tails[by_tail].tolist(), comp[self.indices[by_tail]].tolist()):
                sets[t] |= sets[h]
            self._reach_sets = [sets[c] for c in comp.tolist()]
        return self._reach_sets

    def shortest_path(self, src: Any, dst: Any) -> Optional[list[ReachedEdge]]:
        """Minimum-edge-count nonrepetitive walk from src to dst, or None."""
        s = self.graph.vertex_id(src)
        t = self.graph.vertex_id(dst)
        if s == t:
            return []
        sources = np.sort(self.slot_exit[self._slots(s)])
        targets = np.sort(self.slot_entry[self._slots(t)])
        if not len(sources) or not len(targets):
            return None
        entry = np.zeros(self.num_nodes, dtype=bool)  # connectors enter exactly these
        entry[self.slot_entry] = True
        dist, parent = _kernels.bfs01(self.indptr, self.indices, entry, sources, targets)
        best = int(targets[np.argmin(dist[targets])])
        if dist[best] >= _kernels._UNREACHED:
            return None
        return self._walk_to_node(parent, best)

    def _walk_to_node(self, parent: np.ndarray, node: int) -> list[ReachedEdge]:
        """The walk of parent arcs into ``node``.  An arc's tail is the node
        whose CSR row holds it.  The arcs out of slot s's exit node are the
        connectors leaving slot s, in (edge, direction) order, so the arc at
        rank r of that row is the r-th connector that leaves slot s."""
        ip = memoryview(self.indptr)
        exits = memoryview(self.slot_exit)
        slots, ranks = [], []
        pos = int(parent[node])
        while pos != -1:
            tail = bisect_right(ip, pos) - 1
            slot = bisect_left(exits, tail)
            if slot < len(exits) and exits[slot] == tail:
                slots.append(slot)
                ranks.append(pos - ip[tail])
            pos = int(parent[tail])
        if not slots:
            return []
        # One pass over the connectors, however long the walk: the bits of
        # those leaving the walk's slots, grouped by slot in bit order.
        leave = self._conn_slots()[0].ravel()
        on_walk = np.zeros(len(exits), dtype=bool)
        on_walk[slots] = True
        bits = np.flatnonzero(on_walk[leave])
        bits = bits[np.argsort(leave[bits], kind="stable")]
        steps = bits[np.searchsorted(leave[bits], slots) + ranks].tolist()
        return [self._oriented(*divmod(bit, self._k)) for bit in reversed(steps)]


class ReachResult:
    """Result of :meth:`LabelSwitchDigraph.reachable_from` plus witness walks.

    The hits are kept in ``bits``, a Python-int bitset over the expansion's
    connector arcs, bit ``eid * k + direction``.  ``mask`` unpacks it into a
    bool array over (edge, direction) on each read; ``len``, ``edge_ids``
    and ``arrivals`` answer from it, ``arrivals`` memoised per distinct
    bitset on the expansion, and ``arrival`` is a lookup in ``arrivals``.
    ``.edges``, the ``ReachedEdge`` list in (edge, direction) order, is
    built from ``traversal_rows`` on first read.  A reach without a start
    flag refuses every walk.  The DFS parents from the start are computed
    for the first witness walk.
    """

    def __init__(self, expansion, start, bits: int):
        self._expansion = expansion
        self._start = start
        self.bits = bits
        self._parent: Optional[np.ndarray] = None
        self._edges: Optional[list[ReachedEdge]] = None

    @property
    def mask(self) -> np.ndarray:
        m, k = self._expansion.graph.num_edges, self._expansion._k
        raw = np.frombuffer(self.bits.to_bytes((m * k + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, count=m * k, bitorder="little").view(bool).reshape(m, k)

    @property
    def edges(self) -> list[ReachedEdge]:
        if self._edges is None:
            rows = self._expansion.traversal_rows(self.mask)
            self._edges = [ReachedEdge(*row) for row in rows]
        return self._edges

    def __iter__(self):
        return iter(self.edges)

    def __len__(self):
        return self.bits.bit_count()

    def edge_ids(self) -> set[int]:
        return set(np.flatnonzero(self.mask.any(axis=1)).tolist())

    def traversal(self, eid: int, direction: int) -> ReachedEdge:
        """The traversal of edge ``eid`` in ``direction`` (0: u -> v)."""
        return self._expansion._oriented(eid, direction)

    def arrival(self, vertex: Any, label: Any) -> Optional[ReachedEdge]:
        """The first traversal of ``.edges`` with head ``vertex`` and far
        label ``label``, or None; ``KeyError`` for an unknown vertex."""
        found = self.arrivals().get((vertex, label))
        if found is None:
            self._expansion.graph.vertex_id(vertex)  # raises for an unknown vertex
            return None
        return self.traversal(*found)

    def arrivals(self) -> dict[tuple[Any, Any], tuple[int, int]]:
        """(head, far label) -> (edge id, direction) of the first traversal
        of ``.edges`` with that head and far label, in slot order.  Shared by
        the reaches with the same bitset; callers must not mutate it."""
        ex = self._expansion
        found = ex._arrivals_of.get(self.bits)
        if found is None:
            _, names, slot_of = ex._slot_table()
            digits = format(self.bits, "b")[::-1]  # digit i is bit i
            first: dict[int, int] = {}
            bit = digits.find("1")
            while bit >= 0:
                first.setdefault(slot_of[bit], bit)
                bit = digits.find("1", bit + 1)
            k = ex._k
            found = {names[s]: divmod(first[s], k) for s in sorted(first)}
            ex._arrivals_of[self.bits] = found
        return found

    def _parents(self) -> np.ndarray:
        if self._parent is None:  # the DFS parent arc of every node
            ex = self._expansion
            self._parent = _kernels.reach_csr(ex.indptr, ex.indices, self._start)[1]
        return self._parent

    def walk_to(self, reached: ReachedEdge) -> list[ReachedEdge]:
        """A nonrepetitive walk from the start ending with ``reached``.

        Raises ``ValueError`` when the reach did not find ``reached``.
        """
        if self._start is None:
            raise ValueError("empty reach result has no walks")
        ex = self._expansion
        eid = reached.edge_id
        direction = k = ex._k
        if 0 <= eid < ex.graph.num_edges:
            # The orientation that starts at ``reached.tail``, if any.
            turn = int(reached.tail != ex.graph.endpoints(eid)[0])
            if ex._oriented(eid, turn) == reached:
                direction = turn
        if direction >= k or not self.bits >> (eid * k + direction) & 1:
            raise ValueError(f"{reached} is not reached from the start")
        steps = ex._walk_to_node(self._parents(), int(ex.slot_exit[ex.flag_slot[eid, direction]]))
        steps.append(reached)
        return steps


def cyclic_edges(g: FlagLabeledGraph) -> set[int]:
    """Ids of edges lying on at least one nonrepetitive closed walk."""
    return LabelSwitchDigraph(g).cycle_edge_ids()


def reachable_edges(g: FlagLabeledGraph, vertex: Any, label: Any) -> list[ReachedEdge]:
    """Edge traversals on nonrepetitive walks from (vertex, first label)."""
    return LabelSwitchDigraph(g).reachable_from(vertex, label).edges


def shortest_nonrepetitive_path(
    g: FlagLabeledGraph, src: Any, dst: Any
) -> Optional[list[ReachedEdge]]:
    """Fewest-edge nonrepetitive walk between two vertices, None if absent."""
    return LabelSwitchDigraph(g).shortest_path(src, dst)


def no_reversal_view(g: FlagLabeledGraph) -> FlagLabeledGraph:
    """Relabel every edge of an undirected graph by its own id.

    Nonrepetitive walks of the view are exactly the walks of ``g`` that never
    traverse an edge and immediately traverse it back.
    """
    if g.directed:
        raise ValueError("no-reversal view is defined for undirected graphs")
    edges = []
    for eid in range(g.num_edges):
        u, v = g.endpoints(eid)
        edges.append((u, v, eid))
    return FlagLabeledGraph(
        False, edges, vertices=[g.vertex_name(i) for i in range(g.num_vertices)]
    )
