"""Simple (vertex-disjoint) nonrepetitive paths and cycles in undirected graphs.

The pipeline: first every vertex is replaced by a small gadget that reduces
arbitrary labels to the two labels 0/1 while preserving simple nonrepetitive
paths (``binarize_labels``).  A 0/1-labeled instance with chosen endpoints
and endpoint labels then becomes a skew-symmetric reachability question
(``build_skew_instance``), which is decided by reduction to maximum matching
in a general graph (``regular_reachable``).

Of this work, only the four source and sink arcs, their port edges and the
matching depend on the endpoints.  So each graph is prepared once, on its
first path or cycle query: the self-loops are dropped, the rest is
binarized, and the endpoint-free skew graph is built with the port graph of
its arcs.  The preparation is kept on the graph object, so it is dropped
with the graph, and equal but distinct graphs each prepare their own.
Every instance then adds only its four endpoint arcs to that shared base,
and their port edges to the shared port graph.  A path query asks up to
four instances, one per (start label, end label) between the two centers,
in the order 00, 01, 10, 11, and keeps the first shortest witness.  It
first finds the fewest edges of a nonrepetitive walk between the two
vertices (``_walk_distance``), which no simple nonrepetitive path
undercuts: with no such walk, or with the vertices in different
components, no instance is asked, and the query stops at the first
witness that is that short.  ``simple_cycle_edges`` first peels away
edges that the block structure and the labels at their ends rule out
(``_peeled``), and asks one instance, between the edge's two ports, per
remaining edge that no earlier witness has already put on a cycle.

The matching reduction runs on a port graph that reuses the skew-symmetric
graph's node ids: node x stands for "enter x" and for "leave sigma(x)",
except that the source s stands for "leave s" and its mirror t for "enter
t".  Arc (a, b) becomes the matching edge {sigma(a), b}, or {s, b} when it
leaves the source; arcs into s or out of t give none, and an arc away from s
and t gives the same edge as its mirror.  Each sigma-pair other than {s, t}
adds the idle edge {x, sigma(x)}.  A perfect matching exists iff a regular
source-to-mirror path does.  The witness is traced from s: standing at x,
the mate of port sigma(x) (of s at the start) names the matched arc, which
leads to the next node.  A path query's matching starts from a greedy one,
which fixes the witness it reports.  A cycle edge's starts from the idle
edges, which leave only s and t exposed, so one augmenting search from s
decides it (Berge; Edmonds 1965; the regular-reachability view of Goldberg
and Karzanov, Combinatorica 16, 1996).

The directed versions of these questions are NP-complete and deliberately
not offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .labeled_graph import FlagLabeledGraph
from .matching import perfect_matching_mate


@dataclass(frozen=True)
class BinarizedGraph:
    """0/1-labeled equivalent of a labeled graph for simple-path queries.

    ``graph`` has vertex tokens ("c", v) for the center of each original
    vertex and ("p", v, label, bit) for the per-label ports; the center of
    original vertex i is vertex i.  Original edge i is edge i of the new
    graph (``edge_origin[i] == i``); the gadget wiring edges map to None.
    Simple nonrepetitive paths between centers correspond to simple
    nonrepetitive paths between the original vertices.
    """

    graph: FlagLabeledGraph
    center: dict
    edge_origin: tuple


def binarize_labels(g: FlagLabeledGraph) -> BinarizedGraph:
    if g.directed:
        raise ValueError("binarization is defined for undirected graphs")
    if g.has_self_loops():
        raise ValueError("self-loops are not supported")
    vertices = []
    center = {}
    for vid in range(g.num_vertices):
        name = g.vertex_name(vid)
        center[name] = ("c", name)
        vertices.append(("c", name))
    edges: list[tuple] = []
    for eid in range(g.num_edges):
        u, v = g.endpoints(eid)
        lu, lv = g.edge_labels(eid)
        edges.append((("p", u, lu, 0), ("p", v, lv, 0), 0))
    for vid in range(g.num_vertices):
        name = g.vertex_name(vid)
        for lid in g.vertex_label_ids(vid):
            lab = g.label_name(lid)
            # Port pair per label: walks pass entry-port, center, exit-port,
            # exit-port's twin, forcing a label change at the vertex.
            edges.append((("c", name), ("p", name, lab, 0), 1))
            edges.append((("c", name), ("p", name, lab, 1), 0))
            edges.append((("p", name, lab, 0), ("p", name, lab, 1), 1))
    origin = tuple(
        list(range(g.num_edges)) + [None] * (len(edges) - g.num_edges)
    )
    return BinarizedGraph(FlagLabeledGraph(False, edges, vertices=vertices), center, origin)


@dataclass(frozen=True)
class SkewSymmetricGraph:
    """Digraph with a fixed-point-free involution reversing every arc.

    A graph built by hand is checked in full when it is constructed.  One
    that ``build_skew_instance`` derives from a base (``_base``) shares the
    base's nodes, ``sigma`` and source, and its arcs are the base's arcs
    followed by new ones; only the new arcs are checked, and they must be
    each other's mirrors.
    """

    num_nodes: int
    arcs: tuple[tuple[int, int], ...]
    sigma: tuple[int, ...]
    source: int
    arc_origin: Optional[tuple] = field(default=None, compare=False)
    _base: Optional[SkewSymmetricGraph] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = self.num_nodes
        sig = self.sigma
        base = self._base
        if base is None:
            if len(sig) != n:
                raise ValueError("sigma must cover all nodes")
            for x in range(n):
                if not 0 <= sig[x] < n:
                    raise ValueError(f"sigma maps node {x} outside 0..{n - 1}")
                if sig[x] == x:
                    raise ValueError(f"sigma fixes node {x}")
                if sig[sig[x]] != x:
                    raise ValueError("sigma is not an involution")
            new_arcs = self.arcs
        else:
            if sig is not base.sigma or n != base.num_nodes or self.source != base.source:
                raise ValueError("a derived instance keeps its base's nodes and sigma")
            new_arcs = self.arcs[len(base.arcs):]
        if not 0 <= self.source < n:
            raise ValueError(f"source {self.source} is outside 0..{n - 1}")
        arc_set = set(new_arcs)
        for a, b in new_arcs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"arc ({a},{b}) leaves nodes 0..{n - 1}")
            if (sig[b], sig[a]) not in arc_set:
                raise ValueError(f"mirror of arc ({a},{b}) is missing")

    @cached_property
    def _ports(self) -> tuple[dict[tuple[int, int], int], list[tuple[int, int]]]:
        """The port graph of these arcs: (edge -> first arc index, idle edges)."""
        sig = self.sigma
        s = self.source
        t = sig[s]
        idle = [(x, sig[x]) for x in range(self.num_nodes) if x < sig[x] and x not in (s, t)]
        return _port_edges(self, 0, {}), idle

    @cached_property
    def _components(self) -> list[int]:
        """A component id per node, joining the ends of every arc and every
        node with its mirror.  On a base made by ``_skew_base``, nodes 2u and
        2v share an id iff vertices u and v are connected."""
        root = list(range(self.num_nodes))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        for a, b in (*self.arcs, *enumerate(self.sigma)):
            root[find(a)] = find(b)
        return [find(x) for x in range(self.num_nodes)]


def _port_edges(ssg: SkewSymmetricGraph, first: int, known: dict) -> dict:
    """Port edges of the arcs from index ``first`` on that ``known`` lacks,
    each mapped to the first arc that gives it."""
    sig = ssg.sigma
    s = ssg.source
    t = sig[s]
    arcs = ssg.arcs
    edge_arc: dict[tuple[int, int], int] = {}
    for arc_idx in range(first, len(arcs)):
        a, b = arcs[arc_idx]
        if a == b or a == t or b == s:
            continue
        port = s if a == s else sig[a]
        if port != b:
            key = (port, b) if port < b else (b, port)
            if key not in known:
                edge_arc.setdefault(key, arc_idx)
    return edge_arc


def _binary_bit(token) -> int:
    if token in (0, "0"):
        return 0
    if token in (1, "1"):
        return 1
    raise ValueError(f"label {token!r} is not binary")


def _skew_base(g: FlagLabeledGraph, arc_origin: tuple) -> SkewSymmetricGraph:
    """The endpoint-free part of every skew instance of the 0/1-labeled
    undirected graph ``g``: arcs 2i and 2i+1 traverse edge i, and the source
    2n and its mirror 2n+1 have no arcs yet."""
    n = g.num_vertices
    arcs: list[tuple[int, int]] = []
    for u, v, lu, lv in g.edges:
        bit = _binary_bit(g.label_name(lu))
        if _binary_bit(g.label_name(lv)) != bit:
            raise ValueError("skew-symmetric reduction needs edge labels, not flags")
        # Traversing a b-labeled edge is allowed after arriving on 1-b.
        arcs.append((2 * u + (1 - bit), 2 * v + bit))
        arcs.append((2 * v + (1 - bit), 2 * u + bit))
    sigma = []
    for v in range(n + 1):
        sigma.extend((2 * v + 1, 2 * v))
    return SkewSymmetricGraph(
        2 * n + 2, tuple(arcs), tuple(sigma), 2 * n, arc_origin=arc_origin
    )


def build_skew_instance(
    g: FlagLabeledGraph | SkewSymmetricGraph, p, q, start_label: int, end_label: int
) -> SkewSymmetricGraph:
    """Skew-symmetric reachability instance for one endpoint-label choice.

    Node 2v+b means "standing at v, arrived on a b-labeled edge".  There is a
    simple nonrepetitive p..q path in the 0/1-labeled graph ``g`` whose first
    edge is labeled ``start_label`` and last edge ``end_label`` iff the source
    is regular-reachable to its mirror.

    ``g`` may instead be an endpoint-free skew base, such as the one a
    graph's preparation keeps (see the module docstring), with ``p`` and
    ``q`` vertex ids; the instance then shares the base's arcs, nodes and
    ``sigma`` and adds only the four endpoint arcs.
    """
    if isinstance(g, SkewSymmetricGraph):
        base, pid, qid = g, p, q
    else:
        if g.directed:
            raise ValueError("skew-symmetric reduction needs an undirected graph")
        pid = g.vertex_id(p)
        qid = g.vertex_id(q)
        base = None
    if pid == qid:
        raise ValueError("endpoints must differ")
    if base is None:
        origin = tuple((eid, end) for eid in range(g.num_edges) for end in (0, 1))
        base = _skew_base(g, origin)
    s = base.source
    t = base.sigma[s]
    ends = (
        (s, 2 * pid + (1 - start_label)),
        (s, 2 * qid + (1 - end_label)),
        (2 * qid + end_label, t),
        (2 * pid + start_label, t),
    )
    origin = base.arc_origin
    return SkewSymmetricGraph(
        base.num_nodes,
        base.arcs + ends,
        base.sigma,
        s,
        arc_origin=None if origin is None else origin + (None,) * len(ends),
        _base=base,
    )


def regular_reachable(ssg: SkewSymmetricGraph) -> Optional[list[int]]:
    """Arc indices of a source-to-mirror path using one node per sigma-pair.

    Returns None when no such path exists.  Decided via a perfect matching in
    the port graph described in the module docstring.  An instance derived
    from a base reuses the base's port graph and adds the edges of its own
    arcs between the base's arc edges and the idle edges, which is where a
    port graph built from scratch would have them.
    """
    return _traced_witness(ssg, False)


def _traced_witness(ssg: SkewSymmetricGraph, idle_start: bool) -> Optional[list[int]]:
    """``regular_reachable``, whose matching starts from a greedy one, or
    with ``idle_start`` from the idle edges (see the module docstring)."""
    sig = ssg.sigma
    s = ssg.source
    t = sig[s]
    base = ssg if ssg._base is None else ssg._base
    edge_arc, idle = base._ports
    extra = _port_edges(ssg, len(base.arcs), edge_arc)

    start = None
    if idle_start:
        start = list(sig)
        start[s] = start[t] = -1
    mate, perfect = perfect_matching_mate(
        ssg.num_nodes, [*edge_arc, *extra, *idle], start
    )
    if not perfect:
        return None

    path: list[int] = []
    cur = port = s
    while True:
        other = mate[port]
        key = (port, other) if port < other else (other, port)
        arc_idx = edge_arc.get(key)
        if arc_idx is None:
            arc_idx = extra[key]
        a, b = ssg.arcs[arc_idx]
        if a == cur:
            nxt = b
        else:
            # The matched orbit contains the mirror arc leaving the current node.
            if sig[b] != cur:
                raise RuntimeError("matched edge does not continue the path")
            nxt = sig[a]
        path.append(arc_idx)
        if nxt == t:
            return path
        cur = nxt
        port = sig[cur]


def _loopless(g: FlagLabeledGraph) -> tuple[FlagLabeledGraph, list[int]]:
    if not g.has_self_loops():
        return g, list(range(g.num_edges))
    return g.subgraph(e for e in range(g.num_edges) if not g.is_self_loop(e))


def _prepared(g: FlagLabeledGraph) -> SkewSymmetricGraph:
    """The endpoint-free skew base of ``g``'s binarized loopless part, made
    on the first query and kept in ``g``'s instance dict (where
    ``cached_property`` keeps ``g._incidence``).  Its ``arc_origin`` maps an
    arc to the edge id of ``g`` it traverses, or None for gadget wiring.
    Vertex v of ``g`` is vertex v of the binarized graph (its center), whose
    nodes are 2v and 2v+1, so ``base._components[2 * v]`` names the
    component of v, kept on the base once a path query has asked for it."""
    cache = vars(g)
    base = cache.get("_simple_path_base")
    if base is None:
        loopless, orig_ids = _loopless(g)
        binarized = binarize_labels(loopless)
        edge_of = [None if e is None else orig_ids[e] for e in binarized.edge_origin]
        origin = tuple(edge_of[arc >> 1] for arc in range(2 * len(edge_of)))
        base = cache.setdefault("_simple_path_base", _skew_base(binarized.graph, origin))
    return base


def nonrepetitive_simple_path(g: FlagLabeledGraph, p, q) -> Optional[list[int]]:
    """Edge ids of a simple nonrepetitive p..q path in ``g``, or None.

    Tries the four endpoint-label combinations of the skew-symmetric
    reduction in turn and returns the first shortest witness found.
    ``p == q`` is a zero-length path.  Self loops never occur on simple
    paths and are dropped up front.

    A simple nonrepetitive path is a nonrepetitive walk, so none is shorter
    than ``_walk_distance``.  Vertices in different components, or with no
    nonrepetitive walk between them, have none, which is answered without
    an instance.  Otherwise the tries stop at the first witness of that
    length: a later one would replace it only if it were strictly shorter.

    The first query on ``g`` prepares it: the loopless, binarized,
    endpoint-free skew base and its port graph.  ``g`` keeps the preparation
    until it is itself dropped, so later queries on the same object skip
    that work; the instances of every query share it.
    """
    if g.directed:
        raise ValueError(
            "simple-path search is restricted to undirected graphs; the "
            "directed variant is NP-complete"
        )
    pid = g.vertex_id(p)
    qid = g.vertex_id(q)
    if pid == qid:
        return []
    base = _prepared(g)
    if base._components[2 * pid] != base._components[2 * qid]:
        return None
    bound = _walk_distance(g, pid, qid)
    if bound is None:
        return None
    best: Optional[list[int]] = None
    for start_bit in (0, 1):
        for end_bit in (0, 1):
            ssg = build_skew_instance(base, pid, qid, start_bit, end_bit)
            witness = regular_reachable(ssg)
            if witness is None:
                continue
            origin = ssg.arc_origin
            edge_ids = [origin[arc] for arc in witness if origin[arc] is not None]
            # The source wires to both endpoints, so the witness may have been
            # traced q-to-p; report it from p's side.
            if len(edge_ids) > 1 and p not in g.endpoints(edge_ids[0]):
                edge_ids.reverse()
            if best is None or len(edge_ids) < len(best):
                best = edge_ids
                # No later witness is shorter than the walk distance, and
                # only a shorter one would replace this one.
                if len(best) == bound:
                    return best
    return best


def _walk_distance(g: FlagLabeledGraph, p: int, q: int) -> Optional[int]:
    """The fewest edges of a nonrepetitive walk from vertex id ``p`` to
    vertex id ``q != p`` over the loopless edges of ``g``, or None.

    A breadth-first search over (vertex, arriving flag label) states.  A
    vertex is expanded on its first arrival, along its flags of other
    labels, and once more on its first arrival with a different label,
    which follows the flags the first one skipped.  A later arrival, at no
    shorter distance, could only follow flags that one of those two has
    followed already.  ``p`` is expanded once, along all its flags.  Each
    vertex is thus expanded at most twice, and the search is linear, like
    the paper's expansion.
    """
    edges = g.edges
    first_label: list[Optional[int]] = [None] * g.num_vertices
    closed = [False] * g.num_vertices
    closed[p] = True
    frontier = [(p, -1)]
    distance = 0
    while frontier:
        distance += 1
        reached = []
        for v, arrived in frontier:
            for eid, end in g.incident(v):
                u, w, lu, lw = edges[eid]
                if u == w:
                    continue
                at, to, label = (lu, w, lw) if end == 0 else (lw, u, lu)
                if at == arrived or closed[to]:
                    continue
                if to == q:
                    return distance
                seen = first_label[to]
                if seen is None:
                    first_label[to] = label
                    reached.append((to, label))
                elif seen != label:
                    closed[to] = True
                    reached.append((to, label))
        frontier = reached
    return None


def simple_cycle_edges(g: FlagLabeledGraph) -> set[int]:
    """Edges that belong to some simple nonrepetitive cycle.

    Answered from the same preparation as ``nonrepetitive_simple_path``.
    Edge e is 0-labeled in the binarized graph between pu and pv, the
    label-0 ports of its two flags.  A simple nonrepetitive pu..pv path that
    starts and ends on 1-labeled gadget edges passes the center of every
    gadget it enters, so it enters each at most once; such paths are exactly
    the simple paths of ``g`` that close a nonrepetitive cycle with e.  They
    cannot use e itself, whose ends are the path's own endpoints, so nothing
    is masked.  Parallel edges count as 2-cycles when their labels differ at
    both ends.

    Only the edges that survive ``_peeled`` are candidates.  Each candidate
    that no earlier witness has put in the answer asks one skew instance,
    decided by one augmenting search from the idle matching (see the module
    docstring).  A witness closes a cycle with its candidate, so the
    candidate and every edge on the witness join the answer.  The answer is
    the set of edges on such cycles, whichever witnesses are found.
    """
    if g.directed:
        raise ValueError(
            "simple-cycle search is restricted to undirected graphs; the "
            "directed variant is NP-complete"
        )
    base = _prepared(g)
    live = _peeled(g)
    loopless = g.num_edges - sum(map(g.is_self_loop, range(g.num_edges)))
    result: set[int] = set()
    # The base's arcs start with the loopless edges, two per edge; arc 2i
    # runs (2 pu + 1, 2 pv).
    for arc in range(0, 2 * loopless, 2):
        edge = base.arc_origin[arc]
        if not live[edge] or edge in result:
            continue
        a, b = base.arcs[arc]
        ssg = build_skew_instance(base, a >> 1, b >> 1, 1, 1)
        witness = _traced_witness(ssg, True)
        if witness is not None:
            origin = ssg.arc_origin
            result.add(edge)
            result.update(origin[x] for x in witness if origin[x] is not None)
    return result


def _blocks(num_vertices: int, edge_list: list[tuple[int, int, int]]) -> list[list[int]]:
    """Blocks (biconnected components) as edge id lists, via iterative lowlink
    with an edge stack; a bridge is a one-edge block, parallel edges share one."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for eid, u, v in edge_list:
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * num_vertices
    low = [0] * num_vertices
    blocks: list[list[int]] = []
    edges: list[int] = []  # tree and back edges not yet in a block
    counter = 0
    for root in range(num_vertices):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, 0, 0)]
        while stack:
            v, in_edge, i, mark = stack.pop()
            if i < len(adj[v]):
                stack.append((v, in_edge, i + 1, mark))
                w, eid = adj[v][i]
                if eid == in_edge:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eid, 0, len(edges)))
                    edges.append(eid)
                elif disc[w] < disc[v]:
                    low[v] = min(low[v], disc[w])
                    edges.append(eid)
            elif in_edge != -1:
                # leaving v: propagate lowlink to the parent frame
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    blocks.append(edges[mark:])
                    del edges[mark:]
    return blocks


def has_nonrepetitive_simple_cycle(g: FlagLabeledGraph) -> bool:
    """Existence of a simple nonrepetitive cycle in a 0/1-labeled graph.

    True iff some edge survives ``_peeled``.  At its fixed point every
    vertex keeps two labels inside each of its blocks, and a block like that
    has a simple nonrepetitive cycle (Grossman and Häggkvist, JCTB 34, 1983,
    for two labels; Yeo, JCTB 69, 1997, for any number), so the answer is
    exact.
    """
    if g.directed:
        raise ValueError("peeling test is for undirected graphs")
    for eid in range(g.num_edges):
        lu, lv = g.edge_labels(eid)
        _binary_bit(lu)
        _binary_bit(lv)
    return any(_peeled(g))


def _peeled(g: FlagLabeledGraph) -> list[bool]:
    """Per edge of the undirected graph ``g``, whether it survives peeling;
    a peeled edge lies on no simple nonrepetitive cycle, whatever the labels.

    Self-loops are peeled first.  A simple cycle lies inside one block
    (biconnected component) of the live edges and uses two of a vertex's
    edges there, with different labels, so a vertex whose live edges inside
    a block all share one label lies on no such cycle of that block, and
    those edges are cut.  A bridge is a one-edge block, and is always cut.

    Cutting an edge only makes more edges cuttable, so the fixed point does
    not depend on the order of the cuts.  Each vertex keeps a count of its
    live edges per label; a worklist holds the vertices whose counts changed
    and peels those left with one label over all their blocks, and the
    blocks are found only when it runs dry.
    """
    alive = [u != v for u, v, _, _ in g.edges]
    live: list[dict[int, int]] = [{} for _ in range(g.num_vertices)]
    for eid, (u, v, lu, lv) in enumerate(g.edges):
        if alive[eid]:
            live[u][lu] = live[u].get(lu, 0) + 1
            live[v][lv] = live[v].get(lv, 0) + 1

    def cut(eid: int) -> None:
        alive[eid] = False
        u, v, lu, lv = g.edges[eid]
        for x, lx in ((u, lu), (v, lv)):
            if live[x][lx] == 1:
                del live[x][lx]
            else:
                live[x][lx] -= 1
            work.append(x)

    work = list(range(g.num_vertices))
    while True:
        while work:
            vid = work.pop()
            if len(live[vid]) == 1:
                for eid, _ in g.incident(vid):
                    if alive[eid]:
                        cut(eid)
        edge_list = [(eid, u, v) for eid, (u, v, _, _) in enumerate(g.edges) if alive[eid]]
        doomed = []
        for block in _blocks(g.num_vertices, edge_list):
            labels: dict[int, set] = {}
            for eid in block:
                u, v, lu, lv = g.edges[eid]
                labels.setdefault(u, set()).add(lu)
                labels.setdefault(v, set()).add(lv)
            doomed += [eid for eid in block if any(len(labels[x]) == 1 for x in g.edges[eid][:2])]
        if not doomed:
            return alive
        for eid in doomed:
            cut(eid)
