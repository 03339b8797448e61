"""Independent brute-force oracles used to validate the fast implementations.

Everything here favors obviousness over speed: explicit state graphs with
networkx strong connectivity, exhaustive DFS enumeration, and subset search
for matchings.  None of it shares code with the package's algorithms.

The sections at the end are different: they keep earlier versions of package
code as the reference its replacements must equal.  They are the numpy-scalar
Sudoku and graph kernels, the per-vertex-dict expansion builder (which still
uses the package's ``build_csr`` and gadget builders), the recursive
``classify_edges`` and the numpy-scalar matchers.
"""

from __future__ import annotations

from random import Random
from types import SimpleNamespace
from typing import Any, Optional

import networkx as nx
import numpy as np

from nonrep._kernels import build_csr
from nonrep.engine import ReachedEdge
from nonrep.gadget import build_dense_gadget, build_switch_gadget
from nonrep.labeled_graph import FlagLabeledGraph
from nonrep.matching import (
    FORBIDDEN,
    MANDATORY,
    OPTIONAL,
    BipartiteInstance,
    EdgeClassification,
)


def _traversals(g: FlagLabeledGraph, vid: int):
    """(edge_id, far_vertex, near_label, far_label) for walks leaving vid."""
    for eid, end in g.incident(vid):
        if g.is_self_loop(eid):
            continue
        if g.directed and end != 0:
            continue
        u, v, lu, lv = g.edges[eid]
        if end == 0:
            yield eid, v, lu, lv
        else:
            yield eid, u, lv, lu


def state_graph(g: FlagLabeledGraph) -> nx.DiGraph:
    """Arrival states (vertex, label at arrival) with legal continuations."""
    sg = nx.DiGraph()
    for vid in range(g.num_vertices):
        for eid, far, near, far_label in _traversals(g, vid):
            sg.add_node((far, far_label))
    for vid in range(g.num_vertices):
        for eid, far, near, far_label in _traversals(g, vid):
            for state in list(sg.nodes):
                sv, sl = state
                if sv == vid and sl != near:
                    sg.add_edge(state, (far, far_label))
    return sg


def oracle_cyclic_edges(g: FlagLabeledGraph) -> set[int]:
    """Edge ids on nonrepetitive closed walks, via state-graph strong components."""
    sg = state_graph(g)
    comp: dict = {}
    for i, scc in enumerate(nx.strongly_connected_components(sg)):
        for node in scc:
            comp[node] = i
    cyclic: set[int] = set()
    for vid in range(g.num_vertices):
        for eid, far, near, far_label in _traversals(g, vid):
            target = comp.get((far, far_label))
            if target is None:
                continue
            for state in comp:
                sv, sl = state
                if sv == vid and sl != near and comp[state] == target:
                    cyclic.add(eid)
                    break
    return cyclic


def oracle_reachable(g: FlagLabeledGraph, vertex, label) -> set[tuple]:
    """Set of (edge_id, tail, head, far_label) reachable from a start flag."""
    vid = g.vertex_id(vertex)
    results: set[tuple] = set()
    seen_states: set[tuple[int, object]] = set()
    frontier: list[tuple[int, object]] = []
    for eid, far, near, far_label in _traversals(g, vid):
        if g.label_name(near) != label:
            continue
        results.add(
            (eid, g.vertex_name(vid), g.vertex_name(far), g.label_name(far_label))
        )
        if (far, far_label) not in seen_states:
            seen_states.add((far, far_label))
            frontier.append((far, far_label))
    while frontier:
        cur, cur_label = frontier.pop()
        for eid, far, near, far_label in _traversals(g, cur):
            if near == cur_label:
                continue
            results.add(
                (eid, g.vertex_name(cur), g.vertex_name(far), g.label_name(far_label))
            )
            if (far, far_label) not in seen_states:
                seen_states.add((far, far_label))
                frontier.append((far, far_label))
    return results


def oracle_shortest_length(g: FlagLabeledGraph, src, dst):
    """Edge count of the shortest nonrepetitive walk, or None."""
    s = g.vertex_id(src)
    t = g.vertex_id(dst)
    if s == t:
        return 0
    dist: dict[tuple[int, object], int] = {}
    frontier = []
    for eid, far, near, far_label in _traversals(g, s):
        state = (far, far_label)
        if state not in dist:
            dist[state] = 1
            frontier.append(state)
    best = None
    depth = 1
    while frontier:
        nxt = []
        for cur, cur_label in frontier:
            if cur == t:
                best = depth if best is None else min(best, depth)
        if best is not None:
            return best
        for cur, cur_label in frontier:
            for eid, far, near, far_label in _traversals(g, cur):
                if near == cur_label:
                    continue
                state = (far, far_label)
                if state not in dist:
                    dist[state] = depth + 1
                    nxt.append(state)
        frontier = nxt
        depth += 1
    return None


# -- matchings ------------------------------------------------------------------


def brute_bipartite_max(left: int, edges: list[tuple[int, int]]) -> int:
    """Maximum matching size by branching over left vertices."""

    def best(l: int, used_right: frozenset) -> int:
        if l == left:
            return 0
        top = best(l + 1, used_right)
        for a, b in edges:
            if a == l and b not in used_right:
                top = max(top, 1 + best(l + 1, used_right | {b}))
        return top

    return best(0, frozenset())


def brute_perfect_matchings(left: int, right: int, edges) -> list[tuple[int, ...]]:
    """All perfect matchings as tuples mate[l] = r; empty when none exist."""
    if left != right:
        return []
    adjacency = [[] for _ in range(left)]
    for a, b in edges:
        adjacency[a].append(b)
    found: list[tuple[int, ...]] = []
    mate = [-1] * left

    def fill(l: int, used: set):
        if l == left:
            found.append(tuple(mate))
            return
        for b in adjacency[l]:
            if b not in used:
                mate[l] = b
                used.add(b)
                fill(l + 1, used)
                used.remove(b)
        mate[l] = -1

    fill(0, set())
    return found


def brute_general_max(n: int, edges: list[tuple[int, int]]) -> int:
    """Maximum matching size in a general graph by vertex branching."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    def best(v: int, used: int) -> int:
        while v < n and used >> v & 1:
            v += 1
        if v >= n:
            return 0
        top = best(v + 1, used | 1 << v)  # leave v unmatched
        for w in adjacency[v]:
            if w > v and not used >> w & 1:
                top = max(top, 1 + best(v + 1, used | 1 << v | 1 << w))
            elif w < v and not used >> w & 1:
                top = max(top, 1 + best(v + 1, used | 1 << v | 1 << w))
        return top

    return best(0, 0)


def brute_regular_reachable(num_nodes, arcs, sigma, source) -> bool:
    """DFS for a source-to-mirror path using one node per sigma-pair."""
    target = sigma[source]
    adjacency = [[] for _ in range(num_nodes)]
    for a, b in arcs:
        adjacency[a].append(b)

    def pair(x):
        return min(x, sigma[x])

    def walk(cur, used: frozenset) -> bool:
        if cur == target:
            return True
        for nxt in adjacency[cur]:
            if nxt == source:
                continue
            if nxt != target and pair(nxt) in used:
                continue
            if walk(nxt, used | {pair(nxt)}):
                return True
        return False

    return walk(source, frozenset({pair(source)}))


# -- random instances -------------------------------------------------------------


def random_flag_graph(
    rng: Random,
    max_vertices: int = 8,
    max_labels: int = 3,
    directed: bool | None = None,
    flag_labeled: bool = False,
    max_edges: int | None = None,
) -> FlagLabeledGraph:
    n = rng.randint(2, max_vertices)
    if directed is None:
        directed = rng.random() < 0.5
    cap = max_edges if max_edges is not None else 2 * n
    m = rng.randint(1, cap)
    labels = [f"L{i}" for i in range(1, max_labels + 1)]
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        if flag_labeled:
            edges.append((f"v{u}", f"v{v}", rng.choice(labels), rng.choice(labels)))
        else:
            edges.append((f"v{u}", f"v{v}", rng.choice(labels)))
    return FlagLabeledGraph(
        directed, edges, vertices=[f"v{i}" for i in range(n)]
    )


def random_skew_symmetric(rng: Random, max_pairs: int = 12):
    """Random involution-closed digraph plus a source node."""
    from nonrep.simple_paths import SkewSymmetricGraph

    pairs = rng.randint(1, max_pairs)
    num = 2 * pairs
    sigma = []
    for i in range(pairs):
        sigma.extend((2 * i + 1, 2 * i))
    arcs = set()
    for _ in range(rng.randint(0, 3 * pairs)):
        a = rng.randrange(num)
        b = rng.randrange(num)
        if a == b:
            continue
        arcs.add((a, b))
        arcs.add((sigma[b], sigma[a]))
    source = rng.randrange(num)
    return SkewSymmetricGraph(num, tuple(sorted(arcs)), tuple(sigma), source)


# -- path validity -----------------------------------------------------------------


def is_simple_nonrep_path(g: FlagLabeledGraph, edge_ids, p, q) -> bool:
    """Check a witness: a vertex-simple p..q trail with switching flag labels."""
    if p == q:
        return edge_ids == []
    current = g.vertex_id(p)
    target = g.vertex_id(q)
    visited = {current}
    prev_label = None
    for eid in edge_ids:
        u, v, lu, lv = g.edges[eid]
        if u == current:
            nxt, near, far = v, lu, lv
        elif v == current:
            nxt, near, far = u, lv, lu
        else:
            return False
        if prev_label is not None and near == prev_label:
            return False
        if nxt in visited:
            return False
        visited.add(nxt)
        prev_label = far
        current = nxt
    return current == target


# ---------------------------------------------------------------------------
# Sudoku kernels over numpy int64 scalars, kept verbatim from the version the
# Python-int kernels in ``nonrep._kernels`` replaced; the equality tests run
# both on the same boards.
# ---------------------------------------------------------------------------


def count_and_first(box, values, cap):
    """Backtracking completion count (saturating at cap) plus first solution.

    ``values`` holds 0 for empty cells and 1..N for placed digits.  Branches
    on a minimum-candidate cell, digits in ascending order, so the count and
    the first solution found are deterministic.
    """
    n = box * box
    size = n * n
    full = (np.int64(1) << n) - 1
    row_used = np.zeros(n, np.int64)
    col_used = np.zeros(n, np.int64)
    box_used = np.zeros(n, np.int64)
    work = values.copy()
    first = np.zeros(size, np.int64)
    for i in range(size):
        d = work[i]
        if d == 0:
            continue
        bit = np.int64(1) << (d - 1)
        r = i // n
        c = i % n
        b = (r // box) * box + c // box
        if (row_used[r] | col_used[c] | box_used[b]) & bit:
            return np.int64(0), first
        row_used[r] |= bit
        col_used[c] |= bit
        box_used[b] |= bit
    stack_cell = np.empty(size + 1, np.int64)
    stack_rest = np.empty(size + 1, np.int64)
    stack_bit = np.empty(size + 1, np.int64)
    count = np.int64(0)
    depth = 0
    descend = True
    while True:
        if descend:
            best = np.int64(-1)
            best_mask = np.int64(0)
            best_count = n + 1
            dead = False
            for i in range(size):
                if work[i] != 0:
                    continue
                r = i // n
                c = i % n
                b = (r // box) * box + c // box
                mask = full & ~(row_used[r] | col_used[c] | box_used[b])
                if mask == 0:
                    dead = True
                    break
                cnt = 0
                mm = mask
                while mm:
                    mm &= mm - 1
                    cnt += 1
                if cnt < best_count:
                    best_count = cnt
                    best = i
                    best_mask = mask
                    if cnt == 1:
                        break
            if dead:
                descend = False
            elif best == -1:
                count += 1
                if count == 1:
                    for i in range(size):
                        first[i] = work[i]
                if count >= cap:
                    return count, first
                descend = False
            else:
                stack_cell[depth] = best
                stack_rest[depth] = best_mask
                stack_bit[depth] = 0
                depth += 1
                descend = False
                # fall through to try the first digit of the new frame
        if depth == 0:
            return count, first
        frame = depth - 1
        i = stack_cell[frame]
        bit = stack_bit[frame]
        if bit != 0:
            # undo previous attempt at this frame
            r = i // n
            c = i % n
            b = (r // box) * box + c // box
            row_used[r] &= ~bit
            col_used[c] &= ~bit
            box_used[b] &= ~bit
            work[i] = 0
        rest = stack_rest[frame]
        if rest == 0:
            stack_bit[frame] = 0
            depth -= 1
            descend = False
            continue
        bit = rest & -rest
        stack_rest[frame] = rest ^ bit
        stack_bit[frame] = bit
        d = 0
        bb = bit
        while bb > 1:
            bb >>= 1
            d += 1
        work[i] = d + 1
        r = i // n
        c = i % n
        b = (r // box) * box + c // box
        row_used[r] |= bit
        col_used[c] |= bit
        box_used[b] |= bit
        descend = True


def propagate_singles(box, values):
    """Fill naked and hidden singles in place until a fixed point.

    Returns 1 if the grid completed, 0 if it stalled, -1 on contradiction
    (an empty cell with no candidates, a digit with no remaining home in
    some group, or conflicting givens).
    """
    n = box * box
    size = n * n
    full = (np.int64(1) << n) - 1
    row_used = np.zeros(n, np.int64)
    col_used = np.zeros(n, np.int64)
    box_used = np.zeros(n, np.int64)
    for i in range(size):
        d = values[i]
        if d == 0:
            continue
        bit = np.int64(1) << (d - 1)
        r = i // n
        c = i % n
        b = (r // box) * box + c // box
        if (row_used[r] | col_used[c] | box_used[b]) & bit:
            return -1
        row_used[r] |= bit
        col_used[c] |= bit
        box_used[b] |= bit
    changed = True
    while changed:
        changed = False
        for i in range(size):
            if values[i] != 0:
                continue
            r = i // n
            c = i % n
            b = (r // box) * box + c // box
            mask = full & ~(row_used[r] | col_used[c] | box_used[b])
            if mask == 0:
                return -1
            if mask & (mask - 1) == 0:
                d = 0
                mm = mask
                while mm > 1:
                    mm >>= 1
                    d += 1
                values[i] = d + 1
                row_used[r] |= mask
                col_used[c] |= mask
                box_used[b] |= mask
                changed = True
        for kind in range(3):
            for g in range(n):
                placed = np.int64(0)
                for j in range(n):
                    if kind == 0:
                        i = g * n + j
                    elif kind == 1:
                        i = j * n + g
                    else:
                        i = ((g // box) * box + j // box) * n + (g % box) * box + j % box
                    if values[i] != 0:
                        placed |= np.int64(1) << (values[i] - 1)
                for d in range(n):
                    bit = np.int64(1) << d
                    if placed & bit:
                        continue
                    home = np.int64(-1)
                    nhomes = 0
                    for j in range(n):
                        if kind == 0:
                            i = g * n + j
                        elif kind == 1:
                            i = j * n + g
                        else:
                            i = ((g // box) * box + j // box) * n + (g % box) * box + j % box
                        if values[i] != 0:
                            continue
                        r = i // n
                        c = i % n
                        b = (r // box) * box + c // box
                        if not (row_used[r] | col_used[c] | box_used[b]) & bit:
                            nhomes += 1
                            home = i
                            if nhomes > 1:
                                break
                    if nhomes == 0:
                        return -1
                    if nhomes == 1:
                        values[home] = d + 1
                        r = home // n
                        c = home % n
                        b = (r // box) * box + c // box
                        row_used[r] |= bit
                        col_used[c] |= bit
                        box_used[b] |= bit
                        changed = True
    for i in range(size):
        if values[i] == 0:
            return 0
    return 1


# ---------------------------------------------------------------------------
# Graph kernels over numpy int64 scalars and the per-vertex-dict expansion
# builder, kept verbatim from the version the list-based kernels and the
# array-built ``nonrep.engine.LabelSwitchDigraph`` replaced.  The expansion
# calls these kernels through ``_kernels`` below, so it runs wholly on the old
# code; the equality tests compare CSR arrays, kernel outputs and query
# answers of both.
# ---------------------------------------------------------------------------

_UNREACHED = np.int64(2**62)


def scc_csr(indptr, indices):
    """Strongly connected components; ids in reverse topological order."""
    n = indptr.shape[0] - 1
    disc = np.full(n, -1, np.int64)
    low = np.zeros(n, np.int64)
    comp = np.full(n, -1, np.int64)
    on_stack = np.zeros(n, np.uint8)
    stack = np.empty(n, np.int64)
    dfs_v = np.empty(n + 1, np.int64)
    dfs_e = np.empty(n + 1, np.int64)
    sp = 0
    counter = 0
    ncomp = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        top = 0
        dfs_v[0] = root
        dfs_e[0] = indptr[root]
        disc[root] = counter
        low[root] = counter
        counter += 1
        stack[sp] = root
        sp += 1
        on_stack[root] = 1
        while top >= 0:
            v = dfs_v[top]
            e = dfs_e[top]
            if e < indptr[v + 1]:
                dfs_e[top] = e + 1
                w = indices[e]
                if disc[w] == -1:
                    disc[w] = counter
                    low[w] = counter
                    counter += 1
                    stack[sp] = w
                    sp += 1
                    on_stack[w] = 1
                    top += 1
                    dfs_v[top] = w
                    dfs_e[top] = indptr[w]
                elif on_stack[w] and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                if low[v] == disc[v]:
                    while True:
                        w = stack[sp - 1]
                        sp -= 1
                        on_stack[w] = 0
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                top -= 1
                if top >= 0 and low[v] < low[dfs_v[top]]:
                    low[dfs_v[top]] = low[v]
    return comp



def reach_csr(indptr, indices, start):
    """DFS reachability; returns (visited uint8, parent CSR arc position)."""
    n = indptr.shape[0] - 1
    visited = np.zeros(n, np.uint8)
    parent_arc = np.full(n, -1, np.int64)
    stack = np.empty(n, np.int64)
    visited[start] = 1
    stack[0] = start
    top = 1
    while top > 0:
        top -= 1
        v = stack[top]
        for e in range(indptr[v], indptr[v + 1]):
            w = indices[e]
            if not visited[w]:
                visited[w] = 1
                parent_arc[w] = e
                stack[top] = w
                top += 1
    return visited, parent_arc



def bfs01(indptr, indices, unit, sources):
    """0/1-weighted BFS (``unit[arc]`` is the arc cost, 0 or 1).

    Returns (dist, parent CSR arc position); unreached nodes keep a distance
    of 2**62.
    """
    n = indptr.shape[0] - 1
    m = indices.shape[0]
    dist = np.full(n, _UNREACHED, np.int64)
    parent_arc = np.full(n, -1, np.int64)
    size = 2 * (n + m) + 2
    deque = np.empty(size, np.int64)
    head = n + m + 1
    tail = n + m + 1
    for i in range(sources.shape[0]):
        s = sources[i]
        dist[s] = 0
        deque[tail] = s
        tail += 1
    while head < tail:
        v = deque[head]
        head += 1
        for e in range(indptr[v], indptr[v + 1]):
            w = indices[e]
            nd = dist[v] + unit[e]
            if nd < dist[w]:
                dist[w] = nd
                parent_arc[w] = e
                if unit[e] == 0:
                    head -= 1
                    deque[head] = w
                else:
                    deque[tail] = w
                    tail += 1
    return dist, parent_arc



_kernels = SimpleNamespace(
    build_csr=build_csr,
    scc_csr=scc_csr,
    reach_csr=reach_csr,
    bfs01=bfs01,
    _UNREACHED=_UNREACHED,
)


class LabelSwitchDigraph:
    """The expanded digraph plus provenance maps back to the input graph.

    Immutable after construction; all queries are read-only.
    """

    def __init__(self, graph: FlagLabeledGraph, dense: bool = False):
        if graph.has_self_loops():
            raise ValueError("self-loops are not supported by the expansion")
        self.graph = graph
        build = build_dense_gadget if dense else build_switch_gadget
        n = graph.num_vertices
        m = graph.num_edges

        entry_node: dict[tuple[int, int], int] = {}
        exit_node: dict[tuple[int, int], int] = {}
        node_origin: list[tuple[int, Optional[int], str]] = []
        tails: list[int] = []
        heads: list[int] = []
        self._vertex_label_count = [0] * n

        num_nodes = 0
        for v in range(n):
            labels = graph.vertex_label_ids(v)
            self._vertex_label_count[v] = len(labels)
            if not labels:
                continue
            gadget = build(len(labels))
            off = num_nodes
            num_nodes += gadget.num_nodes
            node_origin.extend((v, None, "internal") for _ in range(gadget.num_nodes))
            for slot, lab in enumerate(labels):
                entry = off + gadget.entry[slot]
                exit_ = off + gadget.exit[slot]
                entry_node[(v, lab)] = entry
                exit_node[(v, lab)] = exit_
                node_origin[entry] = (v, lab, "entry")
                node_origin[exit_] = (v, lab, "exit")
            for a, b in gadget.arcs:
                tails.append(off + a)
                heads.append(off + b)

        internal_arcs = len(tails)
        # Connector arcs: one per traversal direction of each edge.  A walk
        # leaves the near vertex through the exit node of the near flag label
        # and enters the far vertex at the entry node of the far flag label.
        conn_arc_index = np.full((m, 2), -1, dtype=np.int64)
        for eid, (u, v, lu, lv) in enumerate(graph.edges):
            conn_arc_index[eid, 0] = len(tails)
            tails.append(exit_node[(u, lu)])
            heads.append(entry_node[(v, lv)])
            if not graph.directed:
                conn_arc_index[eid, 1] = len(tails)
                tails.append(exit_node[(v, lv)])
                heads.append(entry_node[(u, lu)])

        self.num_nodes = num_nodes
        self.num_arcs = len(tails)
        self.entry_node = entry_node
        self.exit_node = exit_node
        self.node_origin = node_origin
        indptr, indices, pos_of_arc = _kernels.build_csr(
            num_nodes, np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64)
        )
        self.indptr = indptr
        self.indices = indices
        self._tail_of_pos = np.array(tails, dtype=np.int64)[np.argsort(pos_of_arc)]
        self.is_connector = np.zeros(self.num_arcs, dtype=np.uint8)
        self.is_connector[pos_of_arc[internal_arcs:]] = 1
        self.conn_pos = np.where(conn_arc_index >= 0, pos_of_arc[conn_arc_index], -1)
        # (edge, direction) owning each CSR position, -1 for gadget arcs
        self._pos_edge = np.full(self.num_arcs, -1, dtype=np.int64)
        self._pos_dir = np.full(self.num_arcs, -1, dtype=np.int64)
        for eid in range(m):
            for d in range(2):
                pos = self.conn_pos[eid, d]
                if pos >= 0:
                    self._pos_edge[pos] = eid
                    self._pos_dir[pos] = d
        self._scc: Optional[np.ndarray] = None

    # -- helpers -------------------------------------------------------------

    def _directions(self, eid: int):
        return (0,) if self.graph.directed else (0, 1)

    def _oriented(self, eid: int, direction: int) -> ReachedEdge:
        u, v = self.graph.endpoints(eid)
        lu, lv = self.graph.edge_labels(eid)
        if direction == 0:
            return ReachedEdge(eid, u, v, lv)
        return ReachedEdge(eid, v, u, lu)

    @property
    def scc(self) -> np.ndarray:
        """Component id per node, in reverse topological order."""
        if self._scc is None:
            self._scc = _kernels.scc_csr(self.indptr, self.indices)
        return self._scc

    # -- queries --------------------------------------------------------------

    def cycle_directions(self) -> list[ReachedEdge]:
        """Edge traversals that lie on some nonrepetitive closed walk."""
        comp = self.scc
        out = []
        for eid in range(self.graph.num_edges):
            for d in self._directions(eid):
                pos = self.conn_pos[eid, d]
                if comp[self._tail_of_pos[pos]] == comp[self.indices[pos]]:
                    out.append(self._oriented(eid, d))
        return out

    def cycle_edge_ids(self) -> set[int]:
        return {edge.edge_id for edge in self.cycle_directions()}

    def cycle_transit_pairs(self, vertex: Any) -> set[frozenset]:
        """Label pairs {x, y} of consecutive edges some nonrepetitive closed
        walk uses at this vertex (entering on one, leaving on the other).

        The pair is realized exactly when the entry node of x and the exit
        node of y share a strong component: the gadget supplies the entry
        -> exit hop and the component supplies the return path.
        """
        vid = self.graph.vertex_id(vertex)
        comp = self.scc
        labels = self.graph.vertex_label_ids(vid)
        pairs: set[frozenset] = set()
        for x in labels:
            enter = self.entry_node[(vid, x)]
            for y in labels:
                if x == y:
                    continue
                if comp[enter] == comp[self.exit_node[(vid, y)]]:
                    pairs.add(
                        frozenset(
                            (self.graph.label_name(x), self.graph.label_name(y))
                        )
                    )
        return pairs

    def reachable_from(self, vertex: Any, label: Any) -> "ReachResult":
        """Edges on nonrepetitive walks starting at ``vertex`` with first
        edge flag label ``label``; empty when no such incident edge exists."""
        vid = self.graph.vertex_id(vertex)
        lid = self.graph.label_id(label)
        start = self.exit_node.get((vid, lid)) if lid is not None else None
        if start is None:
            return ReachResult(self, None, None, [])
        visited, parent = _kernels.reach_csr(self.indptr, self.indices, start)
        edges = []
        for eid in range(self.graph.num_edges):
            for d in self._directions(eid):
                pos = self.conn_pos[eid, d]
                if visited[self._tail_of_pos[pos]]:
                    edges.append(self._oriented(eid, d))
        return ReachResult(self, start, parent, edges)

    def shortest_path(self, src: Any, dst: Any) -> Optional[list[ReachedEdge]]:
        """Minimum-edge-count nonrepetitive walk from src to dst, or None."""
        s = self.graph.vertex_id(src)
        t = self.graph.vertex_id(dst)
        if s == t:
            return []
        sources = [
            node for (v, _lab), node in self.exit_node.items() if v == s
        ]
        targets = [
            node for (v, _lab), node in self.entry_node.items() if v == t
        ]
        if not sources or not targets:
            return None
        dist, parent = _kernels.bfs01(
            self.indptr,
            self.indices,
            self.is_connector,
            np.array(sorted(sources), dtype=np.int64),
        )
        best = min(sorted(targets), key=lambda node: (int(dist[node]), node))
        if dist[best] >= _kernels._UNREACHED:
            return None
        return self._walk_to_node(parent, best)

    def _walk_to_node(self, parent: np.ndarray, node: int) -> list[ReachedEdge]:
        steps = []
        while parent[node] != -1:
            pos = parent[node]
            eid = self._pos_edge[pos]
            if eid != -1:
                steps.append(self._oriented(int(eid), int(self._pos_dir[pos])))
            node = int(self._tail_of_pos[pos])
        steps.reverse()
        return steps



class ReachResult:
    """Result of :meth:`LabelSwitchDigraph.reachable_from` plus witness walks."""

    def __init__(self, expansion, start, parent, edges: list[ReachedEdge]):
        self._expansion = expansion
        self._start = start
        self._parent = parent
        self.edges = edges
        self._by_key = {(e.edge_id, e.tail): e for e in edges}

    def __iter__(self):
        return iter(self.edges)

    def __len__(self):
        return len(self.edges)

    def edge_ids(self) -> set[int]:
        return {e.edge_id for e in self.edges}

    def walk_to(self, reached: ReachedEdge) -> list[ReachedEdge]:
        """A nonrepetitive walk from the start ending with ``reached``."""
        if self._parent is None:
            raise ValueError("empty reach result has no walks")
        ex = self._expansion
        direction = 0 if reached.tail == ex.graph.endpoints(reached.edge_id)[0] else 1
        pos = ex.conn_pos[reached.edge_id, direction]
        steps = ex._walk_to_node(self._parent, int(ex._tail_of_pos[pos]))
        steps.append(reached)
        return steps



# ---------------------------------------------------------------------------
# Bipartite matching and edge classification with a recursive Kuhn search,
# O(m) re-solves for mandatory edges and a private Tarjan, kept verbatim from
# the version ``nonrep.matching`` replaced.
# ---------------------------------------------------------------------------


def _kuhn(inst: BipartiteInstance) -> tuple[list[int], list[int]]:
    """Deterministic augmenting-path matching; left vertices in index order."""
    # The body of the deleted ``BipartiteInstance.adjacency`` property.
    adj: list[list[tuple[int, int]]] = [[] for _ in range(inst.left_size)]
    for idx, (l, r) in enumerate(inst.edges):
        adj[l].append((r, idx))
    mate_l = [-1] * inst.left_size
    mate_r = [-1] * inst.right_size

    def try_augment(l: int, visited: set[int]) -> bool:
        for r, _ in adj[l]:
            if r in visited:
                continue
            visited.add(r)
            if mate_r[r] == -1 or try_augment(mate_r[r], visited):
                mate_l[l] = r
                mate_r[r] = l
                return True
        return False

    for l in range(inst.left_size):
        try_augment(l, set())
    return mate_l, mate_r



def matching_size(inst: BipartiteInstance) -> int:
    mate_l, _ = _kuhn(inst)
    return sum(1 for r in mate_l if r >= 0)



def _scc(num: int, adj: list[list[int]]) -> list[int]:
    """Tiny iterative Tarjan for the orientation graph."""
    disc = [-1] * num
    low = [0] * num
    comp = [-1] * num
    on_stack = [False] * num
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(num):
        if disc[root] != -1:
            continue
        work = [(root, 0)]
        disc[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, i + 1)
                w = adj[v][i]
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], disc[w])
            else:
                work.pop()
                if low[v] == disc[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    return comp



def classify_edges(inst: BipartiteInstance) -> EdgeClassification:
    """Mandatory / forbidden / optional relative to perfect matchings.

    Without a perfect matching the classification is made relative to
    maximum matchings instead and the result is flagged ``perfect=False``.
    """
    if inst.left_size == 0 or inst.right_size == 0:
        raise ValueError("empty instance")
    mate_l, mate_r = _kuhn(inst)
    size = sum(1 for r in mate_l if r >= 0)
    perfect = size == inst.left_size == inst.right_size
    labels = [OPTIONAL] * len(inst.edges)

    if perfect:
        # Orientation: matched l -> r, unmatched r -> l; nodes 0..L-1 then rights.
        num = inst.left_size + inst.right_size
        adj: list[list[int]] = [[] for _ in range(num)]
        for l, r in inst.edges:
            if mate_l[l] == r:
                adj[l].append(inst.left_size + r)
            else:
                adj[inst.left_size + r].append(l)
        comp = _scc(num, adj)
        for idx, (l, r) in enumerate(inst.edges):
            if mate_l[l] != r and comp[l] != comp[inst.left_size + r]:
                labels[idx] = FORBIDDEN
    else:
        for idx, (l, r) in enumerate(inst.edges):
            rest = tuple(
                e for e in inst.edges if e != (l, r) and e[0] != l and e[1] != r
            )
            forced = BipartiteInstance(inst.left_size, inst.right_size, rest)
            if matching_size(forced) + 1 < size:
                labels[idx] = FORBIDDEN

    for idx, (l, r) in enumerate(inst.edges):
        if mate_l[l] != r:
            continue
        rest = tuple(e for i, e in enumerate(inst.edges) if i != idx)
        if matching_size(BipartiteInstance(inst.left_size, inst.right_size, rest)) < size:
            labels[idx] = MANDATORY
    return EdgeClassification(tuple(labels), perfect)



# ---------------------------------------------------------------------------
# Matching kernels over numpy int64 scalars, kept verbatim from the version
# the list-based kernels in ``nonrep._kernels`` replaced: the breadth-first
# ``kuhn_bipartite``, the ``bipartite_forbidden`` built on it (here it runs on
# the numpy-scalar ``scc_csr`` above, which gives the same component ids) and
# ``blossom_matching``.
# ---------------------------------------------------------------------------


def kuhn_bipartite(num_left, num_right, indptr, indices):
    """Maximum bipartite matching via BFS augmentation, left side in order.

    ``indptr``/``indices`` is the left-to-right adjacency.  Returns
    (mate_left, mate_right) with -1 for unmatched.
    """
    mate_l = np.full(num_left, -1, np.int64)
    mate_r = np.full(num_right, -1, np.int64)
    prev_r = np.empty(num_right, np.int64)
    queue = np.empty(num_left, np.int64)
    in_queue = np.zeros(num_left, np.uint8)
    for l0 in range(num_left):
        if mate_l[l0] != -1:
            continue
        prev_r[:] = -1
        in_queue[:] = 0
        queue[0] = l0
        in_queue[l0] = 1
        qh = 0
        qt = 1
        found = np.int64(-1)
        while qh < qt and found == -1:
            l = queue[qh]
            qh += 1
            for e in range(indptr[l], indptr[l + 1]):
                r = indices[e]
                if prev_r[r] != -1:
                    continue
                prev_r[r] = l
                nxt = mate_r[r]
                if nxt == -1:
                    found = r
                    break
                if not in_queue[nxt]:
                    in_queue[nxt] = 1
                    queue[qt] = nxt
                    qt += 1
        if found != -1:
            r = found
            while True:
                l = prev_r[r]
                old = mate_l[l]
                mate_l[l] = r
                mate_r[r] = l
                if old == -1:
                    break
                r = old
    return mate_l, mate_r


def bipartite_forbidden(num_left, num_right, indptr, indices):
    """Matching plus per-edge viability for square instances.

    Returns (size, mate_l, mate_r, forbidden) where forbidden[pos] is 1 when
    the CSR edge at ``pos`` lies in no perfect matching.  The flags are only
    meaningful when size == num_left == num_right (a perfect matching); they
    come from orienting matched edges left->right and unmatched edges
    right->left and comparing strongly connected components.
    """
    mate_l, mate_r = kuhn_bipartite(num_left, num_right, indptr, indices)
    mate = mate_l.tolist()
    size = len(mate) - mate.count(-1)
    forbidden = np.zeros(indices.shape[0], np.uint8)
    if size != num_left or num_left != num_right:
        return size, mate_l, mate_r, forbidden
    ip = indptr.tolist()
    ix = indices.tolist()
    tails = []
    heads = []
    for l in range(num_left):
        for e in range(ip[l], ip[l + 1]):
            r = ix[e]
            if mate[l] == r:
                tails.append(l)
                heads.append(num_left + r)
            else:
                tails.append(num_left + r)
                heads.append(l)
    o_indptr, o_indices, _ = build_csr(num_left + num_right, tails, heads)
    comp = scc_csr(o_indptr, o_indices).tolist()
    for l in range(num_left):
        for e in range(ip[l], ip[l + 1]):
            r = ix[e]
            if mate[l] != r and comp[l] != comp[num_left + r]:
                forbidden[e] = 1
    return size, mate_l, mate_r, forbidden


def blossom_matching(n, indptr, indices, require_perfect):
    """Maximum matching in a general graph (blossom contraction).

    Returns (mate, perfect).  With ``require_perfect`` set, the search stops
    as soon as some exposed vertex admits no augmenting path: such a vertex
    stays exposed in some maximum matching, so no perfect matching exists.
    """
    mate = np.full(n, -1, np.int64)
    for v in range(n):
        if mate[v] != -1:
            continue
        for e in range(indptr[v], indptr[v + 1]):
            u = indices[e]
            if u != v and mate[u] == -1:
                mate[v] = u
                mate[u] = v
                break
    p = np.empty(n, np.int64)
    base = np.empty(n, np.int64)
    queue = np.empty(n, np.int64)
    used = np.zeros(n, np.uint8)
    in_blossom = np.zeros(n, np.uint8)
    lca_mark = np.zeros(n, np.uint8)
    for root in range(n):
        if mate[root] != -1:
            continue
        used[:] = 0
        p[:] = -1
        for i in range(n):
            base[i] = i
        used[root] = 1
        queue[0] = root
        qh = 0
        qt = 1
        finish = np.int64(-1)
        while qh < qt and finish == -1:
            v = queue[qh]
            qh += 1
            for e in range(indptr[v], indptr[v + 1]):
                to = indices[e]
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and p[mate[to]] != -1):
                    # Odd cycle: contract the blossom around the tree lca.
                    lca_mark[:] = 0
                    a = base[v]
                    while True:
                        lca_mark[a] = 1
                        if mate[a] == -1:
                            break
                        a = base[p[mate[a]]]
                    b = base[to]
                    while not lca_mark[b]:
                        b = base[p[mate[b]]]
                    curbase = b
                    in_blossom[:] = 0
                    x = v
                    child = to
                    while base[x] != curbase:
                        in_blossom[base[x]] = 1
                        in_blossom[base[mate[x]]] = 1
                        p[x] = child
                        child = mate[x]
                        x = p[mate[x]]
                    x = to
                    child = v
                    while base[x] != curbase:
                        in_blossom[base[x]] = 1
                        in_blossom[base[mate[x]]] = 1
                        p[x] = child
                        child = mate[x]
                        x = p[mate[x]]
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = 1
                                queue[qt] = i
                                qt += 1
                elif p[to] == -1:
                    p[to] = v
                    if mate[to] == -1:
                        finish = to
                        break
                    nxt = mate[to]
                    if not used[nxt]:
                        used[nxt] = 1
                        queue[qt] = nxt
                        qt += 1
        if finish == -1:
            if require_perfect:
                return mate, np.uint8(0)
        else:
            v = finish
            while v != -1:
                pv = p[v]
                nxt = mate[pv]
                mate[v] = pv
                mate[pv] = v
                v = nxt
    perfect = np.uint8(1)
    for v in range(n):
        if mate[v] == -1:
            perfect = np.uint8(0)
    return mate, perfect
