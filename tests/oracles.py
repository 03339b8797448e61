"""Independent brute-force oracles used to validate the fast implementations.

Everything here favors obviousness over speed: explicit state graphs with
networkx strong connectivity, exhaustive DFS enumeration, and subset search
for matchings.  None of it shares code with the package's algorithms.

The sections at the end are different: they keep earlier versions of package
code as the reference its replacements must equal.  They are the numpy-scalar
Sudoku and graph kernels, the per-vertex-dict expansion builder (which still
uses the package's ``build_csr`` and linear gadget builder), the recursive
``classify_edges``, the numpy-scalar matchers, the 14 Sudoku rules as
they were when each one rebuilt its own digit homes, graphs and reaches,
the pair-indexed port graph of ``regular_reachable`` with the
method-interning ``FlagLabeledGraph`` constructor, the simple-path
pipeline that binarized and built its skew instances anew on every query,
the reach that ran one DFS per start (``dfs_reachable_from``), and the
references that once shipped in the package: the quadratic gadget, the
gadget reach sweep, the simple-path enumerator and the rescanning peeling.
"""

from __future__ import annotations

from random import Random
from types import SimpleNamespace
from typing import Any, Iterable, Optional, Sequence

import networkx as nx
import numpy as np

from nonrep import _kernels as nonrep_kernels
from nonrep import engine as nonrep_engine
from nonrep._kernels import build_csr
from nonrep.engine import ReachedEdge
from nonrep.gadget import SwitchGadget, build_switch_gadget
from nonrep.labeled_graph import FlagLabeledGraph
from nonrep.matching import (
    FORBIDDEN,
    MANDATORY,
    OPTIONAL,
    BipartiteInstance,
    EdgeClassification,
    perfect_matching_mate,
)
from nonrep.simple_paths import BinarizedGraph, SkewSymmetricGraph, _binary_bit
from nonrep.sudoku.board import Board, Contradiction, Deduction, cell_name, geometry
from nonrep.sudoku.rules import BilocationGraph, BipartiteBivalueGraph, BivalueGraph


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
        indptr, indices = _kernels.build_csr(
            num_nodes, np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64)
        )
        self.indptr = indptr
        self.indices = indices
        pos_of_arc = arc_positions(tails)
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
    o_indptr, o_indices = build_csr(num_left + num_right, tails, heads)
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

# ---------------------------------------------------------------------------
# The 14 Sudoku rules and their helpers, kept verbatim from the version in
# which every rule took a ``Board`` and built its own digit homes, graphs,
# expansions and reaches; only the package's expansion and kernels are reached
# as ``nonrep_engine.LabelSwitchDigraph`` and ``nonrep_kernels``, since this
# module's own ``LabelSwitchDigraph`` and ``_kernels`` are the older ones above.
# ``RULE_FUNCTIONS`` maps each rule name to its reference; the equality tests
# compare whole deduction lists of both on the same boards.
# ---------------------------------------------------------------------------


def hidden_singles(board: Board) -> list[Deduction]:
    """A digit with a single remaining home in some group is placed there."""
    geo = geometry(board.box)
    out = []
    seen = set()
    for g, cells in enumerate(geo.group_cells):
        placed = 0
        for c in cells:
            if board.values[c]:
                placed |= 1 << (board.values[c] - 1)
        for d in range(1, board.n + 1):
            if placed >> (d - 1) & 1:
                continue
            homes = [c for c in cells if board.admits(c, d)]
            if len(homes) == 1 and (homes[0], d) not in seen:
                seen.add((homes[0], d))
                out.append(
                    Deduction(
                        "hidden_single",
                        placements=((homes[0], d),),
                        witness=geo.group_name(g),
                    )
                )
    return out


def naked_singles(board: Board) -> list[Deduction]:
    """A cell with a single candidate receives it."""
    out = []
    for cell in range(board.size):
        if board.values[cell] == 0 and board.candidate_count(cell) == 1:
            digit = board.candidates(cell)[0]
            out.append(Deduction("naked_single", placements=((cell, digit),)))
    return out


def _line_box_pairs(board: Board):
    geo = geometry(board.box)
    n, box = board.n, board.box
    for line in range(2 * n):
        line_cells = geo.group_cells[line]
        boxes = sorted({geo.groups_of_cell[c][2] for c in line_cells})
        for bg in boxes:
            inter = tuple(c for c in line_cells if geo.groups_of_cell[c][2] == bg)
            if len(inter) == box:
                yield line, bg, inter


def intersection_triples(board: Board) -> list[Deduction]:
    """B digits confined, within a line or a box, to the B cells where the
    line meets the box must fill exactly those cells: other digits leave the
    intersection, and the confined digits leave the rest of both groups."""
    geo = geometry(board.box)
    out = []
    for line, bg, inter in _line_box_pairs(board):
        free = [c for c in inter if board.values[c] == 0]
        if len(free) < 2:
            continue
        free_set = set(free)
        for src, other in ((line, bg), (bg, line)):
            cells = geo.group_cells[src]
            confined = []
            for d in range(1, board.n + 1):
                homes = [c for c in cells if board.admits(c, d)]
                if homes and all(c in free_set for c in homes):
                    confined.append(d)
            if len(confined) != len(free):
                continue
            elims = []
            for c in free:
                for d in board.candidates(c):
                    if d not in confined:
                        elims.append((c, d))
            # The confined digits are locked inside the intersection, so they
            # vacate the rest of the other containing group (the source group
            # holds no further homes for them by construction).
            for c in geo.group_cells[other]:
                if c in free_set or board.values[c]:
                    continue
                for d in confined:
                    if board.admits(c, d):
                        elims.append((c, d))
            if elims:
                out.append(
                    Deduction(
                        "intersection_triple",
                        eliminations=tuple(sorted(set(elims))),
                        witness=f"{geo.group_name(src)}"
                        f"[{','.join(map(str, confined))}]",
                    )
                )
    return out


def box_line(board: Board) -> list[Deduction]:
    """Digit homes of a box confined to one line clear the rest of the line,
    and homes of a line confined to one box clear the rest of the box."""
    geo = geometry(board.box)
    n = board.n
    out = []
    for g, cells in enumerate(geo.group_cells):
        for d in range(1, n + 1):
            homes = [c for c in cells if board.admits(c, d)]
            if not homes:
                continue
            if g < 2 * n:
                # line -> confined to one box
                boxes = {geo.groups_of_cell[c][2] for c in homes}
                if len(boxes) != 1:
                    continue
                target = boxes.pop()
            else:
                rows = {geo.groups_of_cell[c][0] for c in homes}
                cols = {geo.groups_of_cell[c][1] for c in homes}
                if len(rows) == 1:
                    target = rows.pop()
                elif len(cols) == 1:
                    target = cols.pop()
                else:
                    continue
            elims = tuple(
                (c, d)
                for c in geo.group_cells[target]
                if c not in cells and board.admits(c, d)
            )
            if elims:
                out.append(
                    Deduction(
                        "box_line",
                        eliminations=elims,
                        witness=f"{geo.group_name(g)}->{geo.group_name(target)}[{d}]",
                    )
                )
    return out


def hidden_pairs(board: Board) -> list[Deduction]:
    """Two digits sharing the same two homes in a group own those cells."""
    geo = geometry(board.box)
    out = []
    for g, cells in enumerate(geo.group_cells):
        homes_of: dict[int, tuple[int, ...]] = {}
        for d in range(1, board.n + 1):
            homes = tuple(c for c in cells if board.admits(c, d))
            if len(homes) == 2:
                homes_of[d] = homes
        digits = sorted(homes_of)
        for i, x in enumerate(digits):
            for y in digits[i + 1 :]:
                if homes_of[x] != homes_of[y]:
                    continue
                elims = []
                for c in homes_of[x]:
                    for d in board.candidates(c):
                        if d not in (x, y):
                            elims.append((c, d))
                if elims:
                    out.append(
                        Deduction(
                            "hidden_pair",
                            eliminations=tuple(elims),
                            witness=f"{geo.group_name(g)}[{x},{y}]",
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Matching rules (tier 2)
# ---------------------------------------------------------------------------


def _forbidden_edges(num: int, adjacency: list[list[int]]):
    """(perfect, [(l, r) forbidden...]) for a square bipartite instance."""
    edges = [(l, r) for l in range(num) for r in adjacency[l]]
    size, _, _, forbidden = nonrep_kernels.bipartite_forbidden(num, num, edges)
    if size != num:
        return False, []
    return True, [edge for edge, bad in zip(edges, forbidden) if bad]


def digit_grid_matching(board: Board) -> list[Deduction]:
    """Per digit: cover every row and column with one copy, as a row/column
    matching; candidate cells on edges of no perfect matching are cleared."""
    n = board.n
    out = []
    for d in range(1, n + 1):
        rows = [r for r in range(n) if all(board.values[r * n + c] != d for c in range(n))]
        if not rows:
            continue
        cols = [c for c in range(n) if all(board.values[r * n + c] != d for r in range(n))]
        row_index = {r: i for i, r in enumerate(rows)}
        col_index = {c: i for i, c in enumerate(cols)}
        adjacency: list[list[int]] = [[] for _ in rows]
        for r in rows:
            for c in cols:
                if board.admits(r * n + c, d):
                    adjacency[row_index[r]].append(col_index[c])
        perfect, bad = _forbidden_edges(len(rows), adjacency)
        if not perfect:
            out.append(
                Deduction(
                    "digit_matching",
                    contradiction=True,
                    reason=f"digit {d} cannot cover every row and column",
                )
            )
            continue
        elims = tuple((rows[l] * n + cols[r], d) for l, r in bad)
        if elims:
            out.append(Deduction("digit_matching", eliminations=elims, witness=f"digit {d}"))
    return out


def group_matching(board: Board) -> list[Deduction]:
    """Per group: complete it as a digit/cell matching; candidate placements
    on edges of no perfect matching are cleared."""
    geo = geometry(board.box)
    out = []
    for g, cells in enumerate(geo.group_cells):
        free = [c for c in cells if board.values[c] == 0]
        if not free:
            continue
        placed = set(board.values[c] for c in cells if board.values[c])
        digits = [d for d in range(1, board.n + 1) if d not in placed]
        cell_index = {c: i for i, c in enumerate(free)}
        adjacency: list[list[int]] = [[] for _ in digits]
        for i, d in enumerate(digits):
            for c in free:
                if board.admits(c, d):
                    adjacency[i].append(cell_index[c])
        perfect, bad = _forbidden_edges(len(digits), adjacency)
        if not perfect:
            out.append(
                Deduction(
                    "group_matching",
                    contradiction=True,
                    reason=f"{geo.group_name(g)} admits no complete placement",
                )
            )
            continue
        elims = tuple((free[r], digits[l]) for l, r in bad)
        if elims:
            out.append(
                Deduction(
                    "group_matching", eliminations=elims, witness=geo.group_name(g)
                )
            )
    return out


def build_bilocation_graph(board: Board) -> BilocationGraph:
    geo = geometry(board.box)
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    pair_digits: dict[tuple[int, int], list[int]] = {}
    contradiction = None
    for g, cells in enumerate(geo.group_cells):
        placed = set(board.values[c] for c in cells if board.values[c])
        for d in range(1, board.n + 1):
            if d in placed:
                continue
            homes = [c for c in cells if board.admits(c, d)]
            if len(homes) != 2:
                continue
            key = (homes[0], homes[1], d)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            digits = pair_digits.setdefault((homes[0], homes[1]), [])
            digits.append(d)
            if len(digits) >= 3 and contradiction is None:
                a, b = homes
                contradiction = Contradiction(
                    f"cells {cell_name(board.box, a)},{cell_name(board.box, b)} "
                    f"are the only homes of digits {digits}"
                )
    graph = FlagLabeledGraph(False, edges, vertices=board.empty_cells())
    return BilocationGraph(graph, contradiction)


def build_bivalue_graphs(board: Board) -> tuple[BivalueGraph, BipartiteBivalueGraph]:
    geo = geometry(board.box)
    bivalued = [c for c in board.empty_cells() if board.candidate_count(c) == 2]
    biv_set = set(bivalued)
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for cells in geo.group_cells:
        members = [c for c in cells if c in biv_set]
        for i, c1 in enumerate(members):
            for c2 in members[i + 1 :]:
                shared = board.cand[c1] & board.cand[c2]
                d = 1
                while shared:
                    if shared & 1:
                        key = (min(c1, c2), max(c1, c2), d)
                        if key not in seen:
                            seen.add(key)
                            edges.append(key)
                    shared >>= 1
                    d += 1
    bivalue = BivalueGraph(FlagLabeledGraph(False, edges, vertices=bivalued))

    group_vertices = [
        (g, d)
        for g in range(len(geo.group_cells))
        for d in range(1, board.n + 1)
    ]
    bb_edges = []
    for c in bivalued:
        for g in geo.groups_of_cell[c]:
            for d in board.candidates(c):
                bb_edges.append((c, (g, d), ("d", d), ("c", c)))
    bipartite = BipartiteBivalueGraph(
        FlagLabeledGraph(False, bb_edges, vertices=list(bivalued) + group_vertices)
    )
    return bivalue, bipartite


def _walk_summary(box: int, steps: list[ReachedEdge], bipartite: bool) -> str:
    def name(v):
        if isinstance(v, int):
            return cell_name(box, v)
        g, d = v
        return f"g{g}d{d}"

    if not steps:
        return ""
    parts = [name(steps[0].tail)]
    for s in steps:
        label = s.far_label[1] if bipartite and isinstance(s.far_label, tuple) else s.far_label
        parts.append(f"{label}>{name(s.head)}")
    return "-".join(str(p) for p in parts)


def bilocation_cycle_rule(board: Board) -> list[Deduction]:
    """Each nonrepetitive bilocation cycle through a cell restricts the cell
    to the two labels the cycle uses there; the cell's value must lie in the
    intersection of those label pairs over all cycles, and an empty
    intersection is a contradiction."""
    bl = build_bilocation_graph(board)
    if bl.contradiction:
        return [
            Deduction("biloc_cycle", contradiction=True, reason=bl.contradiction.reason)
        ]
    if bl.graph.num_edges == 0:
        return []
    expansion = nonrep_engine.LabelSwitchDigraph(bl.graph)
    out = []
    for cell in sorted(board.empty_cells()):
        if not bl.graph.has_vertex(cell):
            continue
        pairs = expansion.cycle_transit_pairs(cell)
        if not pairs:
            continue
        allowed = set.intersection(*(set(p) for p in pairs))
        witness = ";".join(
            "{" + ",".join(str(d) for d in sorted(p)) + "}" for p in sorted(pairs, key=sorted)
        )
        if not allowed:
            out.append(
                Deduction(
                    "biloc_cycle",
                    contradiction=True,
                    reason=f"{cell_name(board.box, cell)} sits on cycles with "
                    "incompatible label pairs",
                    witness=witness,
                )
            )
            continue
        elims = tuple(
            (cell, d) for d in board.candidates(cell) if d not in allowed
        )
        if elims:
            out.append(Deduction("biloc_cycle", eliminations=elims, witness=witness))
    return out


def bivalue_cycle_rule(board: Board) -> list[Deduction]:
    """A bivalue cycle through a (group, digit) vertex confines that digit to
    the two member cells the cycle transits; intersecting over all cycles
    leaves the digit's only possible homes in the group."""
    _, bb = build_bivalue_graphs(board)
    if bb.graph.num_edges == 0:
        return []
    geo = geometry(board.box)
    expansion = nonrep_engine.LabelSwitchDigraph(bb.graph)
    out = []
    for g in range(len(geo.group_cells)):
        for d in range(1, board.n + 1):
            pairs = expansion.cycle_transit_pairs((g, d))
            if not pairs:
                continue
            allowed = set.intersection(*(set(p) for p in pairs))
            cells = sorted(c for _tag, c in allowed)
            witness = f"{geo.group_name(g)}[{d}]:" + ";".join(
                "{" + ",".join(cell_name(board.box, c) for _t, c in sorted(p)) + "}"
                for p in sorted(pairs, key=sorted)
            )
            if not cells:
                out.append(
                    Deduction(
                        "bivalue_cycle",
                        contradiction=True,
                        reason=f"{geo.group_name(g)} has no home left for "
                        f"digit {d} compatible with its cycles",
                        witness=witness,
                    )
                )
                continue
            elims = tuple(
                (c, d)
                for c in geo.group_cells[g]
                if c not in cells and board.admits(c, d)
            )
            if elims:
                out.append(
                    Deduction("bivalue_cycle", eliminations=elims, witness=witness)
                )
    return out


def _bilocation_starts(board: Board, bl: BilocationGraph):
    starts: dict[int, set[int]] = {}
    for eid in range(bl.graph.num_edges):
        c1, c2 = bl.graph.endpoints(eid)
        d = bl.graph.edge_labels(eid)[0]
        starts.setdefault(c1, set()).add(d)
        starts.setdefault(c2, set()).add(d)
    return starts


def bilocation_repeat_rule(board: Board) -> list[Deduction]:
    """A nonrepetitive bilocation walk that starts and ends at the same cell
    with the same label forces that label into the cell."""
    bl = build_bilocation_graph(board)
    if bl.contradiction or bl.graph.num_edges == 0:
        return []
    expansion = nonrep_engine.LabelSwitchDigraph(bl.graph)
    out = []
    for cell, digits in sorted(_bilocation_starts(board, bl).items()):
        if board.values[cell]:
            continue
        for d in sorted(digits):
            reach = expansion.reachable_from(cell, d)
            for re in reach.edges:
                if re.head == cell and re.far_label == d:
                    walk = reach.walk_to(re)
                    out.append(
                        Deduction(
                            "biloc_repeat",
                            placements=((cell, d),),
                            witness=_walk_summary(board.box, walk, False),
                        )
                    )
                    break
    return out


def bivalue_repeat_rule(board: Board) -> list[Deduction]:
    """A bivalue forcing chain from (cell, d) back to the cell ending on d
    rules d out there, placing the cell's other candidate."""
    _, bb = build_bivalue_graphs(board)
    if bb.graph.num_edges == 0:
        return []
    expansion = nonrep_engine.LabelSwitchDigraph(bb.graph)
    out = []
    for cell in sorted(
        c for c in board.empty_cells() if board.candidate_count(c) == 2
    ):
        for d in board.candidates(cell):
            if not bb.graph.has_vertex(cell):
                continue
            reach = expansion.reachable_from(cell, ("d", d))
            for re in reach.edges:
                if re.head == cell and re.far_label == ("d", d):
                    other = next(x for x in board.candidates(cell) if x != d)
                    walk = reach.walk_to(re)
                    out.append(
                        Deduction(
                            "bivalue_repeat",
                            placements=((cell, other),),
                            witness=_walk_summary(board.box, walk, True),
                        )
                    )
                    break
    return out


def _forced_by_bilocation(board, expansion, cell, digit):
    """(cell, digit) pairs forced when ``cell`` does not hold ``digit``:
    far endpoints of reachable edges take their far labels."""
    reach = expansion.reachable_from(cell, digit)
    forced: dict[tuple[int, int], ReachedEdge] = {}
    for re in reach.edges:
        forced.setdefault((re.head, re.far_label), re)
    return reach, forced


def _forced_by_bivalue(board, expansion, cell, digit):
    """(cell, digit) pairs forced when ``cell`` holds ``digit``: the far cell
    of a reached edge loses the far label, keeping its other candidate."""
    reach = expansion.reachable_from(cell, ("d", digit))
    forced: dict[tuple[int, int], ReachedEdge] = {}
    for re in reach.edges:
        if not isinstance(re.head, int):
            continue
        label = re.far_label[1]
        others = [x for x in board.candidates(re.head) if x != label]
        if len(others) != 1:
            continue
        forced.setdefault((re.head, others[0]), re)
    return reach, forced


def _find_conflict(geo, forced_a: dict, forced_b: Optional[dict] = None):
    """First pair of distinct same-group cells forced to one digit.

    With ``forced_b`` the pair must straddle the two maps (cross conflicts
    only); within-map conflicts belong to the pure rules.
    """
    first: dict[tuple[int, int], tuple[int, ReachedEdge]] = {}
    for (cell, digit), re in sorted(forced_a.items()):
        for g in geo.groups_of_cell[cell]:
            first.setdefault((digit, g), (cell, re))
    second = forced_a if forced_b is None else forced_b
    for (cell, digit), re in sorted(second.items()):
        for g in geo.groups_of_cell[cell]:
            hit = first.get((digit, g))
            if hit is not None and hit[0] != cell:
                return hit[1], re, digit, g
    return None


def bilocation_conflict_rule(board: Board) -> list[Deduction]:
    """Two forcing chains from (cell, d) that push one digit onto two cells
    of a group cannot both hold, so the cell must hold d."""
    bl = build_bilocation_graph(board)
    if bl.contradiction or bl.graph.num_edges == 0:
        return []
    geo = geometry(board.box)
    expansion = nonrep_engine.LabelSwitchDigraph(bl.graph)
    out = []
    for cell, digits in sorted(_bilocation_starts(board, bl).items()):
        if board.values[cell]:
            continue
        for d in sorted(digits):
            reach, forced = _forced_by_bilocation(board, expansion, cell, d)
            hit = _find_conflict(geo, forced)
            if hit is None:
                continue
            re_a, re_b, digit, g = hit
            witness = (
                _walk_summary(board.box, reach.walk_to(re_a), False)
                + "|"
                + _walk_summary(board.box, reach.walk_to(re_b), False)
            )
            out.append(
                Deduction("biloc_conflict", placements=((cell, d),), witness=witness)
            )
    return out


def bivalue_conflict_rule(board: Board) -> list[Deduction]:
    """Two bivalue chains from (cell, d) forcing one digit onto two cells of
    a group refute the start assumption; the cell takes its other candidate."""
    _, bb = build_bivalue_graphs(board)
    if bb.graph.num_edges == 0:
        return []
    geo = geometry(board.box)
    expansion = nonrep_engine.LabelSwitchDigraph(bb.graph)
    out = []
    for cell in sorted(
        c for c in board.empty_cells() if board.candidate_count(c) == 2
    ):
        if not bb.graph.has_vertex(cell):
            continue
        for d in board.candidates(cell):
            reach, forced = _forced_by_bivalue(board, expansion, cell, d)
            hit = _find_conflict(geo, forced)
            if hit is None:
                continue
            re_a, re_b, digit, g = hit
            other = next(x for x in board.candidates(cell) if x != d)
            witness = (
                _walk_summary(board.box, reach.walk_to(re_a), True)
                + "|"
                + _walk_summary(board.box, reach.walk_to(re_b), True)
            )
            out.append(
                Deduction(
                    "bivalue_conflict", placements=((cell, other),), witness=witness
                )
            )
    return out


def mixed_conflict_rule(board: Board) -> list[Deduction]:
    """For a bivalued cell with candidates {d, e}, the assumption "not d"
    drives bilocation chains from (cell, d) and bivalue chains from
    (cell, e) simultaneously; a cross conflict places d."""
    bl = build_bilocation_graph(board)
    if bl.contradiction:
        return []
    _, bb = build_bivalue_graphs(board)
    if bl.graph.num_edges == 0 or bb.graph.num_edges == 0:
        return []
    geo = geometry(board.box)
    ex_bl = nonrep_engine.LabelSwitchDigraph(bl.graph)
    ex_bb = nonrep_engine.LabelSwitchDigraph(bb.graph)
    out = []
    for cell in sorted(
        c for c in board.empty_cells() if board.candidate_count(c) == 2
    ):
        for d in board.candidates(cell):
            e = next(x for x in board.candidates(cell) if x != d)
            reach_bl, forced_bl = _forced_by_bilocation(board, ex_bl, cell, d)
            if not forced_bl:
                continue
            reach_bb, forced_bb = _forced_by_bivalue(board, ex_bb, cell, e)
            if not forced_bb:
                continue
            hit = _find_conflict(geo, forced_bl, forced_bb)
            if hit is None:
                continue
            re_a, re_b, digit, g = hit
            witness = (
                _walk_summary(board.box, reach_bl.walk_to(re_a), False)
                + "|"
                + _walk_summary(board.box, reach_bb.walk_to(re_b), True)
            )
            out.append(
                Deduction("mixed_conflict", placements=((cell, d),), witness=witness)
            )
    return out


RULE_FUNCTIONS = {
    "hidden_single": hidden_singles,
    "naked_single": naked_singles,
    "intersection_triple": intersection_triples,
    "box_line": box_line,
    "hidden_pair": hidden_pairs,
    "digit_matching": digit_grid_matching,
    "group_matching": group_matching,
    "biloc_cycle": bilocation_cycle_rule,
    "biloc_repeat": bilocation_repeat_rule,
    "biloc_conflict": bilocation_conflict_rule,
    "bivalue_cycle": bivalue_cycle_rule,
    "bivalue_repeat": bivalue_repeat_rule,
    "bivalue_conflict": bivalue_conflict_rule,
    "mixed_conflict": mixed_conflict_rule,
}


# ---------------------------------------------------------------------------
# The port-graph matching reduction and the graph constructor, kept verbatim
# from the version in which ``regular_reachable`` numbered the sigma-pairs
# through ``pair_index`` and two port closures, and ``FlagLabeledGraph``
# interned tokens through ``_intern_vertex``/``_intern_label`` and built its
# incidence lists eagerly.  Its port graph gave the i-th sigma-pair (by
# smaller node) the ports 2i and 2i+1, and the source and its mirror the
# ports 2P and 2P+1 after all P pairs.  ``OldFlagLabeledGraph`` differs from
# the package class only in that constructor; the equality tests compare
# witnesses, ids, names, edges and incidence of both.
# ---------------------------------------------------------------------------


class OldFlagLabeledGraph(FlagLabeledGraph):
    def __init__(
        self,
        directed: bool,
        edges: Iterable[Sequence[Any]],
        vertices: Iterable[Any] = (),
    ):
        """Build a graph from edge tuples ``(u, v, label)`` or ``(u, v, label_at_u, label_at_v)``.

        ``vertices`` may declare extra (possibly isolated) vertices; endpoints
        of edges are declared implicitly.
        """
        self.directed = bool(directed)
        self._vertex_names: list[Any] = []
        self._vertex_ids: dict[Any, int] = {}
        self._label_names: list[Any] = []
        self._label_ids: dict[Any, int] = {}
        for v in vertices:
            self._intern_vertex(v)
        edge_list: list[tuple[int, int, int, int]] = []
        for spec in edges:
            if len(spec) == 3:
                u, v, label = spec
                lu = lv = label
            elif len(spec) == 4:
                u, v, lu, lv = spec
            else:
                raise ValueError(f"edge spec must have 3 or 4 fields, got {spec!r}")
            edge_list.append(
                (
                    self._intern_vertex(u),
                    self._intern_vertex(v),
                    self._intern_label(lu),
                    self._intern_label(lv),
                )
            )
        self.edges: tuple[tuple[int, int, int, int], ...] = tuple(edge_list)
        self._incidence: list[list[tuple[int, int]]] = [[] for _ in self._vertex_names]
        for eid, (u, v, _lu, _lv) in enumerate(self.edges):
            self._incidence[u].append((eid, 0))
            self._incidence[v].append((eid, 1))

    def _intern_vertex(self, token: Any) -> int:
        vid = self._vertex_ids.get(token)
        if vid is None:
            vid = len(self._vertex_names)
            self._vertex_ids[token] = vid
            self._vertex_names.append(token)
        return vid

    def _intern_label(self, token: Any) -> int:
        lid = self._label_ids.get(token)
        if lid is None:
            lid = len(self._label_names)
            self._label_ids[token] = lid
            self._label_names.append(token)
        return lid


def regular_reachable(ssg: SkewSymmetricGraph) -> Optional[list[int]]:
    """Arc indices of a source-to-mirror path using one node per sigma-pair.

    Returns None when no such path exists.  Decided via a perfect matching in
    the port graph described in the module docstring.
    """
    sig = ssg.sigma
    s = ssg.source
    t = sig[s]
    pair_index: dict[int, int] = {}
    for x in range(ssg.num_nodes):
        if x in (s, t):
            continue
        rep = min(x, sig[x])
        if rep not in pair_index:
            pair_index[rep] = len(pair_index)
    num_pairs = len(pair_index)
    e1 = 2 * num_pairs
    e2 = 2 * num_pairs + 1

    def port_out(a: int) -> Optional[int]:
        # Merged node containing "leave a" (equivalently "enter sigma(a)").
        if a == s:
            return e1
        if a == t:
            return None
        rep = min(a, sig[a])
        idx = pair_index[rep]
        return 2 * idx + 1 if a == rep else 2 * idx

    def port_in(b: int) -> Optional[int]:
        if b == t:
            return e2
        if b == s:
            return None
        rep = min(b, sig[b])
        idx = pair_index[rep]
        return 2 * idx if b == rep else 2 * idx + 1

    edge_arc: dict[tuple[int, int], int] = {}
    for arc_idx, (a, b) in enumerate(ssg.arcs):
        if a == b:
            continue
        ha = port_out(a)
        hb = port_in(b)
        if ha is None or hb is None or ha == hb:
            continue
        key = (ha, hb) if ha < hb else (hb, ha)
        edge_arc.setdefault(key, arc_idx)
    h_edges = list(edge_arc)
    h_edges.extend((2 * i, 2 * i + 1) for i in range(num_pairs))

    mate, perfect = perfect_matching_mate(2 * num_pairs + 2, h_edges)
    if not perfect:
        return None

    path: list[int] = []
    cur_h = e1
    cur = s
    while True:
        mh = int(mate[cur_h])
        key = (cur_h, mh) if cur_h < mh else (mh, cur_h)
        arc_idx = edge_arc[key]
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
        rep = min(nxt, sig[nxt])
        idx = pair_index[rep]
        consumed = 2 * idx if nxt == rep else 2 * idx + 1
        cur_h = 2 * idx + 1 if consumed == 2 * idx else 2 * idx
        cur = nxt


# ---------------------------------------------------------------------------
# The simple-path pipeline kept verbatim from the version in which every
# ``nonrepetitive_simple_path`` call binarized the whole graph again and
# built four complete skew-symmetric instances, each with its own port graph.
# Only the names carry the ``per_query_`` prefix.  It uses the package's
# ``BinarizedGraph`` and ``SkewSymmetricGraph`` as plain records and the
# package's ``perfect_matching_mate``; the package's per-graph preparation
# must give the same witnesses and cycle edges.
# ---------------------------------------------------------------------------


def per_query_binarize_labels(g: FlagLabeledGraph) -> BinarizedGraph:
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


def per_query_binary_bit(token) -> int:
    if token in (0, "0"):
        return 0
    if token in (1, "1"):
        return 1
    raise ValueError(f"label {token!r} is not binary")


def per_query_build_skew_instance(
    g: FlagLabeledGraph, p, q, start_label: int, end_label: int
) -> SkewSymmetricGraph:
    """Skew-symmetric reachability instance for one endpoint-label choice.

    Node 2v+b means "standing at v, arrived on a b-labeled edge".  There is a
    simple nonrepetitive p..q path in the 0/1-labeled graph ``g`` whose first
    edge is labeled ``start_label`` and last edge ``end_label`` iff the source
    is regular-reachable to its mirror.
    """
    if g.directed:
        raise ValueError("skew-symmetric reduction needs an undirected graph")
    pid = g.vertex_id(p)
    qid = g.vertex_id(q)
    if pid == qid:
        raise ValueError("endpoints must differ")
    n = g.num_vertices
    arcs: list[tuple[int, int]] = []
    origin: list = []
    for eid in range(g.num_edges):
        u, v, lu, lv = g.edges[eid]
        bit = per_query_binary_bit(g.label_name(lu))
        if per_query_binary_bit(g.label_name(lv)) != bit:
            raise ValueError("skew-symmetric reduction needs edge labels, not flags")
        # Traversing a b-labeled edge is allowed after arriving on 1-b.
        arcs.append((2 * u + (1 - bit), 2 * v + bit))
        origin.append((eid, 0))
        arcs.append((2 * v + (1 - bit), 2 * u + bit))
        origin.append((eid, 1))
    s = 2 * n
    t = 2 * n + 1
    arcs.append((s, 2 * pid + (1 - start_label)))
    origin.append(None)
    arcs.append((s, 2 * qid + (1 - end_label)))
    origin.append(None)
    arcs.append((2 * qid + end_label, t))
    origin.append(None)
    arcs.append((2 * pid + start_label, t))
    origin.append(None)
    sigma = []
    for v in range(n):
        sigma.extend((2 * v + 1, 2 * v))
    sigma.extend((t, s))
    return SkewSymmetricGraph(
        2 * n + 2, tuple(arcs), tuple(sigma), s, arc_origin=tuple(origin)
    )


def per_query_regular_reachable(ssg: SkewSymmetricGraph) -> Optional[list[int]]:
    """Arc indices of a source-to-mirror path using one node per sigma-pair.

    Returns None when no such path exists.  Decided via a perfect matching in
    the port graph described in the module docstring.
    """
    sig = ssg.sigma
    s = ssg.source
    t = sig[s]
    edge_arc: dict[tuple[int, int], int] = {}
    for arc_idx, (a, b) in enumerate(ssg.arcs):
        if a == b or a == t or b == s:
            continue
        port = s if a == s else sig[a]
        if port != b:
            edge_arc.setdefault((port, b) if port < b else (b, port), arc_idx)
    h_edges = list(edge_arc)
    h_edges.extend(
        (x, sig[x]) for x in range(ssg.num_nodes) if x < sig[x] and x not in (s, t)
    )

    mate, perfect = perfect_matching_mate(ssg.num_nodes, h_edges)
    if not perfect:
        return None

    path: list[int] = []
    cur = port = s
    while True:
        other = mate[port]
        arc_idx = edge_arc[(port, other) if port < other else (other, port)]
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


def per_query_loopless(g: FlagLabeledGraph) -> tuple[FlagLabeledGraph, list[int]]:
    if not g.has_self_loops():
        return g, list(range(g.num_edges))
    return g.subgraph(e for e in range(g.num_edges) if not g.is_self_loop(e))


def per_query_nonrepetitive_simple_path(g: FlagLabeledGraph, p, q) -> Optional[list[int]]:
    """Edge ids of a simple nonrepetitive p..q path in ``g``, or None.

    Tries the four endpoint-label combinations of the skew-symmetric
    reduction and returns the shortest witness found.  ``p == q`` is a
    zero-length path.  Self loops never occur on simple paths and are
    dropped up front.
    """
    if g.directed:
        raise ValueError(
            "simple-path search is restricted to undirected graphs; the "
            "directed variant is NP-complete"
        )
    if g.vertex_id(p) == g.vertex_id(q):
        return []
    best: Optional[list[int]] = None
    for edge_ids in per_query_instance_witnesses(g, p, q):
        if edge_ids is not None and (best is None or len(edge_ids) < len(best)):
            best = edge_ids
    return best


def per_query_instance_witnesses(g: FlagLabeledGraph, p, q) -> list[Optional[list[int]]]:
    """The witness of each of the four skew instances of the distinct
    vertices p and q of the undirected ``g``, as edge ids from p's side, or
    None; instances in (start label, end label) order 00, 01, 10, 11."""
    base, orig_ids = per_query_loopless(g)
    binarized = per_query_binarize_labels(base)
    cp = binarized.center[p]
    cq = binarized.center[q]
    witnesses: list[Optional[list[int]]] = []
    for start_bit in (0, 1):
        for end_bit in (0, 1):
            ssg = per_query_build_skew_instance(binarized.graph, cp, cq, start_bit, end_bit)
            witness = per_query_regular_reachable(ssg)
            if witness is None:
                witnesses.append(None)
                continue
            edge_ids = []
            for arc_idx in witness:
                info = ssg.arc_origin[arc_idx]
                if info is None:
                    continue
                bin_eid = info[0]
                orig = binarized.edge_origin[bin_eid]
                if orig is not None:
                    edge_ids.append(orig_ids[orig])
            # The source wires to both endpoints, so the witness may have been
            # traced q-to-p; report it from p's side.
            if len(edge_ids) > 1 and p not in g.endpoints(edge_ids[0]):
                edge_ids.reverse()
            witnesses.append(edge_ids)
    return witnesses


def loopless_walk_distance(g: FlagLabeledGraph, p, q) -> Optional[int]:
    """Edge count of a shortest nonrepetitive p..q walk over the loopless
    edges of ``g``, from the paper's expansion, or None when there is none."""
    walk = nonrep_engine.LabelSwitchDigraph(per_query_loopless(g)[0]).shortest_path(p, q)
    return None if walk is None else len(walk)


def per_query_simple_cycle_edges(g: FlagLabeledGraph) -> set[int]:
    """Edges that belong to some simple nonrepetitive cycle.

    Per edge: drop it along with every incident edge that repeats its flag
    label at either endpoint, then ask for a simple nonrepetitive path
    between its endpoints.  Parallel edges count as 2-cycles when their
    labels differ at both ends.
    """
    if g.directed:
        raise ValueError(
            "simple-cycle search is restricted to undirected graphs; the "
            "directed variant is NP-complete"
        )
    result: set[int] = set()
    for eid in range(g.num_edges):
        if g.is_self_loop(eid):
            continue
        u, v, lu, lv = g.edges[eid]
        keep = []
        for other in range(g.num_edges):
            if other == eid:
                continue
            ou, ov, olu, olv = g.edges[other]
            if (ou == u and olu == lu) or (ov == u and olv == lu):
                continue
            if (ou == v and olu == lv) or (ov == v and olv == lv):
                continue
            keep.append(other)
        reduced, _ = g.subgraph(keep)
        if (
            per_query_nonrepetitive_simple_path(reduced, g.vertex_name(u), g.vertex_name(v))
            is not None
        ):
            result.add(eid)
    return result


# ---------------------------------------------------------------------------
# The generator as it was when phase 1 re-ran ``propagate_singles`` over the
# whole grid after every clue pair and phase 2 certified each removal with a
# cap-2 ``count_and_first``, then solved the minimized puzzle again.
# ---------------------------------------------------------------------------


def counting_generate(box: int = 3, seed: int = 0, symmetric: bool = True):
    from nonrep.sudoku.generate import (
        _RESTART_LIMIT,
        GenerationError,
        GenReport,
        solved_grid,
    )

    _kernels = nonrep_kernels
    if box not in (2, 3):
        raise ValueError("generation supports box sizes 2 and 3")
    rng = Random(seed)
    size = box**4
    restarts = 0
    while True:
        if restarts > _RESTART_LIMIT:
            raise GenerationError(f"no fill found after {_RESTART_LIMIT} restarts")
        values = [0] * size
        clues: list[tuple[tuple[int, int], ...]] = []
        failed = False
        while True:
            status = _kernels.propagate_singles(box, values)
            if status == -1:
                failed = True
                break
            if status == 1:
                break
            empty = [c for c in range(size) if values[c] == 0]
            cell = rng.choice(empty)
            partner = size - 1 - cell if symmetric else cell
            pair_clues = []
            ok = True
            for target in dict.fromkeys((cell, partner)):
                if values[target] == 0:
                    digits = _counting_available_digits(box, values, target)
                    if not digits:
                        ok = False
                        break
                    digit = rng.choice(digits)
                    values[target] = digit
                pair_clues.append((target, values[target]))
            if not ok:
                failed = True
                break
            clues.append(tuple(pair_clues))
        if failed:
            restarts += 1
            continue
        break

    # Phase 2: try to empty inserted pairs again, oldest first.
    clue_values = {cell: digit for pair in clues for cell, digit in pair}
    kept = dict(clue_values)
    for pair in clues:
        trial = dict(kept)
        for cell, _ in pair:
            trial.pop(cell, None)
        if not trial:
            continue
        trial_values = [trial.get(c, 0) for c in range(size)]
        count, _ = _kernels.count_and_first(box, trial_values, 2)
        if count == 1:
            kept = trial

    puzzle = Board(box, [kept.get(c, 0) for c in range(size)])
    solution = solved_grid(puzzle)
    if solution is None:
        raise GenerationError("the minimized puzzle has no solution")
    inserted_pairs = tuple(
        (pair[0][0], pair[-1][0]) for pair in clues
    )
    return GenReport(
        puzzle=puzzle,
        solution=solution,
        insertion_order=inserted_pairs,
        clue_count=sum(1 for v in puzzle.values if v),
        seed=seed,
        symmetric=symmetric,
        minimal=True,
        restarts=restarts,
    )


def _counting_available_digits(box: int, values: list[int], cell: int) -> list[int]:
    geo = geometry(box)
    used = 0
    for g in geo.groups_of_cell[cell]:
        for i in geo.group_cells[g]:
            if values[i]:
                used |= 1 << (values[i] - 1)
    return [d for d in range(1, geo.n + 1) if not used >> (d - 1) & 1]


# ---------------------------------------------------------------------------
# The reach that ran one DFS per start, kept as the reference for the reaches
# the expansion answers from one pass over its strong components.
# ---------------------------------------------------------------------------


def arc_positions(tails) -> np.ndarray:
    """The CSR position of every input arc: ``build_csr`` sorts the arcs
    stably by tail."""
    order = np.argsort(np.asarray(tails, dtype=np.int64), kind="stable")
    pos = np.empty(len(order), dtype=np.int64)
    pos[order] = np.arange(len(order), dtype=np.int64)
    return pos


def csr_tails(expansion) -> np.ndarray:
    """The tail node of every CSR position of an expansion: the node whose
    row holds it."""
    return np.repeat(np.arange(expansion.num_nodes, dtype=np.int64), np.diff(expansion.indptr))


def connector_arcs(expansion) -> np.ndarray:
    """Per CSR position of an expansion, whether it is a connector arc: one
    whose tail is a slot exit node."""
    return np.isin(csr_tails(expansion), expansion.slot_exit)


def connector_positions(expansion) -> np.ndarray:
    """The CSR position of connector (edge, direction) as an (edges, 2) int64
    array, -1 for the v -> u direction of a directed graph.  The connectors
    that leave one slot sit in its exit node's row, in (edge, direction)
    order; the rank of each among them comes from a stable argsort."""
    k = 1 if expansion.graph.directed else 2
    leave = expansion.flag_slot[:, :k].ravel()
    by_slot = np.argsort(leave, kind="stable")
    first = np.searchsorted(leave[by_slot], leave[by_slot])
    rank = np.empty(len(leave), dtype=np.int64)
    rank[by_slot] = np.arange(len(leave)) - first
    pos = np.full((expansion.graph.num_edges, 2), -1, dtype=np.int64)
    pos[:, :k] = (expansion.indptr[expansion.slot_exit[leave]] + rank).reshape(-1, k)
    return pos


def dfs_reachable_from(self, vertex: Any, label: Any) -> "DfsReachResult":
    """``LabelSwitchDigraph.reachable_from`` of the package's expansion
    ``self`` as it was below ``FRONTIER_MIN_NODES`` nodes: one DFS from the
    start, its visited nodes read at the connector tails."""
    vid = self.graph.vertex_id(vertex)
    slots = slice(int(self.vp_ptr[vid]), int(self.vp_ptr[vid + 1]))
    lid = self.graph.label_id(label)
    starts = () if lid is None else self.slot_exit[slots][self.slot_label[slots] == lid]
    k = 1 if self.graph.directed else 2
    if not len(starts):
        return DfsReachResult(self, None, np.zeros((self.graph.num_edges, k), dtype=bool))
    start = int(starts[0])
    visited, parent = nonrep_kernels.reach_csr(self.indptr, self.indices, start)
    # Connector (edge, d) leaves the exit node of the slot of flag (edge, d).
    return DfsReachResult(self, start, visited[self.slot_exit[self.flag_slot[:, :k]]] != 0, parent)


class DfsReachResult:
    """The ``ReachResult`` that kept its hits as a mask and came with its DFS
    parents."""

    def __init__(self, expansion, start, mask: np.ndarray, parent=None):
        self._expansion = expansion
        self._start = start
        self.mask = mask
        self._parent = parent
        self._edges: Optional[list[ReachedEdge]] = None
        self._arrivals: Optional[dict] = None

    @property
    def edges(self) -> list[ReachedEdge]:
        if self._edges is None:
            rows = self._expansion.traversal_rows(self.mask)
            self._edges = [ReachedEdge(*row) for row in rows]
        return self._edges

    def __iter__(self):
        return iter(self.edges)

    def __len__(self):
        return int(np.count_nonzero(self.mask))

    def edge_ids(self) -> set[int]:
        return set(np.flatnonzero(self.mask.any(axis=1)).tolist())

    def traversal(self, eid: int, direction: int) -> ReachedEdge:
        return self._expansion._oriented(eid, direction)

    def arrival(self, vertex: Any, label: Any) -> Optional[ReachedEdge]:
        found = self.arrivals().get((vertex, label))
        if found is None:
            self._expansion.graph.vertex_id(vertex)  # raises for an unknown vertex
            return None
        return self.traversal(*found)

    def arrivals(self) -> dict[tuple[Any, Any], tuple[int, int]]:
        if self._arrivals is None:
            ex = self._expansion
            names = ex._slot_table()[1]
            at = np.flatnonzero(self.mask)
            k = self.mask.shape[1]
            # Connector (edge, d) enters the slot of the flag at the other end.
            slots, first = np.unique(ex.flag_slot[:, ::-1][:, :k].ravel()[at], return_index=True)
            self._arrivals = {
                names[s]: divmod(pos, k) for s, pos in zip(slots.tolist(), at[first].tolist())
            }
        return self._arrivals

    def walk_to(self, reached: ReachedEdge) -> list[ReachedEdge]:
        if self._start is None:
            raise ValueError("empty reach result has no walks")
        ex = self._expansion
        eid = reached.edge_id
        direction = -1
        if 0 <= eid < ex.graph.num_edges:
            direction = int(reached.tail != ex.graph.endpoints(eid)[0])
            if ex._oriented(eid, direction) != reached or direction >= self.mask.shape[1]:
                direction = -1
        if direction < 0 or not self.mask[eid, direction]:
            raise ValueError(f"{reached} is not reached from the start")
        if self._parent is None:
            self._parent = nonrep_kernels.reach_csr(ex.indptr, ex.indices, self._start)[1]
        tail = ex.slot_exit[ex.flag_slot[eid, direction]]
        steps = ex._walk_to_node(self._parent, int(tail))
        steps.append(reached)
        return steps


# ---------------------------------------------------------------------------
# Test references that once shipped in the package: the quadratic switch
# gadget and the all-pairs gadget reach sweep (``nonrep.gadget``), the
# node sequence of a skew arc path and the exhaustive simple-path and
# simple-cycle enumerator (``nonrep.simple_paths``), each verbatim.  The
# expansion built on the quadratic gadget comes from ``dense_expansion``.
# ``has_nonrepetitive_simple_cycle`` is the peeling loop that rescanned
# every vertex per round and cut bridges, with its ``_bridges``, kept as a
# speed reference for the worklist peeling.
# ---------------------------------------------------------------------------


def build_dense_gadget(k: int) -> SwitchGadget:
    """Quadratic gadget: every entry arcs directly to every other exit."""
    if k < 1:
        raise ValueError("gadget needs at least one label")
    arcs = tuple((i, k + j) for i in range(k) for j in range(k) if i != j)
    return SwitchGadget(k, 2 * k, tuple(range(k)), tuple(k + i for i in range(k)), arcs)


def exit_reach_sets(gadget: SwitchGadget) -> list[frozenset[int]]:
    """Per entry slot, the set of exit slots it reaches.

    Gadgets are acyclic, so one reverse-topological bitset sweep answers all
    pairs at once.
    """
    n = gadget.num_nodes
    adj: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in gadget.arcs:
        adj[a].append(b)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    reach = [0] * n
    for slot, node in enumerate(gadget.exit):
        reach[node] |= 1 << slot
    for v in reversed(order):
        for w in adj[v]:
            reach[v] |= reach[w]
    result = []
    for slot in range(gadget.label_count):
        mask = reach[gadget.entry[slot]]
        result.append(
            frozenset(t for t in range(gadget.label_count) if mask >> t & 1)
        )
    return result


def gadget_reaches(gadget: SwitchGadget, slot_from: int, slot_to: int) -> bool:
    """Entry ``slot_from`` reaches exit ``slot_to``."""
    return slot_to in exit_reach_sets(gadget)[slot_from]


def dense_expansion(graph: FlagLabeledGraph) -> "nonrep_engine.LabelSwitchDigraph":
    """The package's expansion of ``graph`` with the quadratic gadget at every
    vertex: ``nonrep.engine.build_switch_gadget`` is swapped for
    ``build_dense_gadget`` while the expansion is built."""
    linear = nonrep_engine.build_switch_gadget
    nonrep_engine.build_switch_gadget = build_dense_gadget
    try:
        return nonrep_engine.LabelSwitchDigraph(graph)
    finally:
        nonrep_engine.build_switch_gadget = linear


def path_nodes(ssg: SkewSymmetricGraph, arc_path: list[int]) -> list[int]:
    """Node sequence of an arc path, starting from the source."""
    nodes = [ssg.source]
    cur = ssg.source
    for arc_idx in arc_path:
        a, b = ssg.arcs[arc_idx]
        if a == cur:
            cur = b
        else:
            if ssg.sigma[b] != cur:
                raise ValueError("arc path is not connected")
            cur = ssg.sigma[a]
        nodes.append(cur)
    return nodes


def _bridges(num_vertices: int, edge_list: list[tuple[int, int, int]]) -> set[int]:
    """Bridge edge ids via iterative lowlink; parallel edges are never bridges."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for eid, u, v in edge_list:
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * num_vertices
    low = [0] * num_vertices
    bridges: set[int] = set()
    counter = 0
    for root in range(num_vertices):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, 0)]
        while stack:
            v, in_edge, i = stack.pop()
            if i < len(adj[v]):
                stack.append((v, in_edge, i + 1))
                w, eid = adj[v][i]
                if eid == in_edge:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eid, 0))
                else:
                    low[v] = min(low[v], disc[w])
            elif in_edge != -1:
                # leaving v: propagate lowlink to the parent frame
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] > disc[parent]:
                    bridges.add(in_edge)
    return bridges


def has_nonrepetitive_simple_cycle(g: FlagLabeledGraph) -> bool:
    """Peels vertices whose incident edges all share one label and bridge
    edges until a fixed point, and answers whether edges remain.

    A speed reference, not ground truth: a vertex with both labels only
    across two blocks survives it, so it answers True on two triangles that
    share a vertex, with each triangle's labels at that vertex equal.  The
    package's peeling works per block and is exact.
    """
    if g.directed:
        raise ValueError("peeling test is for undirected graphs")
    for eid in range(g.num_edges):
        lu, lv = g.edge_labels(eid)
        _binary_bit(lu)
        _binary_bit(lv)
    alive = {e for e in range(g.num_edges) if not g.is_self_loop(e)}
    removed_vertex = [False] * g.num_vertices
    while True:
        changed = False
        for vid in range(g.num_vertices):
            if removed_vertex[vid]:
                continue
            labels = set()
            incident = []
            for eid, end in g.incident(vid):
                if eid in alive:
                    labels.add(g.flag_label_id(eid, end))
                    incident.append(eid)
            if incident and len(labels) <= 1:
                removed_vertex[vid] = True
                alive.difference_update(incident)
                changed = True
        edge_list = [(eid, g.edges[eid][0], g.edges[eid][1]) for eid in sorted(alive)]
        bridges = _bridges(g.num_vertices, edge_list)
        if bridges:
            alive -= bridges
            changed = True
        if not changed:
            return bool(alive)


def oracle_enumerate(g: FlagLabeledGraph, kind: str, p=None, q=None, bound: int = 12):
    """Exhaustive backtracking enumeration of simple nonrepetitive paths or cycles.

    ``kind="paths"`` returns every p..q path as a tuple of edge ids;
    ``kind="cycles"`` returns the set of cycles as frozensets of edge ids
    (a simple cycle is determined by its edge set).  Intended as the ground
    truth for small graphs; refuses more than ``bound`` vertices.
    """
    if g.directed:
        raise ValueError("enumeration is for undirected graphs")
    if g.num_vertices > bound:
        raise ValueError(f"graph exceeds enumeration bound ({bound} vertices)")

    def steps_from(vid: int):
        for eid, end in g.incident(vid):
            if g.is_self_loop(eid):
                continue
            near = g.flag_label_id(eid, end)
            far = g.flag_label_id(eid, 1 - end)
            other = g.edges[eid][1 - end]
            yield eid, near, far, other

    if kind == "paths":
        pid = g.vertex_id(p)
        qid = g.vertex_id(q)
        if pid == qid:
            return [()]
        found: list[tuple[int, ...]] = []
        path: list[int] = []
        visited = {pid}

        def extend(vid: int, last_label: Optional[int]):
            for eid, near, far, other in steps_from(vid):
                if last_label is not None and near == last_label:
                    continue
                if other in visited:
                    continue
                path.append(eid)
                if other == qid:
                    found.append(tuple(path))
                else:
                    visited.add(other)
                    extend(other, far)
                    visited.remove(other)
                path.pop()

        extend(pid, None)
        return found

    if kind == "cycles":
        cycles: set[frozenset[int]] = set()
        for start in range(g.num_vertices):
            path_edges: list[int] = []
            visited = {start}
            on_path: set[int] = set()

            def extend(vid: int, last_label: Optional[int], first_label: Optional[int]):
                for eid, near, far, other in steps_from(vid):
                    if last_label is not None and near == last_label:
                        continue
                    if eid in on_path:
                        continue
                    if other == start:
                        if len(path_edges) >= 1 and far != first_label:
                            cycles.add(frozenset(path_edges + [eid]))
                        continue
                    if other in visited or other < start:
                        continue
                    path_edges.append(eid)
                    on_path.add(eid)
                    visited.add(other)
                    extend(other, far, near if first_label is None else first_label)
                    visited.remove(other)
                    on_path.remove(eid)
                    path_edges.pop()

            extend(start, None, None)
        return cycles

    raise ValueError(f"unknown enumeration kind {kind!r}")
