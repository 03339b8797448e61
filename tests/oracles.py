"""Independent brute-force oracles used to validate the fast implementations.

Everything here favors obviousness over speed: explicit state graphs with
networkx strong connectivity, exhaustive DFS enumeration, and subset search
for matchings.  None of it shares code with the package's algorithms.  The
Sudoku kernels at the end are the numpy-scalar versions the package's
Python-int kernels replaced, kept as the reference those must equal.
"""

from __future__ import annotations

from random import Random

import networkx as nx
import numpy as np

from nonrep.labeled_graph import FlagLabeledGraph


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
