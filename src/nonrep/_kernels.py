"""Hot kernels shared by the graph engine, the matching layer and the Sudoku
generator.

Every kernel is plain CPython, and none is jitted: it takes numpy arrays,
converts them once with ``tolist()``, walks Python lists, and returns numpy
arrays.  The Sudoku kernels take the grid as a list of ints and keep digit
sets as Python-int bitmasks (bit d = digit d+1).

Graphs are CSR (``indptr``/``indices`` int64 arrays); ``build_csr`` makes
them with one stable sort, so arcs with equal tails keep their input order.
Scan orders are fixed (arcs in CSR order, roots in index order, the stack,
queue and deque disciplines documented on each kernel), so component ids,
parents, distances and matchings are deterministic.  The graph expansion
that feeds the traversal kernels (``engine.LabelSwitchDigraph``) is built
with array operations and one switch-gadget template per label count.

Box-size contract, B <= 7: a digit set of a B-box board takes B^2 bits, so
B <= 7 keeps every mask within 49 bits of an int64.  Python ints do not
overflow, but ``count_solutions`` and ``solved_grid``, the entry points to
the counter, refuse B > 7 all the same; an exhaustive search on a 64 x 64
grid would not finish anyway.  Pure-Python board code (``Board``, the rules)
is not bound by the cap.
"""

from __future__ import annotations

from collections import deque

import numpy as np

USE_NUMBA = False  # no kernel is jitted; the benchmark records this flag

_UNREACHED = 2**62


def build_csr(num_nodes: int, tails: np.ndarray, heads: np.ndarray):
    """Sort arcs by tail (stable) and return (indptr, indices, pos_of_arc).

    ``pos_of_arc[i]`` is the CSR position of input arc ``i``; stability keeps
    arcs with equal tails in insertion order, which makes every downstream
    traversal deterministic.
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    order = np.argsort(tails, kind="stable")
    indices = heads[order]
    counts = np.bincount(tails, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    pos_of_arc = np.empty(len(order), dtype=np.int64)
    pos_of_arc[order] = np.arange(len(order), dtype=np.int64)
    return indptr, indices, pos_of_arc


# ---------------------------------------------------------------------------
# Digraph kernels
# ---------------------------------------------------------------------------


def scc_csr(indptr, indices):
    """Strongly connected components; ids in reverse topological order.

    Iterative Tarjan: arcs are scanned in CSR order and a component gets its
    id when its root finishes.  A node whose component is known gets a
    discovery index of ``n``, which no low-link can exceed, so arcs into
    finished components need no separate on-stack test.
    """
    ip = indptr.tolist()
    ix = indices.tolist()
    n = len(ip) - 1
    done = n
    disc = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack = []
    path_v = []  # the DFS path above the current node,
    path_e = []  # and the arc each of them resumes at
    counter = 0
    ncomp = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = lv = counter
        counter += 1
        stack.append(root)
        v = root
        e = ip[root]
        end = ip[root + 1]
        while True:
            # Scan v's arcs from e, keeping its low-link in lv, until an
            # undiscovered node turns up.
            while e < end:
                w = ix[e]
                e += 1
                dw = disc[w]
                if dw < 0:
                    break
                if dw < lv:
                    lv = dw
            else:
                # v is finished: close its component and hand its low-link up.
                if lv == disc[v]:
                    while True:
                        w = stack.pop()
                        disc[w] = done
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if not path_v:
                    break
                child = lv
                v = path_v.pop()
                e = path_e.pop()
                end = ip[v + 1]
                lv = low[v]
                if child < lv:
                    lv = child
                continue
            low[v] = lv
            path_v.append(v)
            path_e.append(e)
            disc[w] = lv = counter
            counter += 1
            stack.append(w)
            v = w
            e = ip[w]
            end = ip[w + 1]
    return np.array(comp, np.int64)


def reach_csr(indptr, indices, start):
    """DFS reachability; returns (visited uint8, parent CSR arc position).

    A popped node marks and pushes all its unvisited successors in arc order,
    so ``parent`` holds the arc that first discovered each node.
    """
    ip = indptr.tolist()
    ix = indices.tolist()
    n = len(ip) - 1
    visited = bytearray(n)
    parent_arc = [-1] * n
    visited[start] = 1
    stack = [start]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        for e in range(ip[v], ip[v + 1]):
            w = ix[e]
            if not visited[w]:
                visited[w] = 1
                parent_arc[w] = e
                push(w)
    return np.frombuffer(visited, np.uint8), np.array(parent_arc, np.int64)


def bfs01(indptr, indices, unit, sources):
    """0/1-weighted BFS (``unit[arc]`` is the arc cost, 0 or 1).

    A node whose distance improves goes to the front of the deque over a
    0-arc and to the back over a 1-arc.  Returns (dist, parent CSR arc
    position); unreached nodes keep a distance of 2**62.
    """
    ip = indptr.tolist()
    ix = indices.tolist()
    cost = unit.tolist()
    n = len(ip) - 1
    dist = [_UNREACHED] * n
    parent_arc = [-1] * n
    queue = deque()
    for s in sources.tolist():
        dist[s] = 0
        queue.append(s)
    popleft = queue.popleft
    while queue:
        v = popleft()
        dv = dist[v]
        e = ip[v]
        end = ip[v + 1]
        while e < end:
            w = ix[e]
            if cost[e]:
                if dv + 1 < dist[w]:
                    dist[w] = dv + 1
                    parent_arc[w] = e
                    queue.append(w)
            elif dv < dist[w]:
                dist[w] = dv
                parent_arc[w] = e
                queue.appendleft(w)
            e += 1
    return np.array(dist, np.int64), np.array(parent_arc, np.int64)


# ---------------------------------------------------------------------------
# Matching kernels
# ---------------------------------------------------------------------------


def kuhn_bipartite(num_left, num_right, indptr, indices):
    """Maximum bipartite matching by depth-first augmentation.

    ``indptr``/``indices`` is the left-to-right adjacency.  Each left vertex,
    in index order, searches for an augmenting path that tries rights in CSR
    order and visits each right at most once.  The path lives on explicit
    stacks, so its length is not bounded by the recursion limit.  Returns
    (mate_left, mate_right) with -1 for unmatched.
    """
    ip = indptr.tolist()
    ix = indices.tolist()
    mate_l = [-1] * num_left
    mate_r = [-1] * num_right
    seen = [-1] * num_right  # seen[r] == root: the search from root visited r
    for root in range(num_left):
        path_l = [root]  # lefts on the search path
        path_r = []  # path_r[i] is the right path_l[i] went to
        resume = []  # resume[i] is the arc path_l[i] tries after path_r[i]
        e = ip[root]
        end = ip[root + 1]
        while True:
            while e < end:
                r = ix[e]
                e += 1
                if seen[r] != root:
                    break
            else:
                # Dead end: back up to the previous left, which tries its
                # next right.
                if not path_r:
                    break
                path_l.pop()
                path_r.pop()
                e = resume.pop()
                end = ip[path_l[-1] + 1]
                continue
            seen[r] = root
            path_r.append(r)
            l = mate_r[r]
            if l == -1:
                for l, r in zip(path_l, path_r):
                    mate_l[l] = r
                    mate_r[r] = l
                break
            resume.append(e)
            path_l.append(l)
            e = ip[l]
            end = ip[l + 1]
    return np.array(mate_l, np.int64), np.array(mate_r, np.int64)


def swappable_edges(num_left, num_right, indptr, indices, mate_l):
    """Per CSR edge, 1 when some maximum matching contains it and some does not.

    ``mate_l`` is a maximum matching of the left-to-right adjacency
    ``indptr``/``indices``.  Orient matched edges left to right and the
    others right to left, over nodes 0..L-1 (lefts) then L..L+R-1 (rights).
    By the Dulmage-Mendelsohn decomposition an edge is swappable iff it lies
    on an alternating cycle (its ends share a strong component) or on an
    even alternating path from a free vertex (its left end is reached
    against the orientation from a free left, or its right end along it
    from a free right).  The other edges are in every maximum matching when
    matched and in none when not.
    """
    ip = indptr.tolist()
    ix = indices.tolist()
    mate = mate_l.tolist()
    n = num_left + num_right
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
    o_indptr, o_indices, _ = build_csr(n, tails, heads)
    comp = scc_csr(o_indptr, o_indices).tolist()
    free_left = [l for l in range(num_left) if mate[l] == -1]
    matched = set(mate)
    free_right = [num_left + r for r in range(num_right) if r not in matched]
    from_left = _reached(n, heads, tails, free_left)  # against the orientation
    from_right = _reached(n, tails, heads, free_right)
    swap = [0] * len(ix)
    for l in range(num_left):
        for e in range(ip[l], ip[l + 1]):
            r = num_left + ix[e]
            if comp[l] == comp[r] or from_left[l] or from_right[r]:
                swap[e] = 1
    return np.array(swap, np.uint8)


def _reached(n, tails, heads, sources):
    """Flags of the nodes that arcs ``tails -> heads`` reach from ``sources``."""
    if not sources:
        return bytes(n)
    # One extra root, node n, with an arc to every source.
    indptr, indices, _ = build_csr(n + 1, tails + [n] * len(sources), heads + sources)
    return reach_csr(indptr, indices, n)[0].tolist()


def bipartite_forbidden(num_left, num_right, indptr, indices):
    """Matching plus per-edge viability for square instances.

    Returns (size, mate_l, mate_r, forbidden) where forbidden[pos] is 1 when
    the CSR edge at ``pos`` lies in no perfect matching: it is unmatched and
    not swappable (see ``swappable_edges``).  The flags are only computed
    when size == num_left == num_right (a perfect matching) and are all 0
    otherwise.
    """
    mate_l, mate_r = kuhn_bipartite(num_left, num_right, indptr, indices)
    mate = mate_l.tolist()
    size = num_left - mate.count(-1)
    if size != num_left or num_left != num_right:
        return size, mate_l, mate_r, np.zeros(indices.shape[0], np.uint8)
    swap = swappable_edges(num_left, num_right, indptr, indices, mate_l).tolist()
    ip = indptr.tolist()
    ix = indices.tolist()
    forbidden = [0] * len(ix)
    for l in range(num_left):
        for e in range(ip[l], ip[l + 1]):
            if not swap[e] and ix[e] != mate[l]:
                forbidden[e] = 1
    return size, mate_l, mate_r, np.array(forbidden, np.uint8)


def blossom_matching(n, indptr, indices, require_perfect):
    """Maximum matching in a general graph (Edmonds' blossom contraction).

    A greedy pass first matches each exposed vertex, in index order, to its
    first exposed neighbour in CSR order.  Then every vertex still exposed,
    in index order, roots one breadth-first search for an augmenting path.
    Returns (mate, perfect).  With ``require_perfect`` set, the search stops
    as soon as some exposed vertex admits no augmenting path: such a vertex
    stays exposed in some maximum matching, so no perfect matching exists.
    """
    ip = indptr.tolist()
    ix = indices.tolist()
    mate = [-1] * n
    for v in range(n):
        if mate[v] != -1:
            continue
        for e in range(ip[v], ip[v + 1]):
            u = ix[e]
            if u != v and mate[u] == -1:
                mate[v] = u
                mate[u] = v
                break
    for root in range(n):
        if mate[root] != -1:
            continue
        p = [-1] * n
        base = list(range(n))
        used = [False] * n
        used[root] = True
        queue = [root]
        qh = 0
        finish = -1
        while qh < len(queue) and finish == -1:
            v = queue[qh]
            qh += 1
            for e in range(ip[v], ip[v + 1]):
                to = ix[e]
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and p[mate[to]] != -1):
                    # Odd cycle: contract the blossom around the tree lca.
                    above = set()
                    a = base[v]
                    while True:
                        above.add(a)
                        if mate[a] == -1:
                            break
                        a = base[p[mate[a]]]
                    lca = base[to]
                    while lca not in above:
                        lca = base[p[mate[lca]]]
                    in_blossom = set()
                    for x, child in ((v, to), (to, v)):
                        while base[x] != lca:
                            in_blossom.add(base[x])
                            in_blossom.add(base[mate[x]])
                            p[x] = child
                            child = mate[x]
                            x = p[child]
                    for i in range(n):
                        if base[i] in in_blossom:
                            base[i] = lca
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if mate[to] == -1:
                        finish = to
                        break
                    nxt = mate[to]
                    if not used[nxt]:
                        used[nxt] = True
                        queue.append(nxt)
        if finish == -1:
            if require_perfect:
                return np.array(mate, np.int64), False
        else:
            v = finish
            while v != -1:
                pv = p[v]
                nxt = mate[pv]
                mate[v] = pv
                mate[pv] = v
                v = nxt
    return np.array(mate, np.int64), -1 not in mate

# ---------------------------------------------------------------------------
# Sudoku kernels
# ---------------------------------------------------------------------------
#
# Plain CPython, not jitted: the grid is a list of ints and the digits used in
# each group are Python-int bitmasks, indexed by the board's group ids (rows
# 0..n-1, columns n..2n-1, boxes 2n..3n-1).  The cell-to-group tables come
# from ``sudoku.board.geometry`` and are built once per box size.


def _sudoku_geometry(box):
    # Imported at call time: the sudoku package imports this module.
    from .sudoku.board import geometry

    return geometry(box)


def _grid_list(values):
    """A private copy of the grid as a list of Python ints."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _group_masks(geo, work):
    """Digits used per group, or None when two givens share a group."""
    used = [0] * (3 * geo.n)
    groups = geo.groups_of_cell
    for i, d in enumerate(work):
        if d:
            bit = 1 << (d - 1)
            g0, g1, g2 = groups[i]
            if (used[g0] | used[g1] | used[g2]) & bit:
                return None
            used[g0] |= bit
            used[g1] |= bit
            used[g2] |= bit
    return used


def count_and_first(box, values, cap):
    """Backtracking completion count (saturating at cap) plus first solution.

    ``values`` (a list or an int array, left unchanged) holds 0 for empty
    cells and 1..N for placed digits.  Branches on a minimum-candidate cell,
    the lowest index winning ties and the scan stopping at the first cell
    with one candidate, and tries digits in ascending order, so the count and
    the first solution found are deterministic.  Returns (count, first) with
    ``first`` an int64 array, all zeros when there is no solution.
    """
    geo = _sudoku_geometry(box)
    full = (1 << geo.n) - 1
    groups = geo.groups_of_cell
    work = _grid_list(values)
    used = _group_masks(geo, work)
    if used is None:
        return 0, np.zeros(geo.size, np.int64)
    empties = [i for i, d in enumerate(work) if not d]
    # One frame per branching cell: [cell, its position in empties,
    # digit bits still to try, bit of the digit in place or 0].
    stack = []
    count = 0
    first = None
    while True:
        best = -1
        best_count = geo.n + 1
        for i in empties:
            g0, g1, g2 = groups[i]
            mask = full & ~(used[g0] | used[g1] | used[g2])
            if not mask:
                best = -2  # dead end: an empty cell without candidates
                break
            cnt = mask.bit_count()
            if cnt < best_count:
                best = i
                best_count = cnt
                best_mask = mask
                if cnt == 1:
                    break
        if best == -1:
            count += 1
            if count == 1:
                first = work[:]
            if count >= cap:
                break
        elif best >= 0:
            pos = empties.index(best)
            del empties[pos]
            stack.append([best, pos, best_mask, 0])
        # Place the next digit of the innermost open frame, closing the
        # frames whose digits are exhausted.
        while stack:
            frame = stack[-1]
            i, pos, rest, bit = frame
            g0, g1, g2 = groups[i]
            if bit:
                used[g0] ^= bit
                used[g1] ^= bit
                used[g2] ^= bit
            if not rest:
                empties.insert(pos, i)
                stack.pop()
                continue
            bit = rest & -rest
            frame[2] = rest ^ bit
            frame[3] = bit
            work[i] = bit.bit_length()
            used[g0] |= bit
            used[g1] |= bit
            used[g2] |= bit
            break
        else:
            break
    if first is None:
        return count, np.zeros(geo.size, np.int64)
    return count, np.array(first, np.int64)


def propagate_singles(box, values):
    """Fill naked and hidden singles in place until a fixed point.

    Each sweep places naked singles in cell order, then hidden singles group
    by group (rows, columns, boxes), digits ascending within a group.
    Returns 1 if the grid completed, 0 if it stalled, -1 on contradiction
    (an empty cell with no candidates, a digit with no remaining home in
    some group, or conflicting givens); the singles placed before a
    contradiction stay in ``values``.
    """
    geo = _sudoku_geometry(box)
    work = _grid_list(values)
    used = _group_masks(geo, work)
    if used is None:
        return -1
    status = _fill_singles(geo, work, used)
    values[:] = work
    return status


def _fill_singles(geo, work, used):
    """The sweeps of ``propagate_singles`` on a private grid; returns its status."""
    full = (1 << geo.n) - 1
    groups = geo.groups_of_cell
    changed = True
    while changed:
        changed = False
        for i in range(geo.size):
            if work[i]:
                continue
            g0, g1, g2 = groups[i]
            mask = full & ~(used[g0] | used[g1] | used[g2])
            if not mask:
                return -1
            if not mask & (mask - 1):
                work[i] = mask.bit_length()
                used[g0] |= mask
                used[g1] |= mask
                used[g2] |= mask
                changed = True
        for g, cells in enumerate(geo.group_cells):
            # ``done``: digits placed in the group, and in this sweep every
            # digit up to the last hidden single placed here, so the group is
            # read digit by digit in ascending order as one scan would.
            done = used[g]
            while done != full:
                once = twice = 0
                for i in cells:
                    if not work[i]:
                        g0, g1, g2 = groups[i]
                        free = full & ~(used[g0] | used[g1] | used[g2])
                        twice |= once & free
                        once |= free
                todo = full & ~done
                homeless = todo & ~once
                single = todo & once & ~twice
                events = homeless | single
                if not events:
                    break
                bit = events & -events
                if bit & homeless:
                    return -1
                for i in cells:
                    if not work[i]:
                        g0, g1, g2 = groups[i]
                        if not (used[g0] | used[g1] | used[g2]) & bit:
                            break
                work[i] = bit.bit_length()
                used[g0] |= bit
                used[g1] |= bit
                used[g2] |= bit
                changed = True
                done = used[g] | ((bit << 1) - 1)
    return 0 if 0 in work else 1
