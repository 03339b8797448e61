"""Hot kernels shared by the graph engine, the matching layer and the Sudoku
generator.

No kernel is jitted.  The traversal kernels of the label-switch expansion
(``scc_csr``, ``reach_csr``, ``sweep_csr``, ``bfs01``) take and return numpy
arrays: the expansion is a CSR graph (``indptr`` and ``indices`` int64
arrays) that ``build_csr`` makes with one stable sort, so arcs with equal
tails keep their input order.  Below ``FRONTIER_MIN_NODES`` nodes they are
plain CPython scans over lists, except ``bfs01``, which reads the CSR in
place: its searches stop early and settle few nodes of a large expansion, so
copying the graph into lists would cost more than the search.  From there
on, the answers that do not depend on a visit order come from numpy frontier
sweeps, one BFS level per round: ``sweep_csr`` marks the nodes a set of
sources reaches, and ``scc_csr`` takes the largest component from a forward
and a backward sweep (Fleischer, Hendrickson & Pinar 2000), peels trivial
components for a bounded number of rounds (McLendon et al. 2005) and leaves
the rest to the scan.  A sweep whose frontiers stay thin hands the rest to
the scan as well, so a long path or ring costs about what the scan costs.
Parents and distances (``reach_csr``, ``bfs01``) always come from the scans,
and the expansion runs ``reach_csr`` only for witness walks.  The matching
kernels take edge lists and return Python lists, since their instances are
too small for numpy to pay off; they append each vertex's successors in edge
order, the order ``build_csr`` gives, and share the strong-component and DFS
loops (``_tarjan``, ``_dfs``) with the traversal kernels.  ``blossom_matching``
also takes neighbour lists its caller keeps, in that order.  The Sudoku
kernels take the grid as a list of ints and keep digit sets as Python-int
bitmasks (bit d = digit d+1).

Scan orders are fixed (arcs in CSR order, roots in index order, the stack,
queue and deque disciplines documented on each kernel), so component ids,
parents, distances and matchings are deterministic.  Component ids are a
partition; they are in reverse topological order only below
``FRONTIER_MIN_NODES``.

Box-size contract, B <= 7: a digit set of a B-box board takes B^2 bits, so
B <= 7 keeps every mask within 49 bits of an int64.  Python ints do not
overflow, but the public Sudoku kernels refuse B > 7 all the same, once,
where they look up the board geometry; an exhaustive search
on a 64 x 64 grid would not finish anyway.  Pure-Python board code
(``Board``, the rules) is not bound by the cap.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, chain

import numpy as np

USE_NUMBA = False  # no kernel is jitted; the benchmark records this flag

_UNREACHED = 2**62

# Graphs of at least this many nodes take the frontier sweeps; below it the
# list scans are faster.  On random expansions a reach sweep wins from about
# 1k nodes and the strong-component search from about 2-3k; Sudoku
# expansions stay under 500.
FRONTIER_MIN_NODES = 4096
_THIN = 64  # a frontier of fewer nodes is thin
_THIN_ROUNDS = 64  # thin rounds a sweep may run before a scan takes over
_TRIM_ROUNDS = 3  # peeling rounds of ``scc_csr`` before ``_tarjan``


def build_csr(num_nodes: int, tails: np.ndarray, heads: np.ndarray):
    """Sort arcs by tail (stable) and return (indptr, indices).

    Stability keeps arcs with equal tails in input order, which makes every
    downstream traversal deterministic.
    """
    tails = np.asarray(tails, dtype=np.int64)
    indices = np.asarray(heads, dtype=np.int64)[np.argsort(tails, kind="stable")]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=num_nodes), out=indptr[1:])
    return indptr, indices


# ---------------------------------------------------------------------------
# Digraph kernels
# ---------------------------------------------------------------------------


def _list_csr(n, arcs):
    """(ip, ix) as Python lists: the CSR that ``build_csr`` makes of the
    (tail, head) pairs ``arcs``, each node's successors in arc order."""
    succ = [[] for _ in range(n)]
    for t, h in arcs:
        succ[t].append(h)
    return list(accumulate(map(len, succ), initial=0)), list(chain.from_iterable(succ))


def _tarjan(ip, ix):
    """Strong component id per node of a list CSR, in reverse topological order.

    Iterative Tarjan: arcs are scanned in CSR order and a component gets its
    id when its root finishes.  A node whose component is known gets a
    discovery index of ``n``, which no low-link can exceed, so arcs into
    finished components need no separate on-stack test.
    """
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
    return comp


def _dfs(ip, ix, sources, visited=None):
    """DFS reachability over a list CSR; returns (visited bytearray, parent
    CSR arc position list).

    The sources are marked and pushed in order.  A popped node marks and
    pushes all its unvisited successors in arc order, so ``parent`` holds
    the arc that first discovered each node, -1 for sources and unreached
    nodes.  A ``visited`` bytearray passed in is marked in place; the nodes
    it already holds are not entered again.
    """
    n = len(ip) - 1
    if visited is None:
        visited = bytearray(n)
    parent_arc = [-1] * n
    stack = []
    pop = stack.pop
    push = stack.append
    for s in sources:
        visited[s] = 1
        push(s)
    while stack:
        v = pop()
        for e in range(ip[v], ip[v + 1]):
            w = ix[e]
            if not visited[w]:
                visited[w] = 1
                parent_arc[w] = e
                push(w)
    return visited, parent_arc


def scc_csr(indptr, indices):
    """Strong components of a numpy CSR: an int64 component id per node, a
    partition with ids 0 .. k-1.

    Below ``FRONTIER_MIN_NODES`` nodes the ids are ``_tarjan``'s, in reverse
    topological order.  From there on, a forward and a backward sweep from
    the node with the largest in-degree x out-degree product meet in its
    component, id 0.  ``_TRIM_ROUNDS`` rounds then peel the nodes of the rest
    that have no arc from or no arc to the rest, each its own component, and
    ``_tarjan`` numbers what remains.  When the forward sweep's frontiers
    stay thin, ``_tarjan`` numbers the whole graph instead.
    """
    n = len(indptr) - 1
    if n >= FRONTIER_MIN_NODES:
        out_degree = np.diff(indptr)
        in_degree = np.bincount(indices, minlength=n)
        pivot = int(np.argmax(out_degree * in_degree))
        forward, left = _sweep(indptr, indices, (pivot,))
        if not len(left):
            return _scc_from(pivot, forward, indptr, indices)
    return np.array(_tarjan(indptr.tolist(), indices.tolist()), np.int64)


def _scc_from(pivot, forward, indptr, indices):
    """``scc_csr`` past its forward sweep: ``forward`` is what ``pivot``
    reaches."""
    n = len(indptr) - 1
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    rest = ~(forward & sweep_csr(*build_csr(n, indices, tails), (pivot,)))
    comp = np.zeros(n, dtype=np.int64)
    ncomp = 1
    inner = rest[tails] & rest[indices]
    tails, heads = tails[inner], indices[inner]
    for _ in range(_TRIM_ROUNDS):
        linked = np.bincount(tails, minlength=n).astype(bool)
        linked &= np.bincount(heads, minlength=n).astype(bool)
        peeled = np.flatnonzero(rest & ~linked)
        if not len(peeled):
            break
        comp[peeled] = np.arange(ncomp, ncomp + len(peeled))
        ncomp += len(peeled)
        rest[peeled] = False
        inner = rest[tails] & rest[heads]
        tails, heads = tails[inner], heads[inner]
    # Renumbering the nodes left in order keeps each node's arcs in their
    # old order in the CSR of the remainder.
    nodes = np.flatnonzero(rest)
    local = np.zeros(n, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    ip, ix = build_csr(len(nodes), local[tails], local[heads])
    comp[nodes] = ncomp + np.array(_tarjan(ip.tolist(), ix.tolist()), np.int64)
    return comp


def _sweep(indptr, indices, sources):
    """Frontier sweep from ``sources``: (seen bool array, frontier left).

    Each round gathers the successors of the whole frontier with array
    operations and keeps each unseen one once.  The sweep stops early after
    ``_THIN_ROUNDS`` rounds on frontiers of fewer than ``_THIN`` nodes, with
    its last frontier seen but not expanded; a finished sweep leaves an
    empty frontier.
    """
    n = len(indptr) - 1
    seen = np.zeros(n, dtype=bool)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    seen[frontier] = True
    stamp = np.empty(n, dtype=np.int64)
    thin = 0
    while len(frontier):
        if len(frontier) < _THIN:
            thin += 1
            if thin > _THIN_ROUNDS:
                break
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        pos = np.arange(int(ends[-1]), dtype=np.int64)
        pos += np.repeat(starts - ends + counts, counts)
        heads = indices[pos]
        heads = heads[~seen[heads]]
        # Keep one copy of each head: the copy whose index its stamp kept.
        at = np.arange(len(heads), dtype=np.int64)
        stamp[heads] = at
        frontier = heads[stamp[heads] == at]
        seen[frontier] = True
    return seen, frontier


def sweep_csr(indptr, indices, sources):
    """The nodes a numpy CSR reaches from ``sources``, as a bool array.

    ``_sweep``, and when its frontiers stayed thin, ``_dfs`` goes on from its
    last frontier over the swept mask, so a long path or ring costs about
    what the scan costs, not a round of numpy calls per node.
    """
    seen, frontier = _sweep(indptr, indices, sources)
    if not len(frontier):
        return seen
    visited = bytearray(seen.tobytes())
    _dfs(indptr.tolist(), indices.tolist(), frontier.tolist(), visited)
    return np.frombuffer(visited, dtype=bool)


def reach_csr(indptr, indices, start):
    """``_dfs`` from ``start`` on a numpy CSR: (visited uint8, parent CSR arc
    position int64)."""
    visited, parent_arc = _dfs(indptr.tolist(), indices.tolist(), (start,))
    return np.frombuffer(visited, np.uint8), np.array(parent_arc, np.int64)


def bfs01(indptr, indices, cost, sources, targets=()):
    """0/1-weighted BFS: entering node ``w`` costs ``cost[w]``, 0 or 1.

    A node whose distance improves goes to the front of the deque when it
    costs 0 to enter and to the back when it costs 1.  Returns (dist, parent
    CSR arc position), both int64; unreached nodes keep a distance of 2**62.
    The CSR and ``cost`` are read in place through memoryviews (any integer
    dtype for the CSR, bool or any integer dtype for ``cost``), and ``dist``
    and ``parent`` are ``array('q')`` buffers returned as numpy views, so a
    search that settles few nodes copies nothing of the graph.

    With ``targets``, the bound is the smallest distance any target has been
    given so far, a target source giving 0, and the search breaks at the
    first popped node whose distance is at least the bound.  Precondition,
    checked (``ValueError``): every target costs 1 to enter, so a target gets
    its distance over a 1-arc.  The deque pops nodes in nondecreasing
    distance and a parent changes only on a strict improvement, so when the
    first node at the nearest target's distance D pops, every node nearer
    than D holds the distance and parent the full search gives it, and so
    does every target at D, since its in-arcs come from nodes nearer than D.
    Every other node holds D or 2**62.  ``targets[argmin(dist[targets])]``
    and its parent chain are thus the full search's, ties included.  Without
    targets the bound never drops and the search runs until the deque is
    empty.
    """
    ip = memoryview(indptr)
    ix = memoryview(indices)
    cost = memoryview(cost)
    n = len(ip) - 1
    dist = array("q", (_UNREACHED,)) * n
    parent_arc = array("q", (-1,)) * n
    goal = set(np.asarray(targets).tolist())
    if not all(cost[t] for t in goal):
        raise ValueError("every target must cost 1 to enter")
    bound = _UNREACHED
    queue = deque()
    for s in sources.tolist():
        dist[s] = 0
        queue.append(s)
        if s in goal:
            bound = 0
    popleft = queue.popleft
    while queue:
        v = popleft()
        dv = dist[v]
        if dv >= bound:
            break
        e = ip[v]
        end = ip[v + 1]
        while e < end:
            w = ix[e]
            if cost[w]:
                if dv + 1 < dist[w]:
                    dist[w] = dv + 1
                    parent_arc[w] = e
                    queue.append(w)
                    if w in goal:
                        bound = dv + 1
            elif dv < dist[w]:
                dist[w] = dv
                parent_arc[w] = e
                queue.appendleft(w)
            e += 1
    return np.frombuffer(dist, np.int64), np.frombuffer(parent_arc, np.int64)


# ---------------------------------------------------------------------------
# Matching kernels
# ---------------------------------------------------------------------------


def kuhn_bipartite(num_left, num_right, edges):
    """Maximum bipartite matching by depth-first augmentation.

    ``edges`` lists (left, right) pairs.  Each left vertex, in index order,
    searches for an augmenting path that tries its rights in edge order and
    visits each right at most once.  The path lives on explicit stacks, so
    its length is not bounded by the recursion limit.  Returns (mate_left,
    mate_right) lists with -1 for unmatched.
    """
    ip, ix = _list_csr(num_left, edges)
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
    return mate_l, mate_r


def swappable_edges(num_left, num_right, edges, mate_l):
    """Per edge, True when some maximum matching contains it and some does not.

    ``mate_l`` is a maximum matching of the bipartite graph ``edges``.  Orient
    matched edges left to right and the others right to left, over nodes
    0..L-1 (lefts) then L..L+R-1 (rights).  By the Dulmage-Mendelsohn
    decomposition an edge is swappable iff it lies on an alternating cycle
    (its ends share a strong component) or on an even alternating path from
    a free vertex (its left end is reached against the orientation from a
    free left, or its right end along it from a free right).  The other
    edges are in every maximum matching when matched and in none when not.
    """
    n = num_left + num_right
    arcs = [
        (l, num_left + r) if mate_l[l] == r else (num_left + r, l) for l, r in edges
    ]
    ip, ix = _list_csr(n, arcs)
    comp = _tarjan(ip, ix)
    free_left = [l for l in range(num_left) if mate_l[l] == -1]
    matched = set(mate_l)
    free_right = [num_left + r for r in range(num_right) if r not in matched]
    from_left = (
        _dfs(*_list_csr(n, [(h, t) for t, h in arcs]), free_left)[0]
        if free_left
        else bytes(n)
    )
    from_right = _dfs(ip, ix, free_right)[0]
    swap = []
    for l, r in edges:
        r += num_left
        swap.append(comp[l] == comp[r] or from_left[l] == 1 or from_right[r] == 1)
    return swap


def bipartite_forbidden(num_left, num_right, edges):
    """Matching plus per-edge viability for square instances.

    Returns (size, mate_l, mate_r, forbidden) where forbidden[i] is True when
    edge i lies in no perfect matching: it is unmatched and not swappable
    (see ``swappable_edges``).  The flags are only computed when size ==
    num_left == num_right (a perfect matching) and are all False otherwise.
    """
    mate_l, mate_r = kuhn_bipartite(num_left, num_right, edges)
    size = num_left - mate_l.count(-1)
    if size != num_left or num_left != num_right:
        return size, mate_l, mate_r, [False] * len(edges)
    swap = swappable_edges(num_left, num_right, edges, mate_l)
    forbidden = [not s and mate_l[l] != r for (l, r), s in zip(edges, swap)]
    return size, mate_l, mate_r, forbidden


def neighbour_lists(n, edges):
    """Each vertex's neighbours over the undirected ``edges``, in edge order."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def greedy_mate(adj):
    """The mate list of the greedy matching ``blossom_matching`` starts from:
    each vertex still exposed at its turn, in index order, takes its first
    exposed neighbour."""
    mate = [-1] * len(adj)
    for v, near in enumerate(adj):
        if mate[v] != -1:
            continue
        for u in near:
            if u != v and mate[u] == -1:
                mate[v] = u
                mate[u] = v
                break
    return mate


def blossom_matching(n, edges, require_perfect, start=None, adj=None):
    """Maximum matching in a general graph (Edmonds' blossom contraction).

    ``edges`` lists undirected (u, v) pairs, and each vertex scans its
    neighbours in edge order (``neighbour_lists``).  Unless a ``start``
    matching is given (a mate list, -1 for an exposed vertex; it is copied,
    not changed), a greedy pass first matches each exposed vertex, in index
    order, to its first exposed neighbour (``greedy_mate``).  Then every
    vertex still exposed, in index order, roots one breadth-first search for
    an augmenting path.  Returns (mate list, perfect).  With
    ``require_perfect`` set, the search stops as soon as some exposed vertex
    admits no augmenting path: such a vertex stays exposed in some maximum
    matching, so no perfect matching exists.  A start that leaves two
    vertices exposed is thus decided by one search (Berge; Edmonds 1965).

    A start is checked against the edges.  A caller that keeps the
    neighbour lists of its graph passes them as ``adj`` instead of
    ``edges``, which is then not read; it vouches for the lists and for any
    start, and neither is built or checked.  ``simple_paths`` keeps those of
    a prepared graph's port graph and derives each instance's from them.

    The searches share one parent, base, queued and member list, and each
    records the nodes it labels; only those are reset for the next root.
    A blossom base keeps the nodes of its blossom.  Contracting a blossom
    relabels only the members of the bases it joins, and queues those not
    yet queued in index order, as a scan over all n nodes would.  Its lca is
    found by walking up from both sides in turn, so the walks stop within
    twice the blossom's reach.  So a search costs what it touches, not n
    per root and per blossom.
    """
    checked = adj is None
    if checked:
        adj = neighbour_lists(n, edges)
    if start is None:
        return _augmented(adj, greedy_mate(adj), require_perfect)
    mate = list(start)
    if checked:
        if len(mate) != n:
            raise ValueError("the start is not a matching of the graph")
        for v, u in enumerate(mate):
            if u != -1 and not (0 <= u < n and u != v and mate[u] == v and u in adj[v]):
                raise ValueError("the start is not a matching of the graph")
    return _augmented(adj, mate, require_perfect)


def _augmented(adj, mate, require_perfect):
    """The search of ``blossom_matching`` over the neighbour lists ``adj``,
    from the matching ``mate``, which it augments in place."""
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    members = [None] * n  # the nodes of each blossom, at its base
    mark = [0] * n  # the lca walks mark a base with their stamp
    stamp = 0
    perfect = True
    root = -1
    while True:
        try:
            root = mate.index(-1, root + 1)
        except ValueError:
            return mate, perfect
        used[root] = True
        queue = [root]
        touched = [root]
        qh = 0
        finish = -1
        while qh < len(queue) and finish == -1:
            v = queue[qh]
            qh += 1
            bv = base[v]
            mv = mate[v]
            for to in adj[v]:
                if bv == base[to] or to == mv:
                    continue
                mt = mate[to]
                if to == root or (mt != -1 and p[mt] != -1):
                    # Odd cycle: contract the blossom around the tree lca.
                    # Both sides walk up in turn, marking the bases they
                    # pass; the first base a walk finds marked is the lca.
                    stamp += 1
                    a, b = bv, base[to]
                    while True:
                        if a != -1:
                            if mark[a] == stamp:
                                break
                            mark[a] = stamp
                            a = base[p[mate[a]]] if mate[a] != -1 else -1
                        a, b = b, a
                    lca = a
                    in_blossom = set()
                    for x, child in ((v, to), (to, v)):
                        while base[x] != lca:
                            in_blossom.add(base[x])
                            in_blossom.add(base[mate[x]])
                            p[x] = child
                            child = mate[x]
                            x = p[child]
                    merged = members[lca] or [lca]
                    joined = []
                    for b in in_blossom:
                        if b == lca:
                            continue  # its nodes are labeled and queued
                        inner = members[b] or [b]
                        merged += inner
                        for i in inner:
                            base[i] = lca
                            if not used[i]:
                                used[i] = True
                                joined.append(i)
                    members[lca] = merged
                    joined.sort()
                    queue += joined
                    bv = lca
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if mt == -1:
                        finish = to
                        break
                    if not used[mt]:
                        used[mt] = True
                        queue.append(mt)
                        touched.append(mt)
        if finish == -1:
            if require_perfect:
                return mate, False
            perfect = False
        else:
            v = finish
            while v != -1:
                pv = p[v]
                nxt = mate[pv]
                mate[v] = pv
                mate[pv] = v
                v = nxt
        for i in touched:
            p[i] = -1
            base[i] = i
            used[i] = False
            members[i] = None

# ---------------------------------------------------------------------------
# Sudoku kernels
# ---------------------------------------------------------------------------
#
# Plain CPython, not jitted: the grid is a list of ints and the digits used in
# each group are Python-int bitmasks, indexed by the board's group ids (rows
# 0..n-1, columns n..2n-1, boxes 2n..3n-1).  The cell-to-group tables come
# from ``sudoku.board.geometry`` and are built once per box size.
#
# Two searches share these masks.  ``count_and_first`` never propagates and
# pins its branching order, because the first solution it finds is an
# output (``solved_grid``).  The propagating search (``_completions``) closes
# each node under singles with ``_propagate_from``, which reads only the
# surroundings of the new placements, and branches on a minimum-candidate
# cell; a count saturated at its cap is the same for every order, so
# ``count_completions`` serves solution counting and ``has_other_completion``
# the generator.  The generator proves uniqueness by refutation: it knows
# one solution S, so it only asks whether any other digit of an emptied cell
# extends to a solution, and it keeps its phase-1 masks between clue pairs.


def _sudoku_geometry(box):
    if box > 7:
        raise ValueError("the Sudoku kernels support box sizes up to 7")
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


_CROSS_GROUPS = {}


def _cross_groups(geo):
    """Per cell x: (h, peers of x in h) for every group h that holds a peer
    of x but not x itself; placing digit d in x takes d from those peers."""
    cross = _CROSS_GROUPS.get(geo.box)
    if cross is None:
        cross = []
        for x in range(geo.size):
            own = geo.groups_of_cell[x]
            by_group = {}
            for p in geo.peers[x]:
                for h in geo.groups_of_cell[p]:
                    if h not in own:
                        by_group.setdefault(h, []).append(p)
            cross.append(tuple((h, tuple(ps)) for h, ps in sorted(by_group.items())))
        cross = _CROSS_GROUPS[geo.box] = tuple(cross)
    return cross


def _propagate_from(geo, work, used, new_cells):
    """Singles closure after placing ``new_cells`` on a singles fixpoint.

    ``work`` and ``used`` already hold the new cells' digits, and before
    they were placed the grid was a fixpoint of ``_fill_singles`` without
    contradiction.  Only the placements' surroundings are read: the naked
    singles among the empty peers of each placed cell, the hidden singles of
    all digits in its own groups (it was a home of its other candidates),
    and, in every other group through its peers, the hidden single of its
    digit.  Each single found is placed and looked at the same way.  Singles
    form a monotone closure, so the fixpoint and a -1 status are those of
    ``_fill_singles`` on the whole grid; the return value is its status.
    """
    full = (1 << geo.n) - 1
    groups = geo.groups_of_cell
    group_cells = geo.group_cells
    peers = geo.peers
    cross = _cross_groups(geo)
    queue = list(new_cells)
    while queue:
        x = queue.pop()
        bit = 1 << (work[x] - 1)
        for p in peers[x]:
            if not work[p]:
                g0, g1, g2 = groups[p]
                mask = full & ~(used[g0] | used[g1] | used[g2])
                if not mask:
                    return -1
                if not mask & (mask - 1):
                    work[p] = mask.bit_length()
                    used[g0] |= mask
                    used[g1] |= mask
                    used[g2] |= mask
                    queue.append(p)
        for h, near in cross[x]:
            if used[h] & bit:
                continue
            for p in near:
                if not work[p]:
                    break
            else:
                continue  # no cell of h lost a candidate to x
            home = -1
            for i in group_cells[h]:
                if not work[i]:
                    g0, g1, g2 = groups[i]
                    if not (used[g0] | used[g1] | used[g2]) & bit:
                        if home >= 0:
                            break
                        home = i
            else:
                if home < 0:
                    return -1
                work[home] = bit.bit_length()
                g0, g1, g2 = groups[home]
                used[g0] |= bit
                used[g1] |= bit
                used[g2] |= bit
                queue.append(home)
        for g in groups[x]:
            once = twice = 0
            for i in group_cells[g]:
                if not work[i]:
                    g0, g1, g2 = groups[i]
                    free = full & ~(used[g0] | used[g1] | used[g2])
                    twice |= once & free
                    once |= free
            todo = full & ~used[g]
            if todo & ~once:
                return -1
            single = todo & ~twice
            if single:
                # One single per look: the placed cell shares group g, so g
                # is folded again when that cell is taken from the queue.
                bit_g = single & -single
                for i in group_cells[g]:
                    if not work[i]:
                        g0, g1, g2 = groups[i]
                        if not (used[g0] | used[g1] | used[g2]) & bit_g:
                            break
                work[i] = bit_g.bit_length()
                used[g0] |= bit_g
                used[g1] |= bit_g
                used[g2] |= bit_g
                queue.append(i)
    return 0 if 0 in work else 1


def _completions(geo, work, used, cap):
    """Completions of a contradiction-free singles fixpoint, saturating at
    ``cap``.  Each node branches on a minimum-candidate cell and closes every
    child under singles with ``_propagate_from``; ``work`` and ``used`` are
    consumed.  A count below ``cap`` is exact and one at ``cap`` means at
    least ``cap``, so the result does not depend on the branching order."""
    if 0 not in work:
        return 1
    full = (1 << geo.n) - 1
    groups = geo.groups_of_cell
    size = geo.size
    count = 0
    # One frame per open node: [grid, masks, branching cell, digits to try].
    stack = []
    while True:
        best_count = geo.n + 1
        for i in range(size):
            if not work[i]:
                g0, g1, g2 = groups[i]
                mask = full & ~(used[g0] | used[g1] | used[g2])
                cnt = mask.bit_count()
                if cnt < best_count:
                    best = i
                    best_mask = mask
                    best_count = cnt
                    if cnt == 2:  # a fixpoint has no cell with fewer
                        break
        stack.append([work, used, best, best_mask])
        while stack:
            frame = stack[-1]
            work, used, cell, rest = frame
            if not rest:
                stack.pop()
                continue
            bit = rest & -rest
            rest ^= bit
            if rest:
                frame[3] = rest
                work = work[:]
                used = used[:]
            else:
                stack.pop()  # the last child takes over the node's grid
            work[cell] = bit.bit_length()
            g0, g1, g2 = groups[cell]
            used[g0] |= bit
            used[g1] |= bit
            used[g2] |= bit
            status = _propagate_from(geo, work, used, (cell,))
            if status == 1:
                count += 1
                if count >= cap:
                    return count
            elif status == 0:
                break
        else:
            return count


def count_completions(box, values, cap):
    """Completions of ``values`` (0 = empty), saturating at ``cap``.

    Closes the givens under singles, then searches with ``_completions``.
    Unlike ``count_and_first`` it pins no branching order and returns no
    solution, so it is free to propagate at every node.
    """
    geo = _sudoku_geometry(box)
    work = _grid_list(values)
    used = _group_masks(geo, work)
    if used is None:
        return 0
    status = _fill_singles(geo, work, used)
    if status == -1:
        return 0
    return _completions(geo, work, used, cap)


def has_other_completion(box, values, solution, cells):
    """Whether ``values`` has a completion that differs from ``solution`` in
    one of ``cells``.

    ``solution`` must complete ``values``.  Refutes cell by cell: for each
    cell, each digit other than the solution's that the cell admits is
    placed and searched for one completion; when none exists, the cell is
    fixed to the solution's digit before the next cell is tried.
    """
    geo = _sudoku_geometry(box)
    groups = geo.groups_of_cell
    full = (1 << geo.n) - 1
    work = _grid_list(values)
    used = _group_masks(geo, work)
    if _fill_singles(geo, work, used) == 1:
        return False
    for cell in cells:
        if work[cell]:
            continue  # forced by singles, so equal to the solution's digit
        g0, g1, g2 = groups[cell]
        keep = 1 << (solution[cell] - 1)
        others = full & ~(used[g0] | used[g1] | used[g2]) & ~keep
        while others:
            bit = others & -others
            others ^= bit
            trial_work = work[:]
            trial_used = used[:]
            trial_work[cell] = bit.bit_length()
            trial_used[g0] |= bit
            trial_used[g1] |= bit
            trial_used[g2] |= bit
            status = _propagate_from(geo, trial_work, trial_used, (cell,))
            if status == 1 or (
                status == 0 and _completions(geo, trial_work, trial_used, 1)
            ):
                return True
        work[cell] = solution[cell]
        used[g0] |= keep
        used[g1] |= keep
        used[g2] |= keep
        if _propagate_from(geo, work, used, (cell,)) == 1:
            return False
    return False
