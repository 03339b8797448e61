"""Cross-checks of the kernels against independent references (networkx
strong components, Dijkstra, brute force) and against the numpy-scalar
versions they replaced."""

from __future__ import annotations

from pathlib import Path
from random import Random

import networkx as nx
import pytest
import numpy as np

import nonrep._kernels as K
import oracles
from oracles import brute_general_max
from nonrep.sudoku.board import Board, parse_board
from nonrep.sudoku.generate import solved_grid


def _random_csr(rng: Random, n_max=30, m_max=80):
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    tails = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
    heads = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
    indptr, indices = K.build_csr(n, tails, heads)
    return n, tails, heads, indptr, indices


def test_build_csr_rows_keep_input_order():
    """``build_csr`` returns (indptr, indices) only, and row t lists the
    heads of the arcs with tail t in input order (the sort is stable)."""
    rng = Random(3)
    for _ in range(50):
        n, tails, heads, indptr, indices = _random_csr(rng)
        assert len(K.build_csr(n, tails, heads)) == 2
        assert indptr[0] == 0 and indptr[-1] == len(indices) == len(heads)
        for t in range(n):
            want = [h for tail, h in zip(tails.tolist(), heads.tolist()) if tail == t]
            assert indices[indptr[t] : indptr[t + 1]].tolist() == want


def test_scc_matches_networkx():
    rng = Random(11)
    for _ in range(120):
        n, tails, heads, indptr, indices = _random_csr(rng)
        comp = K.scc_csr(indptr, indices)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(tails.tolist(), heads.tolist()))
        for scc in nx.strongly_connected_components(g):
            ids = {int(comp[v]) for v in scc}
            assert len(ids) == 1
        seen = {}
        for v in range(n):
            seen.setdefault(int(comp[v]), set()).add(v)
        assert len(seen) == sum(1 for _ in nx.strongly_connected_components(g))


def test_scc_ids_reverse_topological():
    rng = Random(12)
    for _ in range(80):
        n, tails, heads, indptr, indices = _random_csr(rng)
        comp = K.scc_csr(indptr, indices)
        # arcs must never point from a lower component id to a higher one
        for t, h in zip(tails.tolist(), heads.tolist()):
            assert comp[t] >= comp[h]


def test_reach_matches_networkx():
    rng = Random(21)
    for _ in range(80):
        n, tails, heads, indptr, indices = _random_csr(rng)
        start = rng.randrange(n)
        visited, parent = K.reach_csr(indptr, indices, start)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(tails.tolist(), heads.tolist()))
        want = nx.descendants(g, start) | {start}
        assert {v for v in range(n) if visited[v]} == want


def test_bfs01_matches_dijkstra():
    rng = Random(31)
    for _ in range(80):
        n, tails, heads, indptr, indices = _random_csr(rng)
        if len(tails) == 0:
            continue
        # Entering node v costs cost[v]: an arc weighs the cost of its head.
        cost = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.uint8)
        sources = np.array(
            sorted({rng.randrange(n) for _ in range(rng.randint(1, 3))}),
            dtype=np.int64,
        )
        dist, parent = K.bfs01(indptr, indices, cost, sources)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for i in range(len(tails)):
            u, v, w = int(tails[i]), int(heads[i]), int(cost[heads[i]])
            if g.has_edge(u, v):
                w = min(w, g[u][v]["weight"])
            g.add_edge(u, v, weight=w)
        lengths = {}
        for s in sources.tolist():
            for node, d in nx.single_source_dijkstra_path_length(
                g, s, weight="weight"
            ).items():
                lengths[node] = min(lengths.get(node, 1 << 60), d)
        for v in range(n):
            want = lengths.get(v)
            if want is None:
                assert dist[v] >= K._UNREACHED
            else:
                assert dist[v] == want


def test_kuhn_and_forbidden_against_reference():
    from nonrep.matching import BipartiteInstance, classify_edges, FORBIDDEN, max_bipartite_matching

    rng = Random(41)
    for _ in range(150):
        n = rng.randint(1, 6)
        pool = [(l, r) for l in range(n) for r in range(n)]
        rng.shuffle(pool)
        edges = sorted(pool[: rng.randint(1, len(pool))])
        size, mate_l, mate_r, forbidden = K.bipartite_forbidden(n, n, edges)
        inst = BipartiteInstance(n, n, tuple(edges))
        cls = classify_edges(inst)
        assert size == len(max_bipartite_matching(inst))
        if cls.perfect:
            got = {edge for edge, bad in zip(edges, forbidden) if bad}
            want = {edges[i] for i in cls.of_kind(FORBIDDEN)}
            assert got == want


def test_blossom_against_brute_force():
    rng = Random(51)
    for _ in range(150):
        n = rng.randint(1, 11)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges = sorted(pool[: rng.randint(0, min(len(pool), 16))])
        mate, perfect = K.blossom_matching(n, edges, 0)
        size = sum(1 for v in range(n) if mate[v] >= 0) // 2
        assert size == brute_general_max(n, edges)
        assert bool(perfect) == (size * 2 == n)
        for v in range(n):
            if mate[v] >= 0:
                assert mate[mate[v]] == v
        # early-exit flavor agrees on perfection
        mate2, perfect2 = K.blossom_matching(n, edges, 1)
        assert bool(perfect2) == bool(perfect)


def test_blossom_from_a_start_matching():
    """Any start matching leads to the same verdict on perfection, and a
    perfect result is a perfect matching of the graph; a start that is not
    a matching of the graph is refused."""
    rng = Random(52)
    for _ in range(300):
        n = rng.randint(2, 11)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges = sorted(pool[: rng.randint(1, min(len(pool), 16))])
        greedy, _ = K.blossom_matching(n, edges, 0)
        start = list(greedy)
        for u in range(n):
            if start[u] > u and rng.random() < 0.5:
                start[start[u]] = start[u] = -1
        kept = list(start)
        mate, perfect = K.blossom_matching(n, edges, 1, start)
        assert start == kept
        assert perfect == (2 * brute_general_max(n, edges) == n)
        if perfect:
            assert all(mate[mate[v]] == v and tuple(sorted((v, mate[v]))) in edges for v in range(n))
    for bad in ([1, 0], [1, -1, -1], [2, -1, 0], [3, -1, -1], [-1, 1, -1]):
        with pytest.raises(ValueError, match="not a matching"):
            K.blossom_matching(3, [(0, 1), (1, 2)], 1, bad)


def _brute_count_solutions(box: int, values: list[int], cap: int) -> int:
    n = box * box
    size = n * n
    grid = list(values)

    for i in range(size):
        for j in range(i + 1, size):
            if grid[i] and grid[i] == grid[j]:
                ri, ci = divmod(i, n)
                rj, cj = divmod(j, n)
                if ri == rj or ci == cj or (
                    ri // box == rj // box and ci // box == cj // box
                ):
                    return 0

    def ok(cell, d):
        r, c = divmod(cell, n)
        for i in range(size):
            if grid[i] == 0 or i == cell:
                continue
            ri, ci = divmod(i, n)
            if (ri == r or ci == c or (ri // box == r // box and ci // box == c // box)) and grid[i] == d:
                return False
        return True

    count = 0

    def fill(cell):
        nonlocal count
        if count >= cap:
            return
        while cell < size and grid[cell] != 0:
            cell += 1
        if cell == size:
            count += 1
            return
        for d in range(1, n + 1):
            if ok(cell, d):
                grid[cell] = d
                fill(cell + 1)
                grid[cell] = 0
                if count >= cap:
                    return

    fill(0)
    return count


def test_count_solutions_empty_2x2_board():
    values = np.zeros(16, dtype=np.int64)
    count, first = K.count_and_first(2, values, 1000)
    assert count == 288  # full enumeration of 4x4 grids
    assert _brute_count_solutions(2, [0] * 16, 1000) == 288
    assert K.count_and_first(2, values, 2)[0] == 2


def test_count_solutions_random_boards_match_brute_force():
    rng = Random(61)
    for _ in range(60):
        values = [0] * 16
        for cell in rng.sample(range(16), rng.randint(0, 8)):
            values[cell] = rng.randint(1, 4)
        arr = np.array(values, dtype=np.int64)
        want = _brute_count_solutions(2, values, 50)
        got, first = K.count_and_first(2, arr, 50)
        assert got == want
        if want:
            sol = [int(x) for x in first]
            assert _brute_count_solutions(2, sol, 2) == 1
            assert all(a == b for a, b in zip(values, sol) if a)


def test_count_detects_conflicting_givens():
    values = np.zeros(16, dtype=np.int64)
    values[0] = 1
    values[1] = 1
    assert K.count_and_first(2, values, 10)[0] == 0


def test_propagate_singles_solves_forced_grid():
    # a full grid minus several cells is regained by singles
    full, _ = K.count_and_first(2, np.zeros(16, dtype=np.int64), 1)
    grid = K.count_and_first(2, np.zeros(16, dtype=np.int64), 1)[1]
    values = grid.copy()
    values[[0, 5, 10, 15]] = 0
    status = K.propagate_singles(2, values)
    assert status == 1
    assert (values == grid).all()


def test_propagate_singles_detects_contradictions():
    values = np.zeros(16, dtype=np.int64)
    values[0] = 1
    values[1] = 1
    assert K.propagate_singles(2, values) == -1
    # digit with no remaining home in a row
    values = np.array(
        [0, 0, 3, 4, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0], dtype=np.int64
    )
    # column 0 holds 1 and 2; row 0 cells c0/c1 exclude 3,4; make 1 impossible in row 0
    values2 = np.array(
        [0, 0, 3, 4, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1], dtype=np.int64
    )
    assert K.propagate_singles(2, values2) == -1


def test_graph_kernels_equal_numpy_reference():
    """The list-based traversal kernels return the arrays, dtypes included,
    of the numpy-scalar versions they replaced."""
    rng = Random(91)
    for trial in range(400):
        n, tails, heads, indptr, indices = _random_csr(
            rng, n_max=60 if trial % 4 else 8, m_max=160 if trial % 3 else 12
        )
        got = K.scc_csr(indptr, indices)
        want = oracles.scc_csr(indptr, indices)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        for start in rng.sample(range(n), min(n, 3)):
            for got, want in zip(
                K.reach_csr(indptr, indices, start),
                oracles.reach_csr(indptr, indices, start),
            ):
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
        cost = np.array([rng.randint(0, 1) for _ in range(n)], np.uint8)
        sources = np.array(
            sorted({rng.randrange(n) for _ in range(rng.randint(1, 3))}), np.int64
        )
        for got, want in zip(
            K.bfs01(indptr, indices, cost, sources),
            oracles.bfs01(indptr, indices, cost[indices], sources),
        ):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def _bfs01_instance(rng: Random):
    """A random CSR with random 0/1 node costs, 1-3 sources and 1-3 targets,
    every target costing 1 to enter."""
    n, _, _, indptr, indices = _random_csr(rng)
    cost = np.array([rng.randint(0, 1) for _ in range(n)], np.uint8)
    sources = np.array(sorted({rng.randrange(n) for _ in range(rng.randint(1, 3))}), np.int64)
    targets = np.array(sorted(rng.sample(range(n), min(n, rng.randint(1, 3)))), np.int64)
    cost[targets] = 1
    return indptr, indices, cost, sources, targets


def test_bfs01_reads_narrow_dtypes_in_place():
    """``bfs01`` over an int32 CSR, int32 sources and targets and bool or
    uint8 node costs returns the int64 (dist, parent) of the int64 run, with
    and without targets."""
    rng = Random(1919)
    for _ in range(200):
        indptr, indices, uint8_cost, sources, targets = _bfs01_instance(rng)
        for goal in (np.empty(0, np.int64), targets):
            want = K.bfs01(indptr, indices, uint8_cost, sources, goal)
            for cost in (uint8_cost, uint8_cost.astype(bool)):
                got = K.bfs01(
                    indptr.astype(np.int32), indices.astype(np.int32), cost,
                    sources.astype(np.int32), goal.astype(np.int32),
                )
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype == np.int64 and g.tolist() == w.tolist()


def test_bfs01_with_node_costs_equals_the_arc_cost_reference():
    """``bfs01`` with node costs is the arc-cost reference search run with
    every arc weighing the cost of its head, ``cost[indices]``: equal arrays
    without targets; with targets, the reference's distance and parent on
    every node nearer than the nearest target's distance D and on every
    target at D, D or unreached elsewhere, and the same nearest target."""
    rng = Random(2222)
    stopped = 0
    for _ in range(300):
        indptr, indices, cost, sources, targets = _bfs01_instance(rng)
        full = oracles.bfs01(indptr, indices, cost[indices], sources)
        for got, want in zip(K.bfs01(indptr, indices, cost, sources), full):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        dist, parent = K.bfs01(indptr, indices, cost, sources, targets)
        d = int(full[0][targets].min())
        final = full[0] < d
        final[targets[full[0][targets] == d]] = True
        assert dist[final].tolist() == full[0][final].tolist()
        assert parent[final].tolist() == full[1][final].tolist()
        assert np.isin(dist[~final], (d, K._UNREACHED)).all()
        assert targets[np.argmin(dist[targets])] == targets[np.argmin(full[0][targets])]
        stopped += int((dist < K._UNREACHED).sum()) < int((full[0] < K._UNREACHED).sum())
    assert stopped >= 50, stopped


def test_bfs01_refuses_a_target_that_costs_0_to_enter():
    """The stop rule holds only when every target costs 1 to enter, and
    ``bfs01`` checks that before it searches."""
    indptr, indices = K.build_csr(3, np.array([0, 1]), np.array([1, 2]))
    cost = np.array([0, 1, 0], np.uint8)
    sources = np.array([0], np.int64)
    dist, parent = K.bfs01(indptr, indices, cost, sources, np.array([1]))
    assert (dist[1], parent[1]) == (1, 0)
    for targets in (np.array([2]), np.array([1, 2]), np.array([0])):
        with pytest.raises(ValueError, match="cost 1"):
            K.bfs01(indptr, indices, cost, sources, targets)
    assert K.bfs01(indptr, indices, cost, sources)[0].tolist() == [0, 1, 1]


def test_matchers_equal_numpy_reference():
    """The list-based depth-first ``kuhn_bipartite`` finds the matching of the
    recursive Kuhn search, ``bipartite_forbidden`` gives the size and flags of
    its breadth-first numpy-scalar version, and ``blossom_matching`` the
    mates and perfect flag of its numpy-scalar version."""
    from nonrep.matching import BipartiteInstance

    rng = Random(91)
    perfect = 0
    for trial in range(360):
        nl = rng.randint(1, 8)
        nr = nl if trial % 3 else rng.randint(1, 8)
        pool = [(l, r) for l in range(nl) for r in range(nr)]
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, len(pool))]
        indptr, indices = K.build_csr(nl, [l for l, _ in edges], [r for _, r in edges])
        pos = oracles.arc_positions([l for l, _ in edges])
        mate_l, mate_r = K.kuhn_bipartite(nl, nr, edges)
        want_l, want_r = oracles._kuhn(BipartiteInstance(nl, nr, tuple(edges)))
        assert mate_l == want_l and mate_r == want_r
        size, _, _, forbidden = K.bipartite_forbidden(nl, nr, edges)
        want_size, _, _, want_forbidden = oracles.bipartite_forbidden(
            nl, nr, indptr, indices
        )
        assert size == want_size
        # The reference flags CSR positions; edge i sits at pos[i].
        want_forbidden = want_forbidden.tolist()
        assert forbidden == [want_forbidden[p] for p in pos.tolist()]
        perfect += size == nl == nr
    assert perfect > 100

    for _ in range(320):
        n = rng.randint(1, 14)
        edges, tails, heads = [], [], []
        for _ in range(rng.randint(0, 3 * n)):
            # Loops and parallel edges included.
            u, v = rng.randrange(n), rng.randrange(n)
            edges.append((u, v))
            tails += (u, v)
            heads += (v, u)
        indptr, indices = K.build_csr(n, tails, heads)
        for require_perfect in (0, 1):
            mate, got_perfect = K.blossom_matching(n, edges, require_perfect)
            want, want_perfect = oracles.blossom_matching(
                n, indptr, indices, require_perfect
            )
            assert mate == want.tolist()
            assert bool(got_perfect) == bool(want_perfect)


def _random_partial_board(rng: Random, box: int) -> list[int]:
    """A partial board: a relabelled solution with some cells shown, now and
    then a wrong digit among them, or (one board in three) random givens,
    which often clash."""
    n = box * box
    size = n * n
    if rng.random() < 1 / 3:
        values = [0] * size
        for cell in rng.sample(range(size), rng.randint(0, size // 3)):
            values[cell] = rng.randint(1, n)
        return values
    base = oracles.count_and_first(box, np.zeros(size, np.int64), 1)[1].tolist()
    relabel = list(range(1, n + 1))
    rng.shuffle(relabel)
    shown = rng.randint(size // 4 if box == 2 else 22, size)
    values = [0] * size
    for cell in rng.sample(range(size), shown):
        values[cell] = relabel[base[cell] - 1]
    if rng.random() < 0.3:
        values[rng.randrange(size)] = rng.randint(1, n)
    return values


def test_sudoku_kernels_equal_numpy_reference():
    rng = Random(81)
    for trial in range(320):
        box = 2 if trial % 2 else 3
        values = _random_partial_board(rng, box)
        given = list(values)
        for cap in (1, 2, 50):
            want_count, want_first = oracles.count_and_first(
                box, np.array(values, np.int64), cap
            )
            got_count, got_first = K.count_and_first(box, values, cap)
            assert got_count == want_count
            assert got_first.dtype == np.int64
            assert got_first.tolist() == want_first.tolist()
        assert values == given
        want = np.array(values, np.int64)
        want_status = oracles.propagate_singles(box, want)
        got = list(values)
        assert K.propagate_singles(box, got) == want_status
        assert got == want.tolist()
        as_array = np.array(values, np.int64)
        assert K.propagate_singles(box, as_array) == want_status
        assert (as_array == want).all()


def test_solved_grid_of_empty_board_unchanged():
    want = oracles.count_and_first(3, np.zeros(81, np.int64), 1)[1].tolist()
    assert solved_grid(Board(3)).values == want


def _hard_corpus() -> list[Board]:
    """The 160 locally stuck puzzles of the ``sudoku_hard_solve`` workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "hard_corpus.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    return [parse_board(line.split()[2]) for line in lines if not line.startswith("#")]


def test_propagating_counter_equals_pinned_counter_on_hard_corpus():
    boards = _hard_corpus()
    assert len(boards) == 160
    counts = set()
    for board in boards:
        # Each puzzle as given, and with its first and last clues emptied.
        clues = [c for c in range(81) if board.values[c]]
        loose = list(board.values)
        loose[clues[0]] = loose[clues[-1]] = 0
        for values in (board.values, loose):
            for cap in (1, 2, 50):
                want, _ = K.count_and_first(3, values, cap)
                assert K.count_completions(3, values, cap) == want
                counts.add(want)
    assert {1, 2, 50} <= counts


def test_propagating_counter_equals_pinned_counter_on_random_boards():
    rng = Random(2718)
    seen = set()
    clashes = 0
    for trial in range(400):
        box = 2 if trial % 2 else 3
        values = _random_partial_board(rng, box)
        given = list(values)
        clashes += K._group_masks(K._sudoku_geometry(box), values) is None
        for cap in (1, 2, 50):
            want, _ = K.count_and_first(box, values, cap)
            assert K.count_completions(box, values, cap) == want
            seen.add(want if want < cap else "cap")
        assert values == given
    assert clashes >= 40
    assert {0, 1, "cap"} <= seen and any(1 < c < 50 for c in seen if c != "cap")


def _random_fixpoint(rng: Random, box: int):
    """A singles fixpoint without contradiction grown from random legal givens,
    or None when the givens contradict or complete the grid."""
    geo = K._sudoku_geometry(box)
    work = [0] * geo.size
    used = [0] * (3 * geo.n)
    for cell in rng.sample(range(geo.size), rng.randint(0, geo.size // 3)):
        _place_random(rng, geo, work, used, cell)
    if K._fill_singles(geo, work, used) != 0:
        return None
    return geo, work, used


def _place_random(rng: Random, geo, work, used, cell) -> bool:
    g0, g1, g2 = geo.groups_of_cell[cell]
    free = (1 << geo.n) - 1 & ~(used[g0] | used[g1] | used[g2])
    if not free:
        return False
    bit = 1 << rng.choice([d for d in range(geo.n) if free >> d & 1])
    work[cell] = bit.bit_length()
    used[g0] |= bit
    used[g1] |= bit
    used[g2] |= bit
    return True


def test_incremental_singles_equal_whole_grid_sweeps():
    rng = Random(1618)
    statuses = []
    for trial in range(1500):
        start = _random_fixpoint(rng, 2 if trial % 3 == 0 else 3)
        if start is None:
            continue
        geo, work, used = start
        empty = [c for c in range(geo.size) if not work[c]]
        picked = rng.sample(empty, min(len(empty), rng.randint(1, 3)))
        new = [c for c in picked if _place_random(rng, geo, work, used, c)]
        if not new:
            continue
        want_work, want_used = work[:], used[:]
        want = K._fill_singles(geo, want_work, want_used)
        got = K._propagate_from(geo, work, used, new)
        assert got == want
        if want != -1:
            assert (work, used) == (want_work, want_used)
        statuses.append(want)
    assert min(statuses.count(s) for s in (-1, 0, 1)) >= 50


def test_refutation_equals_counting_each_alternative():
    rng = Random(3141)
    answers = []
    for trial in range(300):
        box = 2 if trial % 2 else 3
        n = box * box
        size = n * n
        base = oracles.count_and_first(box, np.zeros(size, np.int64), 1)[1].tolist()
        relabel = list(range(1, n + 1))
        rng.shuffle(relabel)
        solution = [relabel[d - 1] for d in base]
        shown = rng.sample(range(size), rng.randint(size // 4, size - 1))
        values = [0] * size
        for cell in shown:
            values[cell] = solution[cell]
        empty = [c for c in range(size) if not values[c]]
        cells = rng.sample(empty, min(len(empty), rng.randint(1, 3)))
        want = False
        for cell in cells:
            for d in range(1, n + 1):
                if d != solution[cell]:
                    alternative = values[:]
                    alternative[cell] = d
                    want = want or K.count_and_first(box, alternative, 1)[0] > 0
        assert K.has_other_completion(box, values, solution, cells) == want
        answers.append(want)
    assert 50 <= sum(answers) <= len(answers) - 50


# -- frontier sweeps ----------------------------------------------------------


def _csr(n, arcs):
    tails = np.array([t for t, _ in arcs], dtype=np.int64)
    heads = np.array([h for _, h in arcs], dtype=np.int64)
    indptr, indices = K.build_csr(n, tails, heads)
    return indptr, indices


def _ring_expansion(directed: bool, edges: int):
    """The label-switch expansion of a ring whose edge labels alternate a|b."""
    from nonrep import FlagLabeledGraph
    from nonrep.engine import LabelSwitchDigraph

    ring = [(f"v{i}", f"v{(i + 1) % edges}", "ab"[i % 2]) for i in range(edges)]
    expansion = LabelSwitchDigraph(FlagLabeledGraph(directed, ring))
    return expansion.indptr, expansion.indices


def _frontier_corpus():
    """(indptr, indices) of random CSRs, graphs without arcs, graphs with
    isolated nodes, DAGs, stars, a long path and both two-label rings."""
    rng = Random(606)
    for _ in range(60):
        n = rng.randint(1, 80)
        yield _csr(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))])
    for n in (1, 5, 50):
        yield _csr(n, [])
    for _ in range(10):
        n = rng.randint(10, 60)
        used = rng.sample(range(n), n // 3)
        yield _csr(n, [(rng.choice(used), rng.choice(used)) for _ in range(2 * len(used))])
    for _ in range(10):
        n = rng.randint(2, 60)
        label = rng.sample(range(n), n)
        arcs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 3 * n))]
        yield _csr(n, [(label[a], label[b]) for a, b in arcs])
    leaves = range(1, 40)
    yield _csr(40, [(0, v) for v in leaves])
    yield _csr(40, [(v, 0) for v in leaves])
    yield _csr(40, [arc for v in leaves for arc in ((0, v), (v, 0))])
    yield _csr(300, [(v, v + 1) for v in range(299)])
    yield _ring_expansion(False, 600)
    yield _ring_expansion(True, 600)


def _partition(comp) -> list[int]:
    """Each node's smallest fellow node: equal for equal partitions."""
    first: dict[int, int] = {}
    return [first.setdefault(c, v) for v, c in enumerate(np.asarray(comp).tolist())]


# The shipped constants, sweeps that never go thin, sweeps that hand over
# part way, and sweeps that hand over at once; with 0, 1 and 3 trim rounds.
FRONTIER_SETTINGS = [
    {},
    {"_THIN": 0, "_TRIM_ROUNDS": 0},
    {"_THIN": 4, "_THIN_ROUNDS": 2, "_TRIM_ROUNDS": 1},
    {"_THIN": 10**9, "_THIN_ROUNDS": 0},
]


@pytest.mark.parametrize("settings", FRONTIER_SETTINGS)
def test_frontier_kernels_equal_the_scans(monkeypatch, settings):
    """Above ``FRONTIER_MIN_NODES`` (lowered here to 1) ``scc_csr`` gives
    ``_tarjan``'s and networkx's partition, with ids 0 .. k-1, and
    ``sweep_csr`` gives ``_dfs``'s visited set."""
    monkeypatch.setattr(K, "FRONTIER_MIN_NODES", 1)
    for name, value in settings.items():
        monkeypatch.setattr(K, name, value)
    rng = Random(607)
    for indptr, indices in _frontier_corpus():
        n = len(indptr) - 1
        ip, ix = indptr.tolist(), indices.tolist()
        comp = K.scc_csr(indptr, indices)
        want = K._tarjan(ip, ix)
        assert comp.dtype == np.int64 and _partition(comp) == _partition(want)
        assert sorted(set(comp.tolist())) == list(range(max(want) + 1))
        if n <= 100:
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            g.add_edges_from(zip(np.repeat(np.arange(n), np.diff(indptr)).tolist(), ix))
            nx_comp = [0] * n
            for i, scc in enumerate(nx.strongly_connected_components(g)):
                for v in scc:
                    nx_comp[v] = i
            assert _partition(comp) == _partition(nx_comp)
        for sources in ([0], [n - 1], rng.sample(range(n), min(n, 3))):
            got = K.sweep_csr(indptr, indices, sources)
            visited, _ = K._dfs(ip, ix, sources)
            assert got.dtype == bool and got.tolist() == [bool(x) for x in visited]


def test_dfs_goes_on_over_a_visited_mask():
    """``_dfs`` from a frontier over a mask of nodes already visited marks
    what the frontier reaches through unvisited nodes, and only that."""
    indptr, indices = _csr(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3)])
    visited = bytearray([1, 1, 0, 0, 1, 0])
    _, parent = K._dfs(indptr.tolist(), indices.tolist(), [1], visited)
    assert list(visited) == [1, 1, 1, 1, 1, 0]
    assert parent == [-1, -1, 2, 3, -1, -1]  # CSR positions of (1, 2) and (2, 3)
