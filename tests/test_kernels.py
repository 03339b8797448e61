"""Cross-checks of the kernels against independent references (networkx
strong components, Dijkstra, brute force) and against the numpy-scalar
versions they replaced."""

from __future__ import annotations

from random import Random

import networkx as nx
import numpy as np

import nonrep._kernels as K
import oracles
from oracles import brute_general_max
from nonrep.sudoku.board import Board
from nonrep.sudoku.generate import solved_grid


def _random_csr(rng: Random, n_max=30, m_max=80):
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    tails = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
    heads = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
    indptr, indices, _ = K.build_csr(n, tails, heads)
    return n, tails, heads, indptr, indices


def test_build_csr_positions_are_inverse():
    rng = Random(3)
    for _ in range(50):
        n, tails, heads, indptr, indices = _random_csr(rng)
        pos = K.build_csr(n, tails, heads)[2]
        for i in range(len(tails)):
            p = pos[i]
            assert indptr[tails[i]] <= p < indptr[tails[i] + 1]
            assert indices[p] == heads[i]


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
        unit = np.array([rng.randint(0, 1) for _ in range(len(tails))], dtype=np.uint8)
        # unit applies to CSR positions
        pos = K.build_csr(n, tails, heads)[2]
        unit_sorted = np.zeros_like(unit)
        unit_sorted[pos] = unit
        sources = np.array(
            sorted({rng.randrange(n) for _ in range(rng.randint(1, 3))}),
            dtype=np.int64,
        )
        dist, parent = K.bfs01(indptr, indices, unit_sorted, sources)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for i in range(len(tails)):
            u, v, w = int(tails[i]), int(heads[i]), int(unit[i])
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
    from nonrep.matching import BipartiteInstance, classify_edges, FORBIDDEN

    rng = Random(41)
    for _ in range(150):
        n = rng.randint(1, 6)
        pool = [(l, r) for l in range(n) for r in range(n)]
        rng.shuffle(pool)
        edges = sorted(pool[: rng.randint(1, len(pool))])
        indptr = np.zeros(n + 1, dtype=np.int64)
        flat = []
        for l in range(n):
            for ll, rr in edges:
                if ll == l:
                    flat.append(rr)
            indptr[l + 1] = len(flat)
        indices = np.array(flat, dtype=np.int64)
        size, mate_l, mate_r, forbidden = K.bipartite_forbidden(n, n, indptr, indices)
        inst = BipartiteInstance(n, n, tuple(edges))
        cls = classify_edges(inst)
        from nonrep.matching import matching_size

        assert size == matching_size(inst)
        if cls.perfect:
            got = set()
            k = 0
            for l in range(n):
                for p in range(indptr[l], indptr[l + 1]):
                    if forbidden[p]:
                        got.add((l, int(indices[p])))
            want = {edges[i] for i in cls.of_kind(FORBIDDEN)}
            assert got == want


def test_blossom_against_brute_force():
    rng = Random(51)
    for _ in range(150):
        n = rng.randint(1, 11)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges = sorted(pool[: rng.randint(0, min(len(pool), 16))])
        tails, heads = [], []
        for u, v in edges:
            tails.extend((u, v))
            heads.extend((v, u))
        indptr, indices, _ = K.build_csr(
            n, np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64)
        )
        mate, perfect = K.blossom_matching(n, indptr, indices, 0)
        size = sum(1 for v in range(n) if mate[v] >= 0) // 2
        assert size == brute_general_max(n, edges)
        assert bool(perfect) == (size * 2 == n)
        for v in range(n):
            if mate[v] >= 0:
                assert mate[mate[v]] == v
        # early-exit flavor agrees on perfection
        mate2, perfect2 = K.blossom_matching(n, indptr, indices, 1)
        assert bool(perfect2) == bool(perfect)


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
        unit = np.array([rng.randint(0, 1) for _ in range(len(indices))], np.uint8)
        sources = np.array(
            sorted({rng.randrange(n) for _ in range(rng.randint(1, 3))}), np.int64
        )
        for got, want in zip(
            K.bfs01(indptr, indices, unit, sources),
            oracles.bfs01(indptr, indices, unit, sources),
        ):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


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
        indptr, indices, _ = K.build_csr(
            nl, [l for l, _ in edges], [r for _, r in edges]
        )
        mate_l, mate_r = K.kuhn_bipartite(nl, nr, indptr, indices)
        want_l, want_r = oracles._kuhn(BipartiteInstance(nl, nr, tuple(edges)))
        assert mate_l.tolist() == want_l and mate_r.tolist() == want_r
        size, _, _, forbidden = K.bipartite_forbidden(nl, nr, indptr, indices)
        want_size, _, _, want_forbidden = oracles.bipartite_forbidden(
            nl, nr, indptr, indices
        )
        assert size == want_size
        assert forbidden.dtype == want_forbidden.dtype
        assert forbidden.tolist() == want_forbidden.tolist()
        perfect += size == nl == nr
    assert perfect > 100

    for _ in range(320):
        n = rng.randint(1, 14)
        tails, heads = [], []
        for _ in range(rng.randint(0, 3 * n)):
            # Loops and parallel arcs included.
            u, v = rng.randrange(n), rng.randrange(n)
            tails += (u, v)
            heads += (v, u)
        indptr, indices, _ = K.build_csr(n, tails, heads)
        for require_perfect in (0, 1):
            mate, got_perfect = K.blossom_matching(n, indptr, indices, require_perfect)
            want, want_perfect = oracles.blossom_matching(
                n, indptr, indices, require_perfect
            )
            assert mate.dtype == want.dtype and mate.tolist() == want.tolist()
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
