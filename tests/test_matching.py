from __future__ import annotations

from random import Random

import pytest

from nonrep.matching import (
    FORBIDDEN,
    MANDATORY,
    OPTIONAL,
    BipartiteInstance,
    classify_edges,
    max_bipartite_matching,
    max_general_matching,
)
import oracles
from oracles import brute_bipartite_max, brute_general_max, brute_perfect_matchings


def _complete(n):
    return BipartiteInstance(n, n, tuple((l, r) for l in range(n) for r in range(n)))


def test_complete_3x3_is_perfectly_matched():
    chosen = max_bipartite_matching(_complete(3))
    assert len(chosen) == 3


def test_star_matches_once():
    inst = BipartiteInstance(1, 3, ((0, 0), (0, 1), (0, 2)))
    assert len(max_bipartite_matching(inst)) == 1


def test_matching_is_deterministic_and_valid():
    inst = BipartiteInstance(3, 3, ((0, 1), (0, 0), (1, 1), (2, 1), (2, 2)))
    chosen = max_bipartite_matching(inst)
    assert chosen == max_bipartite_matching(inst)
    lefts = [inst.edges[i][0] for i in chosen]
    rights = [inst.edges[i][1] for i in chosen]
    assert len(set(lefts)) == len(lefts)
    assert len(set(rights)) == len(rights)


def test_instance_validation():
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, ((0, 2),))
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, ((0, 0), (0, 0)))


def test_random_sizes_match_brute_force():
    rng = Random(101)
    for _ in range(200):
        nl = rng.randint(1, 8)
        nr = rng.randint(1, 8)
        pool = [(l, r) for l in range(nl) for r in range(nr)]
        rng.shuffle(pool)
        edges = tuple(pool[: rng.randint(0, min(len(pool), 14))])
        inst = BipartiteInstance(nl, nr, edges)
        assert len(max_bipartite_matching(inst)) == brute_bipartite_max(nl, list(edges))


def test_classify_alternating_square_all_optional():
    cls = classify_edges(_complete(2))
    assert cls.perfect
    assert set(cls.labels) == {OPTIONAL}


def test_classify_triangular_unique_matching():
    inst = BipartiteInstance(
        3, 3, tuple((l, r) for l in range(3) for r in range(3) if r <= l)
    )
    cls = classify_edges(inst)
    assert cls.perfect
    for idx, (l, r) in enumerate(inst.edges):
        assert cls.labels[idx] == (MANDATORY if l == r else FORBIDDEN)


def test_classify_empty_instance_rejected():
    with pytest.raises(ValueError):
        classify_edges(BipartiteInstance(0, 0, ()))


def test_classify_matches_enumeration():
    rng = Random(55)
    checked_perfect = 0
    for _ in range(250):
        n = rng.randint(1, 5)
        pool = [(l, r) for l in range(n) for r in range(n)]
        rng.shuffle(pool)
        edges = tuple(sorted(pool[: rng.randint(1, len(pool))]))
        inst = BipartiteInstance(n, n, edges)
        perfect = brute_perfect_matchings(n, n, edges)
        cls = classify_edges(inst)
        assert cls.perfect == bool(perfect)
        if not perfect:
            continue
        checked_perfect += 1
        for idx, (l, r) in enumerate(edges):
            in_all = all(m[l] == r for m in perfect)
            in_none = all(m[l] != r for m in perfect)
            want = MANDATORY if in_all else FORBIDDEN if in_none else OPTIONAL
            assert cls.labels[idx] == want, (edges, idx)
    assert checked_perfect > 40


def test_classify_forbidden_edges_break_perfection():
    rng = Random(77)
    for _ in range(60):
        n = rng.randint(2, 5)
        pool = [(l, r) for l in range(n) for r in range(n)]
        rng.shuffle(pool)
        edges = tuple(sorted(pool[: rng.randint(n, len(pool))]))
        inst = BipartiteInstance(n, n, edges)
        cls = classify_edges(inst)
        if not cls.perfect:
            continue
        for idx in cls.of_kind(FORBIDDEN):
            l, r = edges[idx]
            rest = tuple(e for e in edges if e[0] != l and e[1] != r)
            assert len(max_bipartite_matching(BipartiteInstance(n, n, rest))) < n


def test_classify_flags_non_perfect_instances():
    inst = BipartiteInstance(2, 2, ((0, 0), (1, 0)))
    cls = classify_edges(inst)
    assert not cls.perfect
    # relative to maximum matchings both edges are usable
    assert set(cls.labels) == {OPTIONAL}


def test_general_matching_triangle_and_pentagon():
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert len(max_general_matching(3, triangle)) == 1
    pentagon = [(i, (i + 1) % 5) for i in range(5)]
    assert len(max_general_matching(5, pentagon)) == 2


def test_general_matching_rejects_out_of_range_vertices():
    for edges in ([(0, 3)], [(0, -1)], [(0, 1), (2, 7)]):
        with pytest.raises(ValueError, match="leaves vertices"):
            max_general_matching(3, edges)


def test_general_matching_random_matches_brute_force():
    rng = Random(4242)
    for _ in range(200):
        n = rng.randint(1, 12)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges = sorted(pool[: rng.randint(0, min(len(pool), 18))])
        chosen = max_general_matching(n, edges)
        used = [v for pair in chosen for v in pair]
        assert len(used) == len(set(used))
        assert all(tuple(sorted(pair)) in set(edges) for pair in chosen)
        assert len(chosen) == brute_general_max(n, edges)


def _chain(n, extra_left=False):
    """Left n-1 reaches only right 0, and left i (i < n-1) prefers right i
    over right i+1, so the last augmentation walks a path through all n
    lefts: deeper than the recursion limit for n = 3000.  ``extra_left``
    adds left n, which also reaches only right 0: its search walks the same
    path and fails, so no perfect matching exists."""
    edges = []
    for i in range(n - 1):
        edges += [(i, i), (i, i + 1)]
    edges.append((n - 1, 0))
    if extra_left:
        edges.append((n, 0))
    return BipartiteInstance(n + extra_left, n, tuple(edges))


def test_long_augmenting_path_needs_no_recursion():
    n = 3000
    inst = _chain(n)
    assert len(max_bipartite_matching(inst)) == n
    chosen = max_bipartite_matching(inst)
    # The only perfect matching: left i to right i+1, and left n-1 to right 0.
    want = {(i, i + 1) for i in range(n - 1)} | {(n - 1, 0)}
    assert {inst.edges[i] for i in chosen} == want
    cls = classify_edges(inst)
    assert cls.perfect
    for idx, edge in enumerate(inst.edges):
        assert cls.labels[idx] == (MANDATORY if edge in want else FORBIDDEN)

    inst = _chain(n, extra_left=True)
    assert len(max_bipartite_matching(inst)) == n
    chosen = max_bipartite_matching(inst)
    assert {inst.edges[i] for i in chosen} == want
    cls = classify_edges(inst)
    assert not cls.perfect
    # Every maximum matching leaves left n-1 or left n out and gives right 0
    # to the other one, so the lefts i < n-1 keep right i+1.
    for idx, edge in enumerate(inst.edges):
        if edge[1] == 0 and edge[0] >= n - 1:
            assert cls.labels[idx] == OPTIONAL
        else:
            assert cls.labels[idx] == (MANDATORY if edge in want else FORBIDDEN)


def test_matching_and_classification_equal_recursive_reference():
    """Same matching as the recursive Kuhn search, and the one-pass strong
    component labels equal the re-solving classification."""
    rng = Random(606)
    perfect = 0
    for trial in range(600):
        nl = rng.randint(1, 7)
        nr = nl if trial % 3 else rng.randint(1, 7)
        pool = [(l, r) for l in range(nl) for r in range(nr)]
        rng.shuffle(pool)
        inst = BipartiteInstance(nl, nr, tuple(pool[: rng.randint(0, len(pool))]))
        mate_l, _ = oracles._kuhn(inst)
        want = tuple(
            i for i, (l, r) in enumerate(inst.edges) if mate_l[l] == r
        )
        assert max_bipartite_matching(inst) == want
        assert len(max_bipartite_matching(inst)) == oracles.matching_size(inst)
        got = classify_edges(inst)
        assert got == oracles.classify_edges(inst)
        perfect += got.perfect
    assert perfect > 150
