from __future__ import annotations

import importlib
import math
import os

import numpy as np
import pytest

import nonrep._kernels as K
import oracles
from nonrep.sudoku.board import Board, parse_board
from nonrep.sudoku.generate import (
    BatchStats,
    batch_stats,
    count_solutions,
    dense_bivalue_fixture,
    generate,
    grade,
    solved_grid,
)
from nonrep.sudoku.rules import build_bivalue_graphs, solve


def test_count_solutions_empty_small_board():
    board = Board(2)
    assert count_solutions(board, 2) == 2
    assert count_solutions(board, 500) == 288


def test_count_solutions_solved_board():
    solved = solved_grid(Board(3))
    assert solved.verify_solution()
    assert count_solutions(solved, 10) == 1


def test_count_solutions_dead_cell():
    # row 1 holds 1..8 and the 9 of that row is blocked by the last column
    values = [0] * 81
    for c in range(8):
        values[c] = c + 1
    values[2 * 9 + 8] = 9
    board = Board(3, values)
    assert board.first_empty_candidate_violation() == 8
    assert count_solutions(board, 10) == 0


def test_counting_refuses_boxes_above_7():
    board = Board(8)
    with pytest.raises(ValueError, match="up to 7"):
        count_solutions(board, 1)
    with pytest.raises(ValueError, match="up to 7"):
        solved_grid(board)
    values = np.zeros(8**4, np.int64)
    with pytest.raises(ValueError, match="up to 7"):
        K.propagate_singles(8, values)
    assert not values.any()


def test_generate_solution_is_the_puzzles_only_completion():
    for box in (2, 3):
        for seed in range(6):
            report = generate(box, seed)
            puzzle, solution = report.puzzle, report.solution
            assert solution.verify_solution()
            assert all(v in (0, w) for v, w in zip(puzzle.values, solution.values))
            assert count_solutions(puzzle, 2) == 1
            assert solved_grid(puzzle).values == solution.values


def test_generate_equals_counting_generator():
    # Even seeds symmetric, odd seeds asymmetric; 100 seeds per box size.
    for box in (2, 3):
        for seed in range(100):
            symmetric = seed % 2 == 0
            want = oracles.counting_generate(box, seed, symmetric)
            got = generate(box, seed, symmetric)
            assert got.to_text() == want.to_text(), (box, seed)
            assert got.solution.values == want.solution.values, (box, seed)
            assert got.restarts == want.restarts, (box, seed)


def test_generated_puzzles_are_unique_and_symmetric():
    for seed in range(12):
        report = generate(3, seed)
        assert count_solutions(report.puzzle, 2) == 1
        mask = [1 if v else 0 for v in report.puzzle.values]
        assert mask == mask[::-1]
        assert report.clue_count == sum(mask)
        assert report.minimal


def test_generation_is_deterministic():
    a = generate(3, 421)
    b = generate(3, 421)
    assert a.to_text() == b.to_text()
    assert a.puzzle.values == b.puzzle.values
    c = generate(3, 422)
    assert c.puzzle.values != a.puzzle.values


def test_generate_records_insertions():
    report = generate(3, 99)
    size = 81
    for first, second in report.insertion_order:
        assert second == size - 1 - first or first == second


def test_asymmetric_mode():
    report = generate(3, 5, symmetric=False)
    assert count_solutions(report.puzzle, 2) == 1


def test_minimality_exhaustive_small_boards():
    for seed in range(8):
        report = generate(2, seed)
        puzzle = report.puzzle
        assert count_solutions(puzzle, 2) == 1
        clue_cells = [c for c in range(16) if puzzle.values[c]]
        seen_pairs = set()
        for cell in clue_cells:
            partner = 15 - cell
            pair = frozenset((cell, partner))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            values = puzzle.values[:]
            values[cell] = 0
            if partner != cell and puzzle.values[partner]:
                values[partner] = 0
            assert count_solutions(Board(2, values), 2) >= 2, (seed, cell)


def test_minimality_sampled_for_standard_boards():
    report = generate(3, 7)
    puzzle = report.puzzle
    clue_cells = [c for c in range(81) if puzzle.values[c]]
    for cell in clue_cells[:6]:
        partner = 80 - cell
        values = puzzle.values[:]
        values[cell] = 0
        if partner != cell and puzzle.values[partner]:
            values[partner] = 0
        assert count_solutions(Board(3, values), 2) >= 2


def test_grade_levels():
    report = generate(3, 42)
    tier = grade(report.puzzle)
    assert tier == solve(report.puzzle).difficulty_tier


def test_grade_rejects_ambiguous_puzzle():
    with pytest.raises(ValueError):
        grade(Board(3))


def test_grade_monotone_when_clues_added():
    # find a puzzle that needs nonlocal work, then add one solved clue
    target = None
    for seed in range(120):
        report = generate(3, seed)
        tier = grade(report.puzzle)
        if tier is math.inf or (tier is not math.inf and tier >= 3):
            target = (report, tier)
            break
    assert target is not None, "no hard puzzle in seed range"
    report, before = target
    values = report.puzzle.values[:]
    empty = next(c for c in range(81) if values[c] == 0)
    values[empty] = report.solution.values[empty]
    after = grade(Board(3, values))
    if before is math.inf:
        assert after is math.inf or after >= 0
    else:
        assert after is math.inf or after <= before or after <= 4


def test_batch_stats_single_puzzle():
    stats = batch_stats(1, seed=3)
    assert stats.total == 1
    assert sum(stats.tier_counts.values()) + stats.unsolvable_count == 1
    text = stats.to_text()
    assert "reference 4.4" in text
    assert "reference 11.6" in text
    assert "reference 72.5" in text


def test_batch_stats_counts_consistent():
    stats = batch_stats(40, seed=11)
    assert stats.nonlocal_count <= 40 - stats.unsolvable_count
    assert stats.stuck_local_count == stats.unsolvable_count + stats.nonlocal_count
    assert stats.rescued_count == stats.nonlocal_count
    assert 0 <= stats.unsolvable_fraction <= 1


def test_batch_stats_parallel_matches_serial():
    serial = batch_stats(16, seed=77, jobs=1)
    parallel = batch_stats(16, seed=77, jobs=2)
    assert serial.to_text() == parallel.to_text()


def test_batch_stats_caps_workers_at_puzzles_and_cpus(monkeypatch):
    recorded = []

    class SerialPool:
        """Records the worker count and maps in this process: nothing forks."""

        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    generate_module = importlib.import_module("nonrep.sudoku.generate")
    monkeypatch.setattr(generate_module, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert batch_stats(3, seed=5, jobs=1000) == batch_stats(3, seed=5, jobs=1)
    assert batch_stats(6, seed=5, jobs=1000) == batch_stats(6, seed=5, jobs=1)
    assert recorded == [3, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert batch_stats(3, seed=5, jobs=1000) == batch_stats(3, seed=5, jobs=1)
    assert recorded == [3, 4]


# -- dense bivalue fixture -------------------------------------------------------------


@pytest.mark.parametrize("box", [2, 3, 4])
def test_fixture_unique_and_bivalued(box):
    board = dense_bivalue_fixture(box)
    n = box * box
    assert count_solutions(board, 2) == 1
    for b in range(box):
        cells = [
            (r + b * box) * n + (c + b * box) for r in range(box) for c in range(box)
        ]
        bivalued = sum(1 for c in cells if board.candidate_count(c) == 2)
        assert bivalued >= n - 1


def test_fixture_edge_counts_match_construction():
    counts = {}
    for box in (3, 4, 5):
        bv, _ = build_bivalue_graphs(dense_bivalue_fixture(box))
        counts[box] = bv.graph.num_edges
        n = box * box
        assert counts[box] == box * (n - 1) * (n - 2) // 2
    # superlinear growth in box size
    exponent = np.polyfit(
        np.log([3, 4, 5]), np.log([counts[3], counts[4], counts[5]]), 1
    )[0]
    assert exponent >= 4.5
