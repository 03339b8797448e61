"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The heavyweight corpora (the 500-puzzle batch and the
200-puzzle solve corpus) are module-scoped fixtures shared between criteria.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from itertools import combinations
from random import Random

import numpy as np
import pytest

from nonrep.engine import LabelSwitchDigraph
from nonrep.gadget import build_switch_gadget
from nonrep.labeled_graph import FlagLabeledGraph
from nonrep.simple_paths import nonrepetitive_simple_path, simple_cycle_edges
from nonrep.sudoku.board import Board, apply_deduction
from nonrep.sudoku.generate import (
    NONLOCAL_BAND,
    UNSOLVABLE_BAND,
    batch_stats,
    count_solutions,
    dense_bivalue_fixture,
    generate,
)
from nonrep.sudoku.rules import build_bilocation_graph, build_bivalue_graphs, solve
from oracles import (
    dense_expansion,
    exit_reach_sets,
    is_simple_nonrep_path,
    oracle_cyclic_edges,
    oracle_enumerate,
    oracle_reachable,
    random_flag_graph,
)


def _report(number: int, started: float, detail: str):
    print(f"ACCEPTANCE {number} PASS ({time.perf_counter() - started:.2f}s): {detail}")


@pytest.fixture(scope="module")
def corpus200():
    reports = [generate(3, seed=_seed) for _seed in range(200)]
    return reports


@pytest.fixture(scope="module")
def batch500():
    started = time.perf_counter()
    stats = batch_stats(500, seed=20250, jobs=1)
    return stats, time.perf_counter() - started


def test_acceptance_1_gadget_law():
    started = time.perf_counter()
    for k in range(1, 65):
        gadget = build_switch_gadget(k)
        assert gadget.num_nodes <= 4 * k + 6
        assert len(gadget.arcs) <= 6 * k + 4
        for a, reached in enumerate(exit_reach_sets(gadget)):
            assert reached == frozenset(b for b in range(k) if b != a), (k, a)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"gadget sweep took {elapsed:.2f}s"
    _report(1, started, "switch law and size bounds hold for k=1..64")


def test_acceptance_2_walk_queries_match_oracles():
    started = time.perf_counter()
    rng = Random(1001)
    graphs = 0
    while graphs < 1000:
        directed = graphs % 2 == 0
        flagged = graphs % 3 == 0
        g = random_flag_graph(
            rng, max_vertices=8, max_labels=3, directed=directed, flag_labeled=flagged
        )
        linear = LabelSwitchDigraph(g)
        dense = dense_expansion(g)
        want_cyclic = oracle_cyclic_edges(g)
        assert linear.cycle_edge_ids() == want_cyclic
        assert dense.cycle_edge_ids() == want_cyclic
        for vid in range(g.num_vertices):
            for lid in g.vertex_label_ids(vid):
                vertex, label = g.vertex_name(vid), g.label_name(lid)
                want = oracle_reachable(g, vertex, label)
                got = {
                    (e.edge_id, e.tail, e.head, e.far_label)
                    for e in linear.reachable_from(vertex, label).edges
                }
                assert got == want
                got_dense = {
                    (e.edge_id, e.tail, e.head, e.far_label)
                    for e in dense.reachable_from(vertex, label).edges
                }
                assert got_dense == want
        graphs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"walk-query sweep took {elapsed:.2f}s"
    _report(2, started, "cycle and reach queries equal state oracle on 1000 graphs")


def test_acceptance_3_simple_paths_match_enumeration():
    started = time.perf_counter()
    rng = Random(3003)
    for _ in range(500):
        g = random_flag_graph(
            rng, max_vertices=10, max_labels=3, directed=False, max_edges=14
        )
        for s, t in combinations(range(g.num_vertices), 2):
            su, tu = g.vertex_name(s), g.vertex_name(t)
            want = bool(oracle_enumerate(g, "paths", su, tu))
            witness = nonrepetitive_simple_path(g, su, tu)
            assert (witness is not None) == want
            if witness is not None:
                assert is_simple_nonrep_path(g, witness, su, tu)
        want_cycles = set()
        for cycle in oracle_enumerate(g, "cycles"):
            want_cycles |= cycle
        assert simple_cycle_edges(g) == want_cycles
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"simple-path sweep took {elapsed:.2f}s"
    _report(3, started, "simple paths and cycle edges equal enumeration on 500 graphs")


def test_acceptance_4_graph_size_bounds(corpus200):
    started = time.perf_counter()
    limit_edges = 3 * 3**4
    bb_vertices = 4 * 3**4
    bb_edges = 6 * 3**4
    states = 0
    for report in corpus200:
        board = report.puzzle.copy()
        trace = solve(board)
        current = report.puzzle.copy()
        snapshots = [current]
        for ded in trace.deductions:
            nxt = apply_deduction(current, ded)
            if not isinstance(nxt, Board):
                break
            snapshots.append(nxt)
            current = nxt
        for state in snapshots:
            states += 1
            bl = build_bilocation_graph(state)
            assert bl.graph.num_edges <= limit_edges
            _, bb = build_bivalue_graphs(state)
            assert bb.graph.num_vertices <= bb_vertices
            assert bb.graph.num_edges <= bb_edges
    _report(4, started, f"bilocation/bivalue size bounds on {states} board states")


def test_acceptance_5_rule_soundness(corpus200):
    started = time.perf_counter()
    deduction_count = 0
    for report in corpus200:
        solution = report.solution
        trace = solve(report.puzzle)
        assert trace.outcome in ("solved", "stuck"), trace.outcome
        for ded in trace.deductions:
            deduction_count += 1
            assert not ded.contradiction
            for cell, digit in ded.placements:
                assert solution.values[cell] == digit, (ded.rule, cell, digit)
            for cell, digit in ded.eliminations:
                assert solution.values[cell] != digit, (ded.rule, cell, digit)
        if trace.outcome == "solved":
            assert trace.board.values == solution.values
    _report(
        5,
        started,
        f"zero unsound deductions across 200 puzzles ({deduction_count} firings)",
    )


def test_acceptance_6_batch_fractions(batch500):
    started = time.perf_counter()
    stats, elapsed = batch500
    assert elapsed < 600.0, f"500-puzzle batch took {elapsed:.0f}s"
    unsolvable_pct = 100 * stats.unsolvable_fraction
    nonlocal_pct = 100 * stats.nonlocal_fraction
    assert UNSOLVABLE_BAND[0] <= unsolvable_pct <= UNSOLVABLE_BAND[1], unsolvable_pct
    assert NONLOCAL_BAND[0] <= nonlocal_pct <= NONLOCAL_BAND[1], nonlocal_pct
    text = stats.to_text()
    assert "reference 4.4" in text and "reference 11.6" in text
    _report(
        6,
        started,
        f"batch of 500 in {elapsed:.0f}s: unsolvable {unsolvable_pct:.1f}% "
        f"(reference 4.4), nonlocal {nonlocal_pct:.1f}% (reference 11.6)",
    )


def test_acceptance_7_nonlocal_rescue_ratio(batch500):
    started = time.perf_counter()
    stats, _ = batch500
    assert stats.stuck_local_count > 0
    ratio = stats.rescue_ratio
    assert ratio >= 0.4, ratio
    _report(
        7,
        started,
        f"nonlocal rules rescue {100 * ratio:.1f}% of locally stuck puzzles "
        "(reference 72.5%)",
    )


def test_acceptance_8_dense_bivalue_growth():
    started = time.perf_counter()
    sizes = {}
    for box in (3, 4, 5):
        board = dense_bivalue_fixture(box)
        assert count_solutions(board, 2) == 1
        bv, _ = build_bivalue_graphs(board)
        sizes[box] = bv.graph.num_edges
    exponent = np.polyfit(
        np.log([3.0, 4.0, 5.0]),
        np.log([sizes[3], sizes[4], sizes[5]]),
        1,
    )[0]
    assert exponent >= 4.5, (sizes, exponent)
    _report(
        8,
        started,
        f"bivalue edges {sizes} grow with exponent {exponent:.2f} >= 4.5",
    )


def test_acceptance_9_generator_contract():
    started = time.perf_counter()
    for seed in range(100):
        report = generate(3, seed)
        assert count_solutions(report.puzzle, 2) == 1
        mask = [1 if v else 0 for v in report.puzzle.values]
        assert mask == mask[::-1]
    for seed in range(20):
        report = generate(2, seed)
        puzzle = report.puzzle
        assert count_solutions(puzzle, 2) == 1
        seen = set()
        for cell in [c for c in range(16) if puzzle.values[c]]:
            pair = frozenset((cell, 15 - cell))
            if pair in seen:
                continue
            seen.add(pair)
            values = puzzle.values[:]
            for member in pair:
                if puzzle.values[member]:
                    values[member] = 0
            assert count_solutions(Board(2, values), 2) >= 2
    cmd = [
        sys.executable,
        "-m",
        "nonrep.cli",
        "sudoku",
        "generate",
        "--seed",
        "555",
        "--count",
        "3",
        "--format",
        "structured",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout and first.stdout
    _report(
        9,
        started,
        "100 unique symmetric puzzles, exhaustive minimality at B=2, "
        "byte-identical seeded reruns",
    )
