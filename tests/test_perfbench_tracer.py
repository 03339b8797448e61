"""The benchmark's tracer (``perfbench/tracer.py``) patches program functions
by name.  A change that renames or drops one of them breaks ``--trace 1``
runs only; this test makes it fail the suite instead."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from nonrep import simple_paths
from nonrep.labeled_graph import FlagLabeledGraph
from nonrep.sudoku import rules
from nonrep.sudoku.board import parse_board
from nonrep.sudoku.generate import generate

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_counts_matching_layers_and_restores_every_patch():
    tracer = _load_tracer().Tracer()
    # A square with one diagonal: a..c has simple nonrepetitive paths.
    graph = FlagLabeledGraph(
        False, [("a", "b", 0), ("b", "c", 1), ("c", "d", 0), ("d", "a", 1), ("a", "c", 0)]
    )
    patches = []
    try:
        tracer.install()
        patches = list(tracer._patches)
        # Every group of the empty board is the same matching instance, so
        # the state's memo solves it once.
        found = rules.rule_deductions(parse_board("." * 81), "group_matching")
        path = simple_paths.nonrepetitive_simple_path(graph, "a", "c")
        totals = tracer.totals()
    finally:
        tracer.restore()
    assert found == []
    assert path is not None
    assert totals["kernels.bipartite_forbidden"][0] == 1
    mates = totals["matching.perfect_matching_mate"][0]
    assert mates >= 1
    assert totals["kernels.blossom_matching"][0] == mates
    assert patches
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, attr


def test_tracer_counts_one_deduction_per_firing_under_solve():
    # The tracer takes len() of every registry result, so a registry entry
    # that returned a generator would raise here.
    puzzle = generate(3, 3).puzzle
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        trace = rules.solve(puzzle)
    finally:
        tracer.restore()
    assert {3, 4} <= set(trace.tiers)
    counters = tracer.counters
    firings = 0
    for rule in rules._RULE_FUNCTIONS:
        fired = counters[f"rules.{rule}.firings"]
        assert counters[f"rules.{rule}.deductions"] == fired, rule
        firings += fired
    assert firings == len(trace.deductions)
