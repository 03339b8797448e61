"""The four workloads: inputs, the timed op, and the correctness check of each op.

A workload's ``setup`` loads or builds everything an op needs, checks the
inputs against the recorded pools, picks the ops of one pass
(``pass_specs``), and warms up; the runner also times it in fresh
interpreters.  The runner repeats the pass, times ``execute`` alone and
checks each result with ``check`` (untimed), which returns ``None`` or the
reason the op failed.  ``sudoku_hard_solve`` and ``simple_paths_sweep`` draw
one item from each cost stratum of their pool (see ``inputs.stratified``),
so every seed's pass costs about the same; a ``sudoku_batch`` pass is its
whole pool in an order the seed picks.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import re
import sys
from itertools import combinations
from random import Random

import inputs
from common import DATA, edge_set_digest, sha256_text, trace_text


def _load(name: str):
    with open(DATA / name, encoding="utf-8") as handle:
        return json.load(handle)


def tier_name(tier) -> str:
    return "unsolvable" if tier is math.inf else str(tier)


def batch_text(gen, tiers: list[str]) -> str:
    """``BatchStats.to_text()`` for graded tiers, counted as ``batch_stats`` counts."""
    tier_counts: dict[int, int] = {}
    for tier in tiers:
        if tier != "unsolvable":
            tier_counts[int(tier)] = tier_counts.get(int(tier), 0) + 1
    unsolvable = tiers.count("unsolvable")
    nonlocal_needed = sum(n for t, n in tier_counts.items() if t >= gen.TIER_BILOCATION)
    return gen.BatchStats(
        box=3,
        total=len(tiers),
        seed=inputs.BATCH_SEED,
        tier_counts=tier_counts,
        unsolvable_count=unsolvable,
        nonlocal_count=nonlocal_needed,
        stuck_local_count=unsolvable + nonlocal_needed,
        rescued_count=nonlocal_needed,
    ).to_text()


class Workload:
    def __init__(self, seed: int):
        self.seed = seed
        self.pass_specs: list = []  # the ops of one pass, set by ``setup``

    def load(self) -> None:
        """Load the whole pool and its golden answers (stratified workloads)."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, spec):
        raise NotImplementedError

    def check(self, spec, result):
        raise NotImplementedError


class SudokuBatch(Workload):
    """One op: ``generate(3, s)`` then ``grade``, as ``batch_stats(jobs=1)`` does."""

    def setup(self):
        # ``nonrep.sudoku.generate`` is also a function name in the package.
        gen = importlib.import_module("nonrep.sudoku.generate")
        self.gen = gen
        golden = _load("golden_batch.json")
        self.golden = golden["puzzles"]
        self.subseeds = inputs.batch_subseeds()
        if [g["subseed"] for g in self.golden] != self.subseeds:
            raise RuntimeError("golden_batch.json does not match the batch pool")
        if batch_text(gen, [g["tier"] for g in self.golden]) != golden["batch_text"]:
            raise RuntimeError("BatchStats.to_text() of the golden grades differs")
        # A pass is the whole pool, the paper's batch, in an order the seed picks.
        self.pass_specs = Random(self.seed).sample(range(len(self.subseeds)), len(self.subseeds))
        self.gen.grade(self.gen.generate(2, 0).puzzle)  # the same warm-up for every seed

    def execute(self, index):
        report = self.gen.generate(3, self.subseeds[index])
        return report, self.gen.grade(report.puzzle)

    def check(self, index, result):
        report, tier = result
        want = self.golden[index]
        if sha256_text(report.to_text()) != want["report_sha256"]:
            return f"puzzle for subseed {want['subseed']} differs"
        if tier_name(tier) != want["tier"]:
            return f"subseed {want['subseed']} graded {tier}, want {want['tier']}"
        return None


class SudokuHardSolve(Workload):
    """One op: ``solve`` on a locally stuck puzzle from the committed corpus."""

    def load(self):
        from nonrep.sudoku import parse_board, rules

        self.rules = rules
        text = (DATA / "hard_corpus.txt").read_text(encoding="utf-8")
        digest = (DATA / "hard_corpus.sha256").read_text(encoding="utf-8").strip()
        if sha256_text(text) != digest:
            raise RuntimeError("hard_corpus.txt does not match hard_corpus.sha256")
        rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
        if len(rows) != inputs.HARD_CORPUS_SIZE:
            raise RuntimeError(f"hard_corpus.txt holds {len(rows)} puzzles")
        self.puzzles = [(row[0], parse_board(row[2]), row[3]) for row in rows]

    def setup(self):
        from nonrep.sudoku import count_solutions

        self.load()
        # The whole corpus, so the set-up costs the same whatever the seed picks.
        for seed, board, _ in self.puzzles:
            if count_solutions(board, 2) != 1:
                raise RuntimeError(f"corpus puzzle of seed {seed} is not unique")
        self.pass_specs = inputs.stratified("sudoku_hard_solve", Random(self.seed))
        self.rules.solve(self.puzzles[0][1])  # the same warm-up for every seed

    def execute(self, index):
        return self.rules.solve(self.puzzles[index][1])

    def check(self, index, trace):
        seed, board, want = self.puzzles[index]
        if sha256_text(trace_text(board, trace)) != want:
            return f"solve trace of corpus seed {seed} differs"
        return None


def simple_path_error(graph: inputs.SmallGraph, witness, p: int, q: int):
    """Why ``witness`` is not a simple nonrepetitive p..q path, or None."""
    current, visited, last_far = p, {p}, None
    for eid in witness:
        if not 0 <= eid < len(graph.edges):
            return f"edge {eid} does not exist"
        u, v, lu, lv = graph.edges[eid]
        if current == u:
            nxt, near, far = v, lu, lv
        elif current == v:
            nxt, near, far = u, lv, lu
        else:
            return f"edge {eid} does not continue the path at v{current}"
        if near == last_far:
            return f"label {near} repeats at v{current}"
        if nxt in visited:
            return f"vertex v{nxt} repeats"
        visited.add(nxt)
        current, last_far = nxt, far
    return None if current == q else f"path ends at v{current}, not v{q}"


class SimplePathsSweep(Workload):
    """One op: ``nonrepetitive_simple_path`` on every vertex pair, then
    ``simple_cycle_edges``, on one small graph."""

    def load(self):
        from nonrep import simple_paths

        self.sp = simple_paths
        golden = _load("golden_simple.json")
        self.golden = golden["graphs"]
        self.pool = [inputs.simple_graph(i) for i in range(inputs.SIMPLE_POOL)]
        if sha256_text(repr(self.pool)) != golden["pool_sha256"]:
            raise RuntimeError("golden_simple.json does not match the generated pool")
        self.graphs = [sg.build() for sg in self.pool]

    def setup(self):
        self.load()
        self.pass_specs = inputs.stratified("simple_paths_sweep", Random(self.seed))
        self.execute(0)  # the same warm-up for every seed

    def execute(self, index):
        g = self.graphs[index]
        n = self.pool[index].num_vertices
        witnesses = [
            self.sp.nonrepetitive_simple_path(g, f"v{a}", f"v{b}")
            for a, b in combinations(range(n), 2)
        ]
        return witnesses, self.sp.simple_cycle_edges(g)

    def check(self, index, result):
        witnesses, cycle_edges = result
        want = self.golden[index]
        pairs = list(combinations(range(self.pool[index].num_vertices), 2))
        if "".join("0" if w is None else "1" for w in witnesses) != want["paths"]:
            return f"simple-path answers of pool graph {index} differ"
        for (a, b), witness in zip(pairs, witnesses):
            if witness is not None:
                error = simple_path_error(self.pool[index], witness, a, b)
                if error:
                    return f"pool graph {index}, v{a}..v{b}: {error}"
        if sorted(cycle_edges) != want["cycle_edges"]:
            return f"simple-cycle edges of pool graph {index} differ"
        return None


_EDGE_LINE = re.compile(r"edge (\d+): (\S+) -> (\S+) label (\S+)$")


def walk_error(graph: inputs.LargeGraph, lines: list[str], src: str, dst: str):
    """Why printed walk ``lines`` is not a nonrepetitive src..dst walk, or None."""
    at, last_far = src, None
    for line in lines:
        match = _EDGE_LINE.match(line)
        if not match:
            return f"unparsable line {line!r}"
        eid, tail, head, far = int(match[1]), match[2], match[3], match[4]
        if not 0 <= eid < len(graph.edges):
            return f"edge {eid} does not exist"
        u, v, lu, lv = graph.edges[eid]
        if (tail, head, far) == (u, v, lv):
            near = lu
        elif not graph.directed and (tail, head, far) == (v, u, lu):
            near = lv
        else:
            return f"{line!r} is not a traversal of edge {eid}"
        if tail != at:
            return f"{line!r} does not continue the walk at {at}"
        if near == last_far:
            return f"label {near} repeats at {at}"
        at, last_far = head, far
    return None if at == dst else f"walk ends at {at}, not {dst}"


def run_cli(cli, argv, text):
    """``cli.run(argv)`` with ``text`` on standard input; (exit code, stdout)."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def graph_argv(graph: inputs.LargeGraph, command: str, q: int) -> list[str]:
    """The command line of query ``q`` (a recorded candidate) on ``graph``."""
    if command == "reach":
        vertex, label = graph.reach_starts[q]
        return ["graph", "reach", "--start", vertex, "--label", label, "-"]
    if command == "shortest":
        src, dst = graph.shortest_pairs[q]
        return ["graph", "shortest", "--from", src, "--to", dst, "-"]
    return ["graph", "cycles", "-"]


class GraphWalksLarge(Workload):
    """One op: ``graph cycles``, ``graph reach`` or ``graph shortest`` on one
    graph, an in-process ``cli.run`` that parses the graph file anew.

    A pass is the three commands on each of the four graphs, twelve ops, for
    the query the seed picks (a reach start and a shortest pair per graph).
    """

    commands = ("cycles", "reach", "shortest")

    def setup(self):
        from nonrep import cli

        self.cli = cli
        self.golden = _load("golden_graphs.json")
        self.graphs = []
        for key in inputs.LARGE_GRAPHS:
            graph = inputs.large_graph(key)
            if sha256_text(graph.text) != self.golden[key]["text_sha256"]:
                raise RuntimeError(f"golden answers do not match graph {key}")
            self.graphs.append(graph)
        q = Random(self.seed).randrange(inputs.QUERY_CANDIDATES)
        self.pass_specs = [(g, command, q) for g in self.graphs for command in self.commands]
        tiny = "graph undirected\nedge a b x\nedge b c y\nedge c a z\n"
        for argv in (
            ["graph", "cycles", "-"],
            ["graph", "reach", "--start", "a", "--label", "x", "-"],
            ["graph", "shortest", "--from", "a", "--to", "c", "-"],
        ):
            run_cli(cli, argv, tiny)

    def execute(self, spec):
        graph, command, q = spec
        return run_cli(self.cli, graph_argv(graph, command, q), graph.text)

    def check(self, spec, result):
        graph, command, q = spec
        code, stdout = result
        want = self.golden[graph.key]
        what = f"{' '.join(graph_argv(graph, command, q)[1:-1])} on {graph.key}"
        if command == "shortest":
            length = want["shortest_lengths"][q]
            if length is None:
                return None if code == 1 and not stdout else f"{what}: found a walk, want none"
            lines = stdout.splitlines()
            if code != 0 or len(lines) != length:
                return f"{what}: exit {code}, {len(lines)} edges, want {length}"
            return walk_error(graph, lines, *graph.shortest_pairs[q])
        digest = want["cycles"] if command == "cycles" else want["reach"][q]
        if code != 0 or edge_set_digest(stdout) != digest:
            return f"{what}: edge set differs"
        return None


WORKLOADS = {
    "sudoku_batch": SudokuBatch,
    "sudoku_hard_solve": SudokuHardSolve,
    "graph_walks_large": GraphWalksLarge,
    "simple_paths_sweep": SimplePathsSweep,
}
