"""Deterministic input pools for the four workloads.

Every workload draws its inputs from a fixed pool whose answers were
recorded once (see ``record_golden.py`` and ``make_corpus.py``); the
workload seed only chooses which pool items a run uses and in what order.
So every run can be checked against golden answers, and a claim tuned on
one seed can be re-checked on another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random

from common import DATA

# sudoku_batch: the split seeds of ``batch_stats(BATCH_POOL, BATCH_SEED)``.
BATCH_SEED = 20250
BATCH_POOL = 100

# sudoku_hard_solve: the corpus ``make_corpus.py`` writes.
HARD_CORPUS_SIZE = 160

# simple_paths_sweep: acceptance-3 style graphs, <= 10 vertices, <= 14 edges,
# 3 labels, each edge flag-labeled with probability 1/2.
SIMPLE_POOL = 300
SIMPLE_SEED_BASE = 3_003_000

# graph_walks_large: two undirected edge-labeled graphs with few labels and
# two directed flag-labeled graphs with many labels, so gadget sizes differ.
LARGE_GRAPHS = {
    "u0": dict(directed=False, vertices=12_500, edges=50_000, labels=8, seed=101),
    "u1": dict(directed=False, vertices=12_500, edges=50_000, labels=8, seed=102),
    "d0": dict(directed=True, vertices=10_000, edges=50_000, labels=64, seed=201),
    "d1": dict(directed=True, vertices=10_000, edges=50_000, labels=64, seed=202),
}
QUERY_CANDIDATES = 6  # recorded reach starts and shortest pairs per graph

# Pool items per cost stratum: a pass takes one item from each, so a pass is
# 80 of the 160 hard puzzles and 100 of the 300 small graphs.
# ``data/cost_order.json`` (``make_cost_order.py``) sorts each pool by its op
# time; the strata are consecutive runs of that order.
STRATUM = {"sudoku_hard_solve": 2, "simple_paths_sweep": 3}
POOL_SIZE = {"sudoku_hard_solve": HARD_CORPUS_SIZE, "simple_paths_sweep": SIMPLE_POOL}


def stratified(workload: str, rng: Random) -> list[int]:
    """Pool indices of one pass: one item drawn from each cost stratum, shuffled.

    Every seed's pass then holds the same number of cheap, middling and
    costly items, so passes of different seeds cost about the same, while the
    seed still decides which items a run measures.
    """
    with open(DATA / "cost_order.json", encoding="utf-8") as handle:
        order = json.load(handle)[workload]
    if sorted(order) != list(range(POOL_SIZE[workload])):
        raise RuntimeError(f"cost_order.json does not order the {workload} pool")
    size = STRATUM[workload]
    picks = [rng.choice(order[i : i + size]) for i in range(0, len(order), size)]
    rng.shuffle(picks)
    return picks


def batch_subseeds() -> list[int]:
    """The seeds ``batch_stats`` gives its puzzles, computed the same way."""
    return [(BATCH_SEED * 1_000_003 + i) % 2**63 for i in range(BATCH_POOL)]


@dataclass(frozen=True)
class SmallGraph:
    """Edge list ``(u, v, label_at_u, label_at_v)`` over vertices ``v0..v{n-1}``."""

    num_vertices: int
    edges: tuple[tuple[int, int, str, str], ...]

    def build(self):
        """This graph as the program's ``FlagLabeledGraph``."""
        from nonrep import FlagLabeledGraph

        return FlagLabeledGraph(
            False,
            [(f"v{u}", f"v{v}", lu, lv) for u, v, lu, lv in self.edges],
            vertices=[f"v{i}" for i in range(self.num_vertices)],
        )


def simple_graph(index: int) -> SmallGraph:
    rng = Random(SIMPLE_SEED_BASE + index)
    n = rng.randint(2, 10)
    m = rng.randint(1, 14)
    labels = ("L1", "L2", "L3")
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        lu = rng.choice(labels)
        lv = rng.choice(labels) if rng.random() < 0.5 else lu
        edges.append((u, v, lu, lv))
    return SmallGraph(n, tuple(edges))


@dataclass(frozen=True)
class LargeGraph:
    key: str
    directed: bool
    text: str  # the graph file a CLI user would pass
    edges: tuple[tuple[str, str, str, str], ...]
    reach_starts: tuple[tuple[str, str], ...]  # (vertex, first label), all real flags
    shortest_pairs: tuple[tuple[str, str], ...]


def large_graph(key: str) -> LargeGraph:
    spec = LARGE_GRAPHS[key]
    rng = Random(spec["seed"])
    n = spec["vertices"]
    labels = [f"{'f' if spec['directed'] else 'a'}{i}" for i in range(spec["labels"])]
    edges = []
    for _ in range(spec["edges"]):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        v += v >= u  # no self-loops: the expansion rejects them
        lu = rng.choice(labels)
        lv = rng.choice(labels) if spec["directed"] else lu
        edges.append((f"v{u}", f"v{v}", lu, lv))
    lines = ["graph " + ("directed" if spec["directed"] else "undirected")]
    for u, v, lu, lv in edges:
        lines.append(f"flagedge {u} {v} {lu} {lv}" if lu != lv else f"edge {u} {v} {lu}")
    starts = []
    while len(starts) < QUERY_CANDIDATES:
        u, _, lu, _ = edges[rng.randrange(len(edges))]
        if (u, lu) not in starts:
            starts.append((u, lu))
    pairs = []
    while len(pairs) < QUERY_CANDIDATES:
        a = edges[rng.randrange(len(edges))][0]
        b = edges[rng.randrange(len(edges))][1]
        if a != b:
            pairs.append((a, b))
    return LargeGraph(
        key,
        spec["directed"],
        "\n".join(lines) + "\n",
        tuple(edges),
        tuple(starts),
        tuple(pairs),
    )
