from __future__ import annotations

import gc
import importlib.util
import sys
import time
import weakref
from itertools import combinations, permutations
from pathlib import Path
from random import Random

import pytest

from nonrep import FlagLabeledGraph, simple_paths
from nonrep.simple_paths import (
    SkewSymmetricGraph,
    binarize_labels,
    build_skew_instance,
    has_nonrepetitive_simple_cycle,
    nonrepetitive_simple_path,
    regular_reachable,
    simple_cycle_edges,
)
import oracles
from oracles import (
    brute_regular_reachable,
    is_simple_nonrep_path,
    oracle_enumerate,
    path_nodes,
    random_flag_graph,
    random_skew_symmetric,
)


# -- binarization --------------------------------------------------------------


def test_binarize_gadget_size():
    g = FlagLabeledGraph(False, [("v", "a", "1"), ("v", "b", "2")])
    binarized = binarize_labels(g)
    ports = [
        tok
        for tok in (
            binarized.graph.vertex_name(i) for i in range(binarized.graph.num_vertices)
        )
        if tok[0] == "p" and tok[1] == "v"
    ]
    # two labels at v: gadget has center plus 2k port vertices
    assert len(ports) == 4


def test_binarize_uses_two_labels():
    g = FlagLabeledGraph(False, [("p", "q", "5"), ("q", "r", "7")])
    binarized = binarize_labels(g)
    labels = {
        lab
        for eid in range(binarized.graph.num_edges)
        for lab in binarized.graph.edge_labels(eid)
    }
    assert labels <= {0, 1}


def test_binarize_rejects_directed_and_loops():
    with pytest.raises(ValueError):
        binarize_labels(FlagLabeledGraph(True, [("a", "b", "1")]))
    with pytest.raises(ValueError):
        binarize_labels(FlagLabeledGraph(False, [("a", "a", "1")]))


def test_binarize_preserves_path_existence():
    rng = Random(424)
    for _ in range(80):
        g = random_flag_graph(rng, directed=False, max_vertices=6)
        binarized = binarize_labels(g)
        for s, t in combinations(range(g.num_vertices), 2):
            su, tu = g.vertex_name(s), g.vertex_name(t)
            want = bool(oracle_enumerate(g, "paths", su, tu))
            got = bool(
                oracle_enumerate(
                    binarized.graph,
                    "paths",
                    binarized.center[su],
                    binarized.center[tu],
                    bound=80,
                )
            )
            assert got == want


# -- skew-symmetric instances ----------------------------------------------------


def test_skew_instance_size_and_involutions():
    g = FlagLabeledGraph(False, [("a", "b", 0), ("b", "c", 1)])
    ssg = build_skew_instance(g, "a", "c", 0, 1)
    assert ssg.num_nodes == 2 * g.num_vertices + 2
    sig = ssg.sigma
    assert all(sig[sig[x]] == x and sig[x] != x for x in range(ssg.num_nodes))


def test_skew_instance_rejects_nonbinary_labels():
    g = FlagLabeledGraph(False, [("a", "b", 5)])
    with pytest.raises(ValueError):
        build_skew_instance(g, "a", "b", 0, 0)


def test_skew_validation_rejects_broken_mirror():
    with pytest.raises(ValueError):
        SkewSymmetricGraph(4, ((0, 2),), (1, 0, 3, 2), 0)
    with pytest.raises(ValueError):
        SkewSymmetricGraph(3, (), (1, 0, 2), 0)  # fixed point
    # Node ids outside 0..num_nodes-1: a negative arc end whose mirrors close
    # up under Python's negative indexing, a negative source, an arc end and
    # a sigma value past the last node.
    with pytest.raises(ValueError):
        SkewSymmetricGraph(4, ((-1, 0), (1, 2), (3, 0)), (1, 0, 3, 2), 0)
    with pytest.raises(ValueError):
        SkewSymmetricGraph(4, (), (1, 0, 3, 2), -1)
    with pytest.raises(ValueError):
        SkewSymmetricGraph(4, ((0, 9),), (1, 0, 3, 2), 0)
    with pytest.raises(ValueError):
        SkewSymmetricGraph(4, (), (1, 0, 3, 9), 0)


def test_regular_reachable_direct_case():
    # s -> a -> sigma(s); the partner pair node stays unused.
    sigma = (1, 0, 3, 2)
    arcs = ((0, 2), (3, 1), (2, 1), (0, 3))
    ssg = SkewSymmetricGraph(4, arcs, sigma, 0)
    witness = regular_reachable(ssg)
    assert witness is not None
    assert path_nodes(ssg, witness) == [0, 2, 1]


def test_regular_reachable_blocked_by_pair_use():
    # only route uses both nodes of one pair
    sigma = (1, 0, 3, 2)
    arcs = ((0, 2), (3, 1), (2, 3))
    ssg = SkewSymmetricGraph(4, arcs, sigma, 0)
    assert regular_reachable(ssg) is None


def test_regular_reachable_random_matches_brute_force():
    rng = Random(1618)
    for _ in range(300):
        ssg = random_skew_symmetric(rng)
        want = brute_regular_reachable(ssg.num_nodes, ssg.arcs, ssg.sigma, ssg.source)
        witness = regular_reachable(ssg)
        assert (witness is not None) == want
        if witness is not None:
            nodes = path_nodes(ssg, witness)
            assert nodes[0] == ssg.source
            assert nodes[-1] == ssg.sigma[ssg.source]
            pairs = [min(x, ssg.sigma[x]) for x in nodes[1:-1]]
            assert len(pairs) == len(set(pairs))
            arc_set = set(ssg.arcs)
            for a, b in zip(nodes, nodes[1:]):
                assert (a, b) in arc_set


def test_regular_reachable_equals_pair_indexed_reference():
    """The port graph on the skew graph's own node ids gives byte-identical
    witnesses to the pair-indexed numbering it replaced, on all four
    endpoint-label instances of random binarized flag graphs."""
    rng = Random(2236)
    found = missing = 0
    for trial in range(220):
        g = random_flag_graph(
            rng, max_vertices=7, max_labels=3, directed=False, flag_labeled=trial % 2 == 1
        )
        binarized = binarize_labels(g)
        p, q = rng.sample(range(g.num_vertices), 2)
        cp = binarized.center[g.vertex_name(p)]
        cq = binarized.center[g.vertex_name(q)]
        for start_bit in (0, 1):
            for end_bit in (0, 1):
                ssg = build_skew_instance(binarized.graph, cp, cq, start_bit, end_bit)
                witness = regular_reachable(ssg)
                assert witness == oracles.regular_reachable(ssg)
                if witness is None:
                    missing += 1
                else:
                    found += 1
    assert found > 100 and missing > 100


def test_endpoint_label_partition_matches_enumeration():
    # For 0/1-labeled graphs the four (start,end) label instances partition
    # path existence exactly as enumeration filtered by endpoint labels.
    rng = Random(906)
    for _ in range(60):
        g = random_flag_graph(rng, directed=False, max_vertices=6, max_labels=2)
        binary = FlagLabeledGraph(
            False,
            [
                (g.endpoints(e)[0], g.endpoints(e)[1], int(g.edge_labels(e)[0][1]) % 2)
                for e in range(g.num_edges)
            ],
            vertices=[g.vertex_name(i) for i in range(g.num_vertices)],
        )
        for s, t in combinations(range(binary.num_vertices), 2):
            su, tu = binary.vertex_name(s), binary.vertex_name(t)
            paths = oracle_enumerate(binary, "paths", su, tu)
            for cs in (0, 1):
                for ce in (0, 1):
                    want = any(
                        binary.edge_labels(p[0])[0] == cs
                        and binary.edge_labels(p[-1])[0] == ce
                        for p in paths
                    )
                    ssg = build_skew_instance(binary, su, tu, cs, ce)
                    assert (regular_reachable(ssg) is not None) == want


# -- simple path existence ---------------------------------------------------------


def test_single_edge_path():
    g = FlagLabeledGraph(False, [("p", "q", "3")])
    assert nonrepetitive_simple_path(g, "p", "q") == [0]


def test_repetition_blocks_two_step_path():
    g = FlagLabeledGraph(False, [("p", "r", "1"), ("r", "q", "1")])
    assert nonrepetitive_simple_path(g, "p", "q") is None


def test_same_endpoints_trivial_path():
    g = FlagLabeledGraph(False, [("p", "q", "1")])
    assert nonrepetitive_simple_path(g, "p", "p") == []


def test_directed_refused():
    g = FlagLabeledGraph(True, [("p", "q", "1")])
    with pytest.raises(ValueError):
        nonrepetitive_simple_path(g, "p", "q")
    with pytest.raises(ValueError):
        simple_cycle_edges(g)


def test_path_existence_matches_enumeration():
    rng = Random(2718)
    for _ in range(120):
        g = random_flag_graph(rng, directed=False, max_vertices=8)
        for s, t in combinations(range(g.num_vertices), 2):
            su, tu = g.vertex_name(s), g.vertex_name(t)
            want = bool(oracle_enumerate(g, "paths", su, tu))
            witness = nonrepetitive_simple_path(g, su, tu)
            assert (witness is not None) == want
            if witness is not None:
                assert is_simple_nonrep_path(g, witness, su, tu)


def test_adding_an_edge_never_breaks_a_path():
    rng = Random(555)
    for _ in range(60):
        g = random_flag_graph(rng, directed=False, max_vertices=6)
        su, tu = g.vertex_name(0), g.vertex_name(1)
        before = nonrepetitive_simple_path(g, su, tu) is not None
        extra_u = rng.randrange(g.num_vertices)
        extra_v = (extra_u + rng.randrange(1, g.num_vertices)) % g.num_vertices
        edges = [
            (*g.endpoints(e), *g.edge_labels(e)) for e in range(g.num_edges)
        ]
        edges.append(
            (g.vertex_name(extra_u), g.vertex_name(extra_v), f"L{rng.randint(1, 3)}")
        )
        bigger = FlagLabeledGraph(
            False, edges, vertices=[g.vertex_name(i) for i in range(g.num_vertices)]
        )
        after = nonrepetitive_simple_path(bigger, su, tu) is not None
        assert after or not before


# Vertex and label tokens that are not strings; the tuples look like the
# binarized graph's own center and port tokens.
_VERTEX_TOKENS = (0, 1, "v2", (3, "x"), None, 5.5, frozenset({6}), ("c", 7), ("p", 8, 0, 0))
_LABEL_TOKENS = (0, 1, "1", ("L", 2), None, 2.5)


def _mixed_graph(rng: Random, max_vertices: int = 7) -> FlagLabeledGraph:
    """Undirected graph mixing edge and flag labels, parallel edges,
    self-loops and (declared) isolated vertices, over non-string tokens."""
    names = rng.sample(_VERTEX_TOKENS, rng.randint(2, max_vertices))
    labels = rng.sample(_LABEL_TOKENS, rng.randint(1, 4))
    edges = []
    for _ in range(rng.randint(0, 2 * len(names))):
        if edges and rng.random() < 0.15:
            u, v = edges[-1][:2]
        else:
            u = rng.choice(names)
            v = u if rng.random() < 0.1 else rng.choice(names)
        lu = rng.choice(labels)
        if rng.random() < 0.5:
            edges.append((u, v, lu))
        else:
            edges.append((u, v, lu, rng.choice(labels)))
    return FlagLabeledGraph(False, edges, vertices=names)


def _answers(g: FlagLabeledGraph, pairs, simple_path, cycle_edges):
    names = [g.vertex_name(v) for v in range(g.num_vertices)]
    return [simple_path(g, p, q) for p, q in pairs(names, 2)], cycle_edges(g)


def _new_answers(g: FlagLabeledGraph, pairs):
    return _answers(g, pairs, nonrepetitive_simple_path, simple_cycle_edges)


def _per_query_answers(g: FlagLabeledGraph, pairs):
    return _answers(
        g,
        pairs,
        oracles.per_query_nonrepetitive_simple_path,
        oracles.per_query_simple_cycle_edges,
    )


def test_prepared_graphs_equal_per_query_reference():
    """Witnesses and cycle edges equal those of the pipeline that binarized
    and built four complete skew instances on every query."""
    rng = Random(8128)
    loops = flags = parallel = isolated = 0
    for _ in range(200):
        g = _mixed_graph(rng)
        want = _per_query_answers(g, permutations)
        assert _new_answers(g, permutations) == want
        # a second round on the now-prepared graph answers the same
        assert _new_answers(g, permutations) == want
        loops += g.has_self_loops()
        flags += not g.is_edge_labeled()
        parallel += len({frozenset(g.edges[e][:2]) for e in range(g.num_edges)}) < g.num_edges
        isolated += any(g.degree(v) == 0 for v in range(g.num_vertices))
    assert min(loops, flags, parallel, isolated) >= 20


def _benchmark_pool():
    """The 300 graphs of the ``simple_paths_sweep`` benchmark workload."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    with pytest.MonkeyPatch.context() as mp:
        for name in ("common", "inputs"):
            spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            # inputs.py imports common by its plain name, and dataclasses
            # look their module up in sys.modules.
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
        return [module.simple_graph(i).build() for i in range(module.SIMPLE_POOL)]


def test_benchmark_pool_equals_per_query_reference():
    for g in _benchmark_pool():
        assert _new_answers(g, combinations) == _per_query_answers(g, combinations)


def _split_flag_graph(rng: Random) -> FlagLabeledGraph:
    """2..11 vertices, small counts likelier, in one to three groups, and up
    to 3n (at most 29) edges inside the groups, so the graph often has
    several components; 2..4 labels, edge and flag labels mixed, self-loops
    and parallel edges."""
    n = min(rng.randint(2, 11), rng.randint(2, 11))
    group = [rng.randrange(rng.randint(1, 3)) for _ in range(n)]
    members = [[v for v in range(n) if group[v] == k] for k in set(group)]
    labels = range(rng.randint(2, 4))
    edges: list[tuple] = []
    for _ in range(rng.randint(0, min(29, 3 * n))):
        if edges and rng.random() < 0.15:
            u, v = edges[-1][:2]
        else:
            side = rng.choice(members)
            u = rng.choice(side)
            v = u if rng.random() < 0.1 else rng.choice(side)
        if rng.random() < 0.5:
            edges.append((u, v, rng.choice(labels)))
        else:
            edges.append((u, v, rng.choice(labels), rng.choice(labels)))
    return FlagLabeledGraph(False, edges, vertices=range(n))


def test_skipped_matchings_change_no_answer():
    """Skipping the pairs in different components, peeling the cycle
    candidates and deciding each by one search from the idle matching
    changes no witness and no cycle set; a peeled edge is on no cycle."""
    rng = Random(21)
    split = peeled = parallel = enumerated = 0
    for _ in range(3000):
        g = _split_flag_graph(rng)
        assert _new_answers(g, permutations) == _per_query_answers(g, permutations)
        live = simple_paths._peeled(g)
        split += len(set(simple_paths._prepared(g)._components[: 2 * g.num_vertices : 2])) > 1
        peeled += not all(live[e] for e in range(g.num_edges) if not g.is_self_loop(e))
        parallel += len({frozenset(g.edges[e][:2]) for e in range(g.num_edges)}) < g.num_edges
        if g.num_edges <= 16:
            enumerated += 1
            for cycle in oracle_enumerate(g, "cycles"):
                assert all(live[e] for e in cycle)
    assert min(split, peeled, parallel, enumerated) > 1000


def _matchings_asked(g: FlagLabeledGraph, p, q) -> int:
    """The matchings a p..q query asks: none when no nonrepetitive walk joins
    p and q, else one per instance up to the first whose witness is as short
    as the shortest such walk, which no simple path undercuts, else all four."""
    bound = oracles.loopless_walk_distance(g, p, q)
    if bound is None:
        return 0
    witnesses = oracles.per_query_instance_witnesses(g, p, q)
    lengths = [None if w is None else len(w) for w in witnesses]
    return lengths.index(bound) + 1 if bound in lengths else 4


def test_graph_is_prepared_once_and_matched_four_times_per_query(monkeypatch):
    edges = [
        ("a", "b", 0), ("b", "c", 1), ("c", "d", 0, 1), ("d", "a", 1),
        ("a", "c", 2), ("b", "b", 0), ("a", "b", 1),
    ]
    g = FlagLabeledGraph(False, edges, vertices=["e"])
    names = [g.vertex_name(v) for v in range(g.num_vertices)]
    pairs = list(permutations(names, 2))
    # Derived before the counters go in: the references build subgraphs.
    asked = [_matchings_asked(g, p, q) for p, q in pairs]
    calls = {"binarize": 0, "match": 0, "subgraph": 0}
    binarize, match = simple_paths.binarize_labels, simple_paths.perfect_matching_mate
    subgraph = FlagLabeledGraph.subgraph

    def counted_binarize(g):
        calls["binarize"] += 1
        return binarize(g)

    def counted_match(num_vertices, edges, start=None):
        calls["match"] += 1
        return match(num_vertices, edges, start)

    def counted_subgraph(self, edge_ids):
        calls["subgraph"] += 1
        return subgraph(self, edge_ids)

    monkeypatch.setattr(simple_paths, "binarize_labels", counted_binarize)
    monkeypatch.setattr(simple_paths, "perfect_matching_mate", counted_match)
    monkeypatch.setattr(FlagLabeledGraph, "subgraph", counted_subgraph)
    answers = [nonrepetitive_simple_path(g, p, q) for p, q in pairs]
    # The one copy is the loopless part the preparation binarizes.  Pairs
    # with the isolated e lie in two components and ask no matching.  Of
    # the 12 others, 4 stop after their first instance and 8 ask all four.
    assert [asked[i] for i, pair in enumerate(pairs) if "e" in pair] == [0] * 8
    assert calls == {"binarize": 1, "match": sum(asked), "subgraph": 1}
    assert sum(asked) == 36
    assert all(answer is None for pair, answer in zip(pairs, answers) if "e" in pair)
    assert nonrepetitive_simple_path(g, "a", "a") == []
    assert calls["binarize"] == 1
    # Cycles ask the same preparation.  The peel cuts the loop and d's two
    # edges, both labeled 1 at d.  Of the four left, edge 0's witness is its
    # parallel edge 6 and edge 1's covers edges 0 and 4, so two ask a
    # matching.
    before = dict(calls)
    assert simple_paths._peeled(g) == [True, True, False, False, True, False, True]
    assert simple_cycle_edges(g) == {0, 1, 4, 6}
    assert calls == {**before, "match": before["match"] + 2}
    # An equal graph and a subgraph with every edge are other objects: each
    # prepares its own, and answers as ``g`` does.
    twin = FlagLabeledGraph(False, edges, vertices=["e"])
    full, _ = g.subgraph(range(g.num_edges))
    assert twin == g and full == g
    for other, prepared in ((twin, 2), (full, 3)):
        assert [nonrepetitive_simple_path(other, p, q) for p, q in pairs] == answers
        assert calls["binarize"] == prepared
    # The preparation lives on the graph and goes with it.
    base = weakref.ref(vars(g)["_simple_path_base"])
    del g
    gc.collect()
    assert base() is None


def test_walk_distance_stops_each_query_at_the_first_shortest_witness(monkeypatch):
    """On random mixed graphs, ``_walk_distance`` is the length of the
    paper's expansion's shortest walk over the loopless edges (None when
    there is none), and every query asks exactly the matchings that
    ``_matchings_asked`` derives from the per-instance reference witnesses."""
    asked = [0]
    match = simple_paths.perfect_matching_mate

    def counted_match(num_vertices, edges, start=None):
        asked[0] += 1
        return match(num_vertices, edges, start)

    monkeypatch.setattr(simple_paths, "perfect_matching_mate", counted_match)
    rng = Random(2323)
    kinds = ("stop_early", "unmet", "no_walk", "loops", "flags", "parallel", "isolated")
    seen = dict.fromkeys(kinds, 0)
    for _ in range(1000):
        g = _mixed_graph(rng, max_vertices=6)
        seen["loops"] += g.has_self_loops()
        seen["flags"] += not g.is_edge_labeled()
        ends = {frozenset(g.edges[e][:2]) for e in range(g.num_edges)}
        seen["parallel"] += len(ends) < g.num_edges
        seen["isolated"] += any(g.degree(v) == 0 for v in range(g.num_vertices))
        components = simple_paths._prepared(g)._components
        for p, q in permutations(g.vertex_names, 2):
            pid, qid = g.vertex_id(p), g.vertex_id(q)
            bound = oracles.loopless_walk_distance(g, p, q)
            assert simple_paths._walk_distance(g, pid, qid) == bound
            asked[0] = 0
            found = nonrepetitive_simple_path(g, p, q)
            assert asked[0] == _matchings_asked(g, p, q)
            seen["stop_early"] += 0 < asked[0] < 4
            seen["unmet"] += found is not None and len(found) > bound
            seen["no_walk"] += bound is None and components[2 * pid] == components[2 * qid]
    assert min(seen.values()) >= 20, seen


def test_simple_path_query_of_2000_edges_takes_a_fraction_of_a_second():
    """One query, its graph's preparation included, on 2,000 random
    3-labeled edges between distinct vertices of 500.  Four matchings whose
    searches each reset and relabeled all nodes took about 1.9 s on a 2-core
    host under CPython 3.11; stopping at the walk distance, with searches
    that cost what they touch, takes about 0.1 s there."""
    rng = Random(1)
    edges = [(*rng.sample(range(500), 2), rng.randrange(3)) for _ in range(2000)]
    g = FlagLabeledGraph(False, edges, vertices=range(500))
    p, q = rng.sample(range(500), 2)
    started = time.perf_counter()
    found = nonrepetitive_simple_path(g, p, q)
    elapsed = time.perf_counter() - started
    assert len(found) == 186 and is_simple_nonrep_path(g, found, p, q)
    assert elapsed < 0.5, f"a simple-path query took {elapsed:.2f}s at 2,000 edges"


def test_answers_do_not_depend_on_earlier_queries():
    rng = Random(4096)
    for _ in range(40):
        g = _mixed_graph(rng)
        names = [g.vertex_name(v) for v in range(g.num_vertices)]
        pairs = [(p, q) for p in names for q in names]
        rng.shuffle(pairs)
        edges = [(*g.endpoints(e), *g.edge_labels(e)) for e in range(g.num_edges)]
        cycles = simple_cycle_edges(g)
        for p, q in pairs:
            fresh = FlagLabeledGraph(False, edges, vertices=names)
            assert nonrepetitive_simple_path(g, p, q) == nonrepetitive_simple_path(fresh, p, q)
        assert simple_cycle_edges(g) == cycles


# -- simple cycles -----------------------------------------------------------------


def test_alternating_square_cycle():
    g = FlagLabeledGraph(
        False,
        [("a", "b", 0), ("b", "c", 1), ("c", "d", 0), ("d", "a", 1)],
    )
    assert simple_cycle_edges(g) == {0, 1, 2, 3}


def test_triangle_with_repetition_has_no_simple_cycle():
    g = FlagLabeledGraph(False, [("a", "b", 0), ("b", "c", 1), ("c", "a", 0)])
    assert simple_cycle_edges(g) == set()


def test_parallel_edges_make_two_cycles():
    g = FlagLabeledGraph(False, [("a", "b", 0), ("a", "b", 1)])
    assert simple_cycle_edges(g) == {0, 1}
    same = FlagLabeledGraph(False, [("a", "b", 0), ("a", "b", 0)])
    assert simple_cycle_edges(same) == set()


def test_cycle_edges_match_enumeration():
    rng = Random(31415)
    for _ in range(100):
        g = random_flag_graph(rng, directed=False, max_vertices=7)
        want = set()
        for cycle in oracle_enumerate(g, "cycles"):
            want |= cycle
        assert simple_cycle_edges(g) == want


def test_cycle_edges_of_800_edges_take_seconds_not_minutes():
    """800 random 3-labeled edges between distinct vertices of 200.  A full
    matching per edge took about 100 s on a 2-core host under CPython 3.11;
    one search per surviving edge not yet covered takes about 0.7 s there."""
    rng = Random(1)
    edges = [(*rng.sample(range(200), 2), rng.randrange(3)) for _ in range(800)]
    g = FlagLabeledGraph(False, edges, vertices=range(200))
    started = time.perf_counter()
    found = simple_cycle_edges(g)
    elapsed = time.perf_counter() - started
    assert len(found) == 797
    assert elapsed < 10.0, f"simple_cycle_edges took {elapsed:.2f}s at 800 edges"


def test_peeling_tree_false():
    g = FlagLabeledGraph(False, [("a", "b", 0), ("b", "c", 1), ("b", "d", 0)])
    assert not has_nonrepetitive_simple_cycle(g)


def test_peeling_alternating_cycle_true():
    g = FlagLabeledGraph(
        False, [("a", "b", 0), ("b", "c", 1), ("c", "d", 0), ("d", "a", 1)]
    )
    assert has_nonrepetitive_simple_cycle(g)


def test_peeling_rejects_nonbinary():
    g = FlagLabeledGraph(False, [("a", "b", 7)])
    with pytest.raises(ValueError):
        has_nonrepetitive_simple_cycle(g)


def test_peeling_agrees_with_cycle_edges():
    rng = Random(9000)
    for _ in range(120):
        g = random_flag_graph(rng, directed=False, max_vertices=7, max_labels=2)
        binary = FlagLabeledGraph(
            False,
            [
                (g.endpoints(e)[0], g.endpoints(e)[1], int(g.edge_labels(e)[0][1]) % 2)
                for e in range(g.num_edges)
            ],
            vertices=[g.vertex_name(i) for i in range(g.num_vertices)],
        )
        assert has_nonrepetitive_simple_cycle(binary) == bool(
            simple_cycle_edges(binary)
        )


def test_peeling_works_per_block():
    """A vertex with both labels only across two blocks lies on no simple
    nonrepetitive cycle; a peeling that counts labels over the whole graph
    keeps it, and answers True."""
    shared = FlagLabeledGraph(
        False,
        [("z", "a", 0), ("a", "b", 1), ("b", "z", 0), ("z", "c", 1), ("c", "d", 0), ("d", "z", 1)],
    )
    knotted = FlagLabeledGraph(
        False, [(4, 2, 1), (0, 4, 0), (2, 3, 0), (4, 0, 0), (0, 1, 1), (3, 4, 1), (1, 4, 0), (0, 1, 1)]
    )
    for g in (shared, knotted):
        assert simple_cycle_edges(g) == set()
        assert oracle_enumerate(g, "cycles") == set()
        assert has_nonrepetitive_simple_cycle(g) is False
        assert oracles.has_nonrepetitive_simple_cycle(g) is True


def test_peeling_equals_cycle_edges_on_random_binary_graphs():
    """On 20,160 random 0/1-labeled multigraphs of 2..8 vertices, the peeling
    answers True exactly when ``simple_cycle_edges`` finds an edge."""
    rng = Random(1)
    found = 0
    for n in range(2, 9):
        for draws in range(1, 13):
            for _ in range(240):
                edges = [(rng.randrange(n), rng.randrange(n), rng.randrange(2)) for _ in range(draws)]
                g = FlagLabeledGraph(False, [e for e in edges if e[0] != e[1]], vertices=range(n))
                want = bool(simple_cycle_edges(g))
                assert has_nonrepetitive_simple_cycle(g) == want, g.edges
                found += want
    assert 5000 < found < 15000, found


def _random_binary_graph(rng: Random) -> FlagLabeledGraph:
    """A small 0/1-labeled multigraph with loops, parallel edges, flag edges
    whose ends differ, and the tokens 0, 1, "0" and "1" as labels."""
    n = rng.randint(1, 9)
    tokens = (0, 1) if rng.random() < 0.7 else (0, 1, "0", "1")
    edges: list[tuple] = []
    for _ in range(rng.randint(0, 16)):
        if edges and rng.random() < 0.15:
            edges.append(rng.choice(edges))
            continue
        u = rng.randrange(n)
        v = u if rng.random() < 0.1 else rng.randrange(n)
        if rng.random() < 0.2:
            edges.append((u, v, rng.choice(tokens), rng.choice(tokens)))
        else:
            edges.append((u, v, rng.choice(tokens)))
    return FlagLabeledGraph(False, edges, vertices=rng.sample(range(n), n))


def test_peeling_equals_the_rescanning_reference():
    rng = Random(27182)
    found = 0
    for _ in range(3000):
        g = _random_binary_graph(rng)
        want = oracles.has_nonrepetitive_simple_cycle(g)
        assert has_nonrepetitive_simple_cycle(g) == want
        found += want
    assert 300 < found < 2700


def _middle_out_chain(n: int) -> FlagLabeledGraph:
    """n parallel-edge pairs in a path, pair i labeled i mod 2, with vertex
    ids numbered from the middle of the path out to its ends."""
    edges = [(i, i + 1, i % 2) for i in range(n) for _ in range(2)]
    return FlagLabeledGraph(False, edges, vertices=sorted(range(n + 1), key=lambda i: abs(2 * i - n)))


def test_peeling_a_middle_out_chain_is_linear():
    """A rescan of every vertex per round peels one vertex per chain end;
    the worklist peels the whole chain in one round."""
    assert has_nonrepetitive_simple_cycle(_middle_out_chain(60)) is False
    assert oracles.has_nonrepetitive_simple_cycle(_middle_out_chain(60)) is False
    g = _middle_out_chain(4000)
    started = time.perf_counter()
    assert has_nonrepetitive_simple_cycle(g) is False
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"peeling the 4000-pair chain took {elapsed:.2f}s"


# -- enumeration self-checks --------------------------------------------------------


def test_enumerate_single_edge_path():
    g = FlagLabeledGraph(False, [("p", "q", "1")])
    assert oracle_enumerate(g, "paths", "p", "q") == [(0,)]


def test_enumerate_triangle_cycle_once():
    g = FlagLabeledGraph(False, [("a", "b", "1"), ("b", "c", "2"), ("c", "a", "3")])
    assert oracle_enumerate(g, "cycles") == {frozenset({0, 1, 2})}


def test_enumerate_bound():
    g = FlagLabeledGraph(False, [(f"v{i}", f"v{i+1}", "1") for i in range(13)])
    with pytest.raises(ValueError):
        oracle_enumerate(g, "cycles")
    assert oracle_enumerate(g, "cycles", bound=20) == set()
