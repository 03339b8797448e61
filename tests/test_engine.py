from __future__ import annotations

import sys
from random import Random

import numpy as np
import pytest

from nonrep import FlagLabeledGraph, _kernels
from nonrep.engine import (
    LabelSwitchDigraph,
    ReachedEdge,
    cyclic_edges,
    no_reversal_view,
    reachable_edges,
    shortest_nonrepetitive_path,
)
from nonrep.gadget import build_switch_gadget
import oracles
from oracles import (
    oracle_cyclic_edges,
    oracle_reachable,
    oracle_shortest_length,
    random_flag_graph,
)


def _reach_set(edges):
    return {(e.edge_id, e.tail, e.head, e.far_label) for e in edges}


def _expansion(g: FlagLabeledGraph, dense: bool) -> LabelSwitchDigraph:
    """The expansion of ``g``, on the quadratic gadget when ``dense``."""
    return oracles.dense_expansion(g) if dense else LabelSwitchDigraph(g)


def test_triangle_distinct_labels_all_cyclic():
    g = FlagLabeledGraph(True, [("a", "b", "L1"), ("b", "c", "L2"), ("c", "a", "L3")])
    assert cyclic_edges(g) == {0, 1, 2}


def test_triangle_with_repeat_has_no_cycles():
    g = FlagLabeledGraph(True, [("a", "b", "L1"), ("b", "c", "L1"), ("c", "a", "L2")])
    assert cyclic_edges(g) == set()


def test_single_edge_acyclic():
    g = FlagLabeledGraph(True, [("a", "b", "L1")])
    assert cyclic_edges(g) == set()


def test_reach_follows_label_switches():
    g = FlagLabeledGraph(True, [("a", "b", "1"), ("b", "c", "2")])
    assert {e.edge_id for e in reachable_edges(g, "a", "1")} == {0, 1}


def test_reach_blocked_by_repetition():
    g = FlagLabeledGraph(True, [("a", "b", "1"), ("b", "c", "1")])
    assert {e.edge_id for e in reachable_edges(g, "a", "1")} == {0}


def test_reach_missing_start_flag_is_empty():
    g = FlagLabeledGraph(True, [("a", "b", "1")])
    assert reachable_edges(g, "a", "9") == []
    assert reachable_edges(g, "b", "1") == []


def test_reach_reports_far_labels():
    g = FlagLabeledGraph(True, [("a", "b", "1", "7")])
    (hit,) = reachable_edges(g, "a", "1")
    assert (hit.tail, hit.head, hit.far_label) == ("a", "b", "7")


def test_shortest_straight_line():
    g = FlagLabeledGraph(True, [("a", "b", "1"), ("b", "c", "2")])
    path = shortest_nonrepetitive_path(g, "a", "c")
    assert [(e.tail, e.head) for e in path] == [("a", "b"), ("b", "c")]


def test_shortest_takes_detour_around_repetition():
    g = FlagLabeledGraph(
        True, [("a", "b", "1"), ("b", "c", "1"), ("a", "d", "1"), ("d", "c", "2")]
    )
    path = shortest_nonrepetitive_path(g, "a", "c")
    assert [(e.tail, e.head) for e in path] == [("a", "d"), ("d", "c")]
    assert len(path) == 2


def test_shortest_same_vertex_is_empty():
    g = FlagLabeledGraph(True, [("a", "b", "1")])
    assert shortest_nonrepetitive_path(g, "a", "a") == []


def test_shortest_absent():
    g = FlagLabeledGraph(True, [("a", "b", "1"), ("c", "a", "1")])
    assert shortest_nonrepetitive_path(g, "b", "c") is None


def test_engine_rejects_self_loops():
    g = FlagLabeledGraph(False, [("a", "a", "x")])
    with pytest.raises(ValueError):
        LabelSwitchDigraph(g)


def test_no_reversal_view_single_edge():
    g = FlagLabeledGraph(False, [("a", "b", "x")])
    assert cyclic_edges(no_reversal_view(g)) == set()


def test_no_reversal_view_triangle():
    g = FlagLabeledGraph(False, [("a", "b", "x"), ("b", "c", "x"), ("c", "a", "x")])
    assert cyclic_edges(no_reversal_view(g)) == {0, 1, 2}


def test_no_reversal_view_requires_undirected():
    g = FlagLabeledGraph(True, [("a", "b", "x")])
    with pytest.raises(ValueError):
        no_reversal_view(g)


def _all_start_flags(g):
    seen = set()
    for vid in range(g.num_vertices):
        for lid in g.vertex_label_ids(vid):
            seen.add((g.vertex_name(vid), g.label_name(lid)))
    return sorted(seen)


@pytest.mark.parametrize("flag_labeled", [False, True])
def test_random_corpus_matches_state_oracle(flag_labeled):
    rng = Random(20240 + flag_labeled)
    for _ in range(150):
        g = random_flag_graph(rng, flag_labeled=flag_labeled)
        expansion = LabelSwitchDigraph(g)
        dense = oracles.dense_expansion(g)
        expected_cyclic = oracle_cyclic_edges(g)
        assert expansion.cycle_edge_ids() == expected_cyclic
        assert dense.cycle_edge_ids() == expected_cyclic
        for vertex, label in _all_start_flags(g):
            got = _reach_set(expansion.reachable_from(vertex, label).edges)
            assert got == oracle_reachable(g, vertex, label)
            assert got == _reach_set(dense.reachable_from(vertex, label).edges)


def test_random_corpus_shortest_lengths():
    rng = Random(77)
    for _ in range(120):
        g = random_flag_graph(rng)
        expansion = LabelSwitchDigraph(g)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                src, dst = g.vertex_name(s), g.vertex_name(t)
                path = expansion.shortest_path(src, dst)
                want = oracle_shortest_length(g, src, dst)
                if want is None:
                    assert path is None
                else:
                    assert path is not None and len(path) == want


def test_reach_walk_witnesses_are_nonrepetitive():
    rng = Random(5150)
    for _ in range(60):
        g = random_flag_graph(rng, flag_labeled=True)
        expansion = LabelSwitchDigraph(g)
        for vertex, label in _all_start_flags(g):
            reach = expansion.reachable_from(vertex, label)
            for hit in reach.edges:
                walk = reach.walk_to(hit)
                assert walk[-1] == hit
                assert walk[0].tail == vertex
                current = vertex
                prev_far = None
                for step in walk:
                    assert step.tail == current
                    u, v = g.endpoints(step.edge_id)
                    near = (
                        g.edge_labels(step.edge_id)[0]
                        if step.tail == u
                        else g.edge_labels(step.edge_id)[1]
                    )
                    if prev_far is None:
                        assert near == label
                    else:
                        assert near != prev_far
                    prev_far = step.far_label
                    current = step.head


def test_walk_to_refuses_edges_the_reach_never_found():
    g = FlagLabeledGraph(False, [("a", "b", 1), ("b", "c", 1), ("c", "d", 2)])
    reach = LabelSwitchDigraph(g).reachable_from("a", 1)
    assert reach.edges == [ReachedEdge(0, "a", "b", 1)]
    for missing in (
        ReachedEdge(2, "c", "d", 2),  # c is never entered: b-c repeats label 1
        ReachedEdge(1, "b", "c", 1),
        ReachedEdge(0, "b", "a", 1),  # the start's own edge, walked backwards
        ReachedEdge(0, "x", "b", 1),  # tail is not an endpoint of edge 0
    ):
        with pytest.raises(ValueError, match="not reached"):
            reach.walk_to(missing)
    directed = FlagLabeledGraph(True, [("a", "b", 1), ("b", "c", 2)])
    reach = LabelSwitchDigraph(directed).reachable_from("a", 1)
    assert len(reach.walk_to(ReachedEdge(1, "b", "c", 2))) == 2
    for missing in (
        ReachedEdge(1, "c", "b", 1),
        ReachedEdge(1, "b", "a", 2),  # wrong head
        ReachedEdge(1, "b", "c", 7),  # wrong far label
        ReachedEdge(-1, "b", "c", 2),  # edge ids run 0..m-1
        ReachedEdge(2, "b", "c", 2),
    ):
        with pytest.raises(ValueError, match="not reached"):
            reach.walk_to(missing)

    # Every traversal of a random graph either is in the reach and has a
    # walk, or is refused.
    rng = Random(77)
    for _ in range(30):
        g = random_flag_graph(rng, flag_labeled=True)
        expansion = LabelSwitchDigraph(g)
        for vertex, label in _all_start_flags(g):
            reach = expansion.reachable_from(vertex, label)
            for eid in range(g.num_edges):
                u, v = g.endpoints(eid)
                lu, lv = g.edge_labels(eid)
                for edge in (ReachedEdge(eid, u, v, lv), ReachedEdge(eid, v, u, lu)):
                    if edge in reach.edges:
                        assert reach.walk_to(edge)[-1] == edge
                    else:
                        with pytest.raises(ValueError, match="not reached"):
                            reach.walk_to(edge)


def test_size_linearity_on_corpus():
    rng = Random(13)
    for _ in range(120):
        g = random_flag_graph(rng, max_vertices=10, max_labels=4, flag_labeled=True)
        expansion = LabelSwitchDigraph(g)
        label_total = sum(
            len(g.vertex_label_ids(v)) for v in range(g.num_vertices)
        )
        n, m = g.num_vertices, g.num_edges
        assert expansion.num_nodes <= 4 * label_total + 6 * n
        assert expansion.num_arcs <= 6 * label_total + 4 * n + 2 * m


def test_cyclic_edges_are_self_reachable():
    # Every traversal on a closed walk must show up in the reach set started
    # from its own tail flag (the closed walk begins with that edge).
    rng = Random(99)
    for _ in range(60):
        g = random_flag_graph(rng)
        expansion = LabelSwitchDigraph(g)
        for hit in expansion.cycle_directions():
            u, v = g.endpoints(hit.edge_id)
            near = (
                g.edge_labels(hit.edge_id)[0]
                if hit.tail == u
                else g.edge_labels(hit.edge_id)[1]
            )
            reach = expansion.reachable_from(hit.tail, near)
            assert (hit.edge_id, hit.tail, hit.head, hit.far_label) in _reach_set(
                reach.edges
            )


def test_no_reversal_random_matches_oracle():
    rng = Random(31337)
    for _ in range(80):
        g = random_flag_graph(rng, directed=False)
        view = no_reversal_view(g)
        assert cyclic_edges(view) == oracle_cyclic_edges(view)


def _varied_graph(rng: Random, trial: int) -> FlagLabeledGraph:
    """Directed or undirected, edge or flag labels, parallel edges, isolated
    vertices, and now and then a hub vertex meeting up to 70 labels."""
    if trial == 0:
        return FlagLabeledGraph(False, [])
    if trial == 1:
        return FlagLabeledGraph(True, [], vertices=["a", "b"])
    directed = trial % 2 == 0
    flag_labeled = trial % 4 >= 2
    n = rng.randint(2, 12)
    labels = [f"L{i}" for i in range(rng.choice((1, 2, 3, 8, 75)))]

    def edge(u, v, label):
        far = rng.choice(labels) if flag_labeled else label
        return (f"v{u}", f"v{v}", label, far)

    edges = []
    if len(labels) == 75:
        for label in rng.sample(labels, rng.randint(1, 70)):
            other = rng.randrange(1, n)
            edges.append(edge(0, other, label) if rng.random() < 0.5 else edge(other, 0, label))
    for _ in range(rng.randint(1, 3 * n)):
        if edges and rng.random() < 0.15:
            edges.append(rng.choice(edges))  # a parallel edge
            continue
        u, v = rng.sample(range(n), 2)
        edges.append(edge(u, v, rng.choice(labels)))
    rng.shuffle(edges)
    vertices = [f"v{i}" for i in range(n)] + [f"iso{i}" for i in range(rng.randint(0, 2))]
    rng.shuffle(vertices)
    return FlagLabeledGraph(directed, edges, vertices=vertices)


def test_expansion_equals_per_vertex_dict_builder():
    """The array-built expansion has the CSR, connector maps and answers of
    the per-vertex-dict builder it replaced, witnesses included."""
    rng = Random(4711)
    hubs = 0
    for trial in range(320):
        g = _varied_graph(rng, trial)
        hubs += any(len(g.vertex_label_ids(v)) > 20 for v in range(g.num_vertices))
        dense = trial % 10 == 5
        new = _expansion(g, dense)
        old = oracles.LabelSwitchDigraph(g, dense=dense)
        assert (new.num_nodes, new.num_arcs) == (old.num_nodes, old.num_arcs)
        got_of = {
            "indptr": new.indptr, "indices": new.indices,
            "conn_pos": oracles.connector_positions(new), "_tail_of_pos": oracles.csr_tails(new),
        }
        for name, got in got_of.items():
            want = getattr(old, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert (got == want).all(), name
        assert oracles.connector_arcs(new).tolist() == old.is_connector.astype(bool).tolist()
        assert new.scc.tolist() == old.scc.tolist()
        assert new.cycle_directions() == old.cycle_directions()
        names = [g.vertex_name(v) for v in range(g.num_vertices)]
        for vertex in names:
            assert new.cycle_transit_pairs(vertex) == old.cycle_transit_pairs(vertex)
        flags = _all_start_flags(g)
        starts = rng.sample(flags, min(len(flags), 6))
        if names:
            starts.append((names[0], "no such label"))
        for vertex, label in starts:
            got = new.reachable_from(vertex, label)
            want = old.reachable_from(vertex, label)
            assert got.edges == want.edges
            if want._parent is not None:
                # The reach computes its DFS parents only when forced.
                assert got._parent is None
                assert got._parents().tolist() == want._parent.tolist()
                for hit in want.edges:
                    assert got.walk_to(hit) == want.walk_to(hit)
        for _ in range(8 if names else 0):
            src, dst = rng.choice(names), rng.choice(names)
            assert new.shortest_path(src, dst) == old.shortest_path(src, dst)
    assert hubs >= 20


def test_slots_equal_unique_lexsort_reference():
    """The slots found by one stable sort have the ``vp_ptr``,
    ``slot_label`` and ``flag_slot`` of the ``np.unique`` and ``np.lexsort``
    assignment, on graphs with up to 64 flag labels whose first occurrence
    at a vertex is often not in label-id order, with no edges, and with
    isolated vertices."""
    rng = Random(2425)
    seen = dict(empty=0, isolated=0, reordered=0)
    for trial in range(400):
        n = rng.randint(0, 1) if trial % 20 == 0 else rng.randint(2, 40)
        labels = [f"L{i}" for i in range(rng.randint(1, 64))]
        rng.shuffle(labels)  # label ids follow first appearance, not the names
        edges = []
        for _ in range(0 if n < 2 else rng.randint(1, 150)):
            u, v = rng.sample(range(n), 2)
            near = rng.choice(labels)
            edges.append((u, v, near, rng.choice(labels) if trial % 2 else near))
        vertices = list(range(n + rng.randint(0, 3)))
        rng.shuffle(vertices)
        g = FlagLabeledGraph(trial % 3 == 0, edges, vertices=vertices)
        ex = LabelSwitchDigraph(g)
        wants = oracles.unique_lexsort_slots(g)
        for name, want in zip(("vp_ptr", "slot_label", "flag_slot"), wants):
            got = getattr(ex, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert (got == want).all(), name
        vp = ex.vp_ptr.tolist()
        seen["empty"] += not edges
        seen["isolated"] += any(vp[v] == vp[v + 1] for v in range(g.num_vertices)) and bool(edges)
        seen["reordered"] += any(
            (np.diff(ex.slot_label[vp[v] : vp[v + 1]]) < 0).any() for v in range(g.num_vertices)
        )
    assert min(seen.values()) >= 20, seen


def _entry_cost(ex: LabelSwitchDigraph) -> np.ndarray:
    """The node costs of ``shortest_path``'s 0/1 BFS: 1 on slot entry nodes."""
    cost = np.zeros(ex.num_nodes, dtype=bool)
    cost[ex.slot_entry] = True
    return cost


def _full_search_walk(ex: LabelSwitchDigraph, src, dst):
    """``shortest_path`` with its 0/1 BFS run until the deque is empty."""
    s, t = ex.graph.vertex_id(src), ex.graph.vertex_id(dst)
    if s == t:
        return []
    sources = np.sort(ex.slot_exit[ex._slots(s)])
    targets = np.sort(ex.slot_entry[ex._slots(t)])
    if not len(sources) or not len(targets):
        return None
    dist, parent = _kernels.bfs01(ex.indptr, ex.indices, _entry_cost(ex), sources)
    best = int(targets[np.argmin(dist[targets])])
    if dist[best] >= _kernels._UNREACHED:
        return None
    return ex._walk_to_node(parent, best)


def test_stopped_shortest_search_equals_the_full_search():
    """``shortest_path`` stops its 0/1 BFS before the first node at the
    nearest target's distance D pops; its walk equals the full search's for
    every (src, dst) pair, unreachable pairs and ties between targets
    included.  On random expansions the stopped search leaves every node
    nearer than D, and every target at D, with the full search's distance
    and parent.  Every other node holds D or stays unreached, so no node at
    D was expanded."""
    rng = Random(1818)
    unreachable = tied = 0
    for trial in range(160):
        g = _varied_graph(rng, trial)
        ex = LabelSwitchDigraph(g)
        names = [g.vertex_name(v) for v in range(g.num_vertices)]
        for src in names:
            for dst in names:
                want = _full_search_walk(ex, src, dst)
                assert ex.shortest_path(src, dst) == want
                unreachable += want is None
    for trial in range(240):
        g = random_flag_graph(
            rng, max_vertices=24, max_labels=4, directed=trial % 2 == 0,
            flag_labeled=trial % 4 >= 2, max_edges=60,
        )
        ex = LabelSwitchDigraph(g)
        unit, cost = oracles.connector_arcs(ex), _entry_cost(ex)
        for _ in range(6):
            s, t = rng.sample(range(g.num_vertices), 2)
            sources = np.sort(ex.slot_exit[ex._slots(s)])
            targets = np.sort(ex.slot_entry[ex._slots(t)])
            if not len(sources) or not len(targets):
                continue
            full = oracles.bfs01(ex.indptr, ex.indices, unit, sources)
            dist, parent = _kernels.bfs01(ex.indptr, ex.indices, cost, sources, targets)
            d = int(full[0][targets].min())
            tied += int((full[0][targets] == d).sum()) > 1 and d < _kernels._UNREACHED
            final = full[0] < d
            final[targets[full[0][targets] == d]] = True
            assert dist[final].tolist() == full[0][final].tolist()
            assert parent[final].tolist() == full[1][final].tolist()
            assert np.isin(dist[~final], (d, _kernels._UNREACHED)).all()
            src, dst = g.vertex_name(s), g.vertex_name(t)
            assert ex.shortest_path(src, dst) == _full_search_walk(ex, src, dst)
    assert unreachable >= 1000 and tied >= 100, (unreachable, tied)


def test_no_zero_cost_arc_enters_a_target():
    """``shortest_path`` costs a connector 1 by charging 1 for entering a
    slot entry node, its targets among them.  That is exact: no switch
    gadget arc enters an entry node, so an expansion arc enters one exactly
    when it is a connector, an arc out of a slot exit node."""
    for k in range(1, 65):
        gadget = build_switch_gadget(k)
        assert not {head for _, head in gadget.arcs} & set(gadget.entry), k
    rng = Random(1919)
    into_entries = 0
    for trial in range(200):
        g = random_flag_graph(
            rng, max_vertices=16, max_labels=3 if trial % 3 else 12,
            directed=trial % 2 == 0, flag_labeled=trial % 4 >= 2, max_edges=48,
        )
        ex = LabelSwitchDigraph(g)
        into = np.isin(ex.indices, ex.slot_entry)
        assert (oracles.connector_arcs(ex) == into).all()
        into_entries += int(into.sum())
    assert into_entries >= 2000, into_entries


def test_expansion_keeps_no_per_arc_array_but_indices():
    """Every array an expansion holds, also after every query has filled its
    memos, is as long as the edge, vertex, slot or node table it indexes; only
    ``indices`` is as long as the arc list.  Each connector leaves the exit
    node of its ``flag_slot`` slot, which is the node whose CSR row holds it,
    and enters the entry node of the other flag's slot.  Slot exit nodes
    increase with the slot, which ``_walk_to_node``'s search relies on."""
    rng = Random(2020)
    for trial in range(80):
        g = random_flag_graph(
            rng, max_vertices=24, max_labels=3 if trial % 3 else 12,
            directed=trial % 2 == 0, flag_labeled=trial % 4 >= 2, max_edges=80,
        )
        ex = LabelSwitchDigraph(g)
        names = [g.vertex_name(v) for v in range(g.num_vertices)]
        ex.cycle_mask()
        ex.cycle_transit_pairs(names[0])
        for vertex, label in _all_start_flags(g)[:3]:
            reach = ex.reachable_from(vertex, label)
            for hit in reach.edges[:2]:
                reach.walk_to(hit)
        ex.shortest_path(names[0], names[-1])
        m, slots = g.num_edges, len(ex.slot_label)
        assert {
            name: len(value) for name, value in vars(ex).items() if isinstance(value, np.ndarray)
        } == {
            "ends": m, "vp_ptr": g.num_vertices + 1, "slot_label": slots, "slot_entry": slots,
            "slot_exit": slots, "indptr": ex.num_nodes + 1, "indices": ex.num_arcs,
            "flag_slot": m, "_scc": ex.num_nodes,
        }
        k = ex._k
        pos = oracles.connector_positions(ex)[:, :k]
        assert (ex._conn_tails() == oracles.csr_tails(ex)[pos]).all()
        assert (ex.slot_entry[ex.flag_slot[:, ::-1][:, :k]] == ex.indices[pos]).all()
        assert (np.diff(ex.slot_exit) > 0).all()


def assert_arrival_queries_equal_edge_scan(expansion, vertex, label):
    """``arrival`` and ``arrivals`` of a reach, asked before its ``.edges``
    are built, against a scan of the ``.edges`` of the same reach.
    ``arrival`` is asked at every flag of the graph and at one missing label
    per vertex."""
    graph = expansion.graph
    reach = expansion.reachable_from(vertex, label)
    asked = [
        (graph.vertex_name(v), x)
        for v in range(graph.num_vertices)
        for x in [graph.label_name(lid) for lid in graph.vertex_label_ids(v)] + ["no such label"]
    ]
    arrivals = {key: reach.traversal(*pair) for key, pair in reach.arrivals().items()}
    got = {key: reach.arrival(*key) for key in asked}
    assert reach._edges is None
    first: dict = {}
    for hit in reach.edges:
        first.setdefault((hit.head, hit.far_label), hit)
    assert arrivals == first
    assert got == {key: first.get(key) for key in asked}
    # An unknown vertex is an error, as it is for ``reachable_from``.
    with pytest.raises(KeyError):
        expansion.reachable_from("no such vertex", label)
    with pytest.raises(KeyError):
        reach.arrival("no such vertex", label)


def test_arrival_queries_equal_a_scan_of_the_edges():
    rng = Random(2718)
    for trial in range(160):
        g = _varied_graph(rng, trial)
        expansion = _expansion(g, trial % 10 == 5)
        flags = _all_start_flags(g)
        for vertex, label in rng.sample(flags, min(len(flags), 4)):
            assert_arrival_queries_equal_edge_scan(expansion, vertex, label)
        if g.num_vertices:
            assert_arrival_queries_equal_edge_scan(expansion, g.vertex_name(0), "no such label")


def _walk_answers(g: FlagLabeledGraph, dense: bool, starts) -> dict:
    """Every answer of a fresh expansion of ``g`` that the frontier sweeps
    could change: cycle traversals and transit pairs, and per start the
    reached traversals, their witness walks and the traversals refused."""
    expansion = _expansion(g, dense)
    names = [g.vertex_name(v) for v in range(g.num_vertices)]
    every = [
        expansion._oriented(eid, d)
        for eid in range(g.num_edges)
        for d in range(1 if g.directed else 2)
    ]
    answers = {
        "cycles": expansion.cycle_directions(),
        "cycle ids": expansion.cycle_edge_ids(),
        "transit": [expansion.cycle_transit_pairs(v) for v in names],
    }
    for vertex, label in starts:
        reach = expansion.reachable_from(vertex, label)
        walks = []
        for edge in every:
            try:
                walks.append(reach.walk_to(edge))
            except ValueError:
                walks.append(None)
        answers[vertex, label] = (reach.edges, len(reach), reach.edge_ids(), walks)
    return answers


@pytest.mark.parametrize("thin_rounds", [64, 0])
def test_frontier_path_equals_scan_path(monkeypatch, thin_rounds):
    """With ``FRONTIER_MIN_NODES`` lowered to 1, every expansion takes the
    frontier sweeps, and its cycle traversals, reaches and witness walks
    equal those of the scans.  A reach without a start flag still refuses
    every walk."""
    rng = Random(1618)
    for trial in range(120):
        g = _varied_graph(rng, trial)
        flags = _all_start_flags(g)
        starts = rng.sample(flags, min(len(flags), 3))
        if g.num_vertices:
            starts.append((g.vertex_name(0), "no such label"))
        dense = trial % 10 == 5
        want = _walk_answers(g, dense, starts)
        monkeypatch.setattr(_kernels, "FRONTIER_MIN_NODES", 1)
        monkeypatch.setattr(_kernels, "_THIN_ROUNDS", thin_rounds)
        assert _walk_answers(g, dense, starts) == want
        monkeypatch.undo()
    monkeypatch.setattr(_kernels, "FRONTIER_MIN_NODES", 1)
    empty = LabelSwitchDigraph(FlagLabeledGraph(False, [("a", "b", "x")])).reachable_from("a", "y")
    assert (len(empty), empty.edge_ids(), empty.edges) == (0, set(), [])
    with pytest.raises(ValueError, match="empty reach"):
        empty.walk_to(ReachedEdge(0, "a", "b", "x"))


@pytest.mark.parametrize("frontier_min_nodes", [None, 1])
def test_mask_answers_equal_the_object_answers(monkeypatch, frontier_min_nodes):
    """``cycle_edge_ids``, ``len``, ``edge_ids`` and ``traversal_rows`` read
    the hit masks; they equal what the ``ReachedEdge`` lists give, and a
    reach makes no list to answer them.  The lists, made from the rows, equal
    the traversals ``_oriented`` builds for the hit (edge, direction)s."""
    if frontier_min_nodes is not None:
        monkeypatch.setattr(_kernels, "FRONTIER_MIN_NODES", frontier_min_nodes)

    def oriented(expansion, mask):
        eids, dirs = mask.nonzero()
        return [expansion._oriented(e, d) for e, d in zip(eids.tolist(), dirs.tolist())]

    rng = Random(1414)
    for trial in range(160):
        g = _varied_graph(rng, trial)
        expansion = _expansion(g, trial % 10 == 5)
        cycles = expansion.cycle_directions()
        assert cycles == oriented(expansion, expansion.cycle_mask())
        assert expansion.cycle_edge_ids() == {e.edge_id for e in cycles}
        assert list(expansion.traversal_rows(expansion.cycle_mask())) == [tuple(e) for e in cycles]
        flags = _all_start_flags(g)
        starts = rng.sample(flags, min(len(flags), 4))
        if g.num_vertices:
            starts.append((g.vertex_name(0), "no such label"))
        for vertex, label in starts:
            reach = expansion.reachable_from(vertex, label)
            size, ids = len(reach), reach.edge_ids()
            assert reach._edges is None
            assert size == len(reach.edges)
            assert ids == {e.edge_id for e in reach.edges}
            assert list(expansion.traversal_rows(reach.mask)) == [tuple(e) for e in reach.edges]
            assert reach.edges == oriented(expansion, reach.mask)


def test_large_expansions_answer_reaches_by_sweep_not_by_condensation():
    """At or above ``FRONTIER_MIN_NODES`` nodes a reach is one ``sweep_csr``:
    the condensation memo is never built, and each reach's hits are the
    connectors whose tails the sweep marks, the hits of one DFS too."""
    rng = Random(90210)
    edges = []
    for _ in range(1500):
        u, v = rng.sample(range(300), 2)
        edges.append((u, v, rng.randrange(8)))
    expansion = LabelSwitchDigraph(FlagLabeledGraph(False, edges))
    assert expansion.num_nodes >= _kernels.FRONTIER_MIN_NODES
    for vertex, label in rng.sample(_all_start_flags(expansion.graph), 12):
        reach = expansion.reachable_from(vertex, label)
        start = int(reach._start)
        seen = _kernels.sweep_csr(expansion.indptr, expansion.indices, (start,))
        pos = oracles.connector_positions(expansion)
        want = seen[oracles.csr_tails(expansion)[pos]]
        assert reach.mask.tolist() == want.tolist()
        assert len(reach) == int(want.sum()) > 0
        dfs = oracles.dfs_reachable_from(expansion, vertex, label)
        assert reach.mask.tolist() == dfs.mask.tolist()
    assert expansion._reach_sets is None


def test_condensation_of_a_long_chain_is_walked_without_recursion():
    """A directed path whose flag labels alternate: every node of its
    expansion is a strong component of its own, in one chain longer than the
    recursion limit, and the reach from its first vertex takes every edge."""
    n = 999
    g = FlagLabeledGraph(True, [(i, i + 1, i % 2) for i in range(n - 1)])
    expansion = LabelSwitchDigraph(g)
    assert expansion.num_nodes < _kernels.FRONTIER_MIN_NODES
    assert len(set(expansion.scc.tolist())) == expansion.num_nodes > sys.getrecursionlimit()
    reach = expansion.reachable_from(0, 0)
    assert expansion._reach_sets is not None
    assert len(reach) == g.num_edges
    middle = expansion.reachable_from(n // 2, (n // 2) % 2)
    assert middle.edge_ids() == set(range(n // 2, n - 1))
    assert middle.walk_to(middle.traversal(n - 2, 0))[0] == middle.traversal(n // 2, 0)
