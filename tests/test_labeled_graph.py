from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonrep import (
    FlagLabeledGraph,
    GraphParseError,
    parse_labeled_graph,
    serialize_labeled_graph,
)
from oracles import OldFlagLabeledGraph


def test_parse_single_directed_edge():
    g = parse_labeled_graph("graph directed\nedge a b L1\n")
    assert g.directed
    assert g.num_vertices == 2
    assert g.num_edges == 1
    assert g.endpoints(0) == ("a", "b")
    assert g.edge_labels(0) == ("L1", "L1")


def test_parse_allows_parallel_edges():
    g = parse_labeled_graph("graph undirected\nedge a b 0\nedge b a 0\n")
    assert g.num_vertices == 2
    assert g.num_edges == 2


def test_parse_rejects_unknown_directedness():
    with pytest.raises(GraphParseError) as err:
        parse_labeled_graph("graph sideways\n")
    assert err.value.line == 1


def test_parse_rejects_duplicate_header():
    with pytest.raises(GraphParseError) as err:
        parse_labeled_graph("graph directed\ngraph directed\n")
    assert err.value.line == 2


def test_parse_reports_malformed_line():
    with pytest.raises(GraphParseError) as err:
        parse_labeled_graph("graph directed\n# fine\nedge a b\n")
    assert err.value.line == 3


def test_parse_requires_header_before_edges():
    with pytest.raises(GraphParseError):
        parse_labeled_graph("edge a b L\n")
    with pytest.raises(GraphParseError):
        parse_labeled_graph("# only a comment\n")


def test_parse_flagedge_and_comments():
    text = "# preamble\ngraph undirected  # trailing comment\nflagedge a b x y\n"
    g = parse_labeled_graph(text)
    assert not g.directed
    assert g.edge_labels(0) == ("x", "y")
    assert not g.is_edge_labeled()


def test_parse_accepts_self_loops():
    g = parse_labeled_graph("graph undirected\nedge a a z\n")
    assert g.has_self_loops()


_token = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=3)


@st.composite
def _graphs(draw):
    directed = draw(st.booleans())
    vertices = draw(st.lists(_token, min_size=1, max_size=6, unique=True))
    edge = st.one_of(
        st.tuples(st.sampled_from(vertices), st.sampled_from(vertices), _token),
        st.tuples(
            st.sampled_from(vertices), st.sampled_from(vertices), _token, _token
        ),
    )
    return FlagLabeledGraph(directed, draw(st.lists(edge, max_size=8)))


@settings(max_examples=80, deadline=None)
@given(_graphs())
def test_serialize_parse_round_trip(g):
    assert parse_labeled_graph(serialize_labeled_graph(g)) == g


def test_group_flags_star():
    g = FlagLabeledGraph(
        False, [("c", "a", "1"), ("c", "b", "1"), ("c", "d", "2")]
    )
    assert g.group_flags_by_label("c") == [("1", [0, 1]), ("2", [2])]


def test_group_flags_isolated_vertex():
    g = FlagLabeledGraph(False, [], vertices=["x"])
    assert g.group_flags_by_label("x") == []
    with pytest.raises(KeyError):
        g.group_flags_by_label("missing")


def test_group_flags_ignores_direction():
    g = FlagLabeledGraph(True, [("a", "v", "1"), ("v", "b", "1")])
    assert g.group_flags_by_label("v") == [("1", [0, 1])]


@settings(max_examples=80, deadline=None)
@given(_graphs())
def test_groups_partition_incident_flags(g):
    for vid in range(g.num_vertices):
        groups = g.group_flags_by_label(g.vertex_name(vid))
        total = sum(len(eids) for _, eids in groups)
        assert total == g.degree(vid)
        flat = [eid for _, eids in groups for eid in eids]
        incident = [eid for eid, _ in g.incident(vid)]
        assert sorted(flat) == sorted(incident)


def test_loop_counts_twice_in_grouping():
    g = FlagLabeledGraph(False, [("a", "a", "x", "y"), ("a", "b", "x")])
    groups = dict(g.group_flags_by_label("a"))
    assert groups == {"x": [0, 1], "y": [0]}
    assert g.degree(g.vertex_id("a")) == 3


def test_subgraph_preserves_vertices_and_maps_ids():
    g = FlagLabeledGraph(False, [("a", "b", "1"), ("b", "c", "2"), ("c", "a", "3")])
    sub, old = g.subgraph([2, 0])
    assert old == [0, 2]
    assert sub.num_vertices == 3
    assert sub.endpoints(1) == ("c", "a")


# Tokens of several types, including equal keys of different types (1, 1.0
# and True), which keep the first one interned.
_mixed_token = st.sampled_from(
    [0, 1, 2, 1.0, True, False, None, "0", "1", "a", "b", ("a", 1), (0,), ("c", ("a", 1))]
)


@st.composite
def _graph_specs(draw):
    edge = st.one_of(
        st.tuples(_mixed_token, _mixed_token, _mixed_token),
        st.tuples(_mixed_token, _mixed_token, _mixed_token, _mixed_token),
    )
    return (
        draw(st.booleans()),
        draw(st.lists(edge, max_size=12)),
        draw(st.lists(_mixed_token, max_size=6)),
    )


@settings(max_examples=300, deadline=None)
@given(_graph_specs())
def test_constructor_equals_method_interning_reference(spec):
    directed, edges, vertices = spec
    new = FlagLabeledGraph(directed, iter(edges), vertices=iter(vertices))
    old = OldFlagLabeledGraph(directed, edges, vertices=vertices)
    # repr tells 1, 1.0 and True apart, which == does not
    assert list(map(repr, new._vertex_names)) == list(map(repr, old._vertex_names))
    assert list(map(repr, new._label_names)) == list(map(repr, old._label_names))
    assert new._vertex_ids == old._vertex_ids
    assert new._label_ids == old._label_ids
    assert new.edges == old.edges
    for v in range(old.num_vertices):
        assert new.incident(v) == old.incident(v)
