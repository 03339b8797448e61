from __future__ import annotations

import string
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonrep import (
    FlagLabeledGraph,
    GraphParseError,
    parse_labeled_graph,
    serialize_labeled_graph,
)
import oracles
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


def test_subgraph_refuses_a_negative_edge_id():
    """-1 would index the last edge from the end and keep it as id -1."""
    g = FlagLabeledGraph(False, [("a", "b", "1"), ("b", "c", "2"), ("c", "a", "3")])
    with pytest.raises(ValueError, match="edge id -1"):
        g.subgraph([-1])
    with pytest.raises(ValueError, match="edge id -3"):
        g.subgraph([0, -3, 2])


def test_subgraph_refuses_an_edge_id_past_the_last_edge():
    g = FlagLabeledGraph(False, [("a", "b", "1"), ("b", "c", "2"), ("c", "a", "3")])
    with pytest.raises(ValueError, match="edge id 3"):
        g.subgraph([0, 3])
    with pytest.raises(ValueError, match="edge id 0"):
        FlagLabeledGraph(False, [], vertices=["a"]).subgraph([0])
    assert g.subgraph([])[1] == [] and g.subgraph(range(3))[1] == [0, 1, 2]


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


# Line breaks ``str.splitlines`` honours, and separators ``str.split`` does:
# \x1c-\x1e are both, and \xa0 is whitespace only.
_OTHER_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_BREAKS = ["\n"] * 6 + ["\r\n"] * 3 + _OTHER_BREAKS
_GAPS = [" "] * 6 + ["  ", "\t", " \t ", "\xa0"]
_NAMES = ["a", "b", "c", "0", "1", "x", "y", "edge", "graph", "flagedge", "directed", "é"]


def _random_graph_text(rng: Random) -> str:
    """A graph file, well-formed about half the time.  Lines are joined by
    assorted line breaks and their tokens by assorted whitespace; any line
    may carry a trailing comment."""

    def line(*tokens) -> str:
        gap = rng.choice(_GAPS)
        text = gap.join(tokens)
        if rng.random() < 0.2:
            text = rng.choice(["", " ", "\t"]) + text + rng.choice(["", " ", "\t"])
        if rng.random() < 0.2:
            text += rng.choice(["#", " #", "\t# x", "# edge a b c", "#graph directed"])
        return text

    def names(k):
        return [rng.choice(_NAMES) for _ in range(k)]

    def blank():
        return rng.choice(["", " ", "\t", " \t ", "#", "# comment", "  # edge a b"])

    def edge():
        if rng.random() < 0.5:
            return line("edge", *names(3))
        return line("flagedge", *names(4))

    def noise():
        keyword = rng.choice(["edge", "flagedge", "graph", "node", "Edge", "edges", "x"])
        return line(keyword, *names(rng.choice([0, 1, 2, 3, 4, 5, 6])))

    def header():
        if rng.random() < 0.9:
            return line("graph", rng.choice(["directed", "undirected"]))
        return line("graph", *names(rng.choice([0, 1, 2])))

    lines = [blank() for _ in range(rng.randint(0, 2))]
    mode = rng.random()
    if mode < 0.4:  # well-formed
        lines.append(line("graph", rng.choice(["directed", "undirected"])))
        lines += [edge() if rng.random() < 0.8 else blank() for _ in range(rng.randint(0, 12))]
    elif mode < 0.8:  # a header, then mostly edges and some noise
        lines.append(header())
        kinds = [edge] * 6 + [blank, blank, noise, header]
        lines += [rng.choice(kinds)() for _ in range(rng.randint(0, 10))]
    else:  # anything anywhere, headers missing or repeated
        kinds = [header, header, edge, edge, edge, blank, noise]
        lines += [rng.choice(kinds)() for _ in range(rng.randint(0, 10))]
    breaks = [rng.choice(_BREAKS) for _ in lines]
    if lines and rng.random() < 0.3:
        breaks[-1] = ""  # no break after the last line
    return "".join(text + brk for text, brk in zip(lines, breaks))


def _parse_outcome(parse, text):
    """Everything a parse result shows: the graph's fields, or the error."""
    try:
        g = parse(text)
    except GraphParseError as exc:
        return "error", str(exc), exc.line
    return (
        "graph",
        g.directed,
        g.edges,
        g.vertex_names,
        g.label_names,
        list(g._vertex_ids.items()),
        list(g._label_ids.items()),
    )


def test_parser_equals_list_building_reference_on_random_texts():
    """The parser that interns each line as it reads it gives the graph,
    names and ids of the one that listed string tuples first, and on
    malformed files the same error message and line."""
    rng = Random(2424)
    seen = Counter()
    for _ in range(2500):
        text = _random_graph_text(rng)
        got = _parse_outcome(parse_labeled_graph, text)
        assert got == _parse_outcome(oracles.parse_labeled_graph, text), repr(text)
        if got[0] == "error":
            message = got[1].split(": ", 1)[1]
            seen["unknown keyword" if message.startswith("unknown keyword") else message] += 1
            continue
        same = [lu == lv for *_, lu, lv in got[2]]
        names = got[3] + got[4]
        seen["valid"] += 1
        seen["valid, edge and flagedge labels"] += True in same and False in same
        seen["valid, keyword names"] += not {"edge", "graph", "flagedge"}.isdisjoint(names)
        seen["valid, comments"] += "#" in text
        seen["valid, tabs"] += "\t" in text
        seen["valid, \\r\\n"] += "\r\n" in text
        seen["valid, other breaks"] += any(brk in text for brk in _OTHER_BREAKS)
    # eight error messages and seven kinds of valid text
    assert len(seen) == 15 and min(seen.values()) >= 20, seen
