"""Edge-labeled and flag-labeled multigraphs.

A *flag* is a (vertex, incident edge) pair; a flag-labeled graph attaches a
label to every flag, so the two ends of an edge may carry different labels.
An edge-labeled graph is the special case where both flags of an edge agree.

Vertices and labels are opaque hashable tokens; they are interned to dense
integers at construction time, in order of first appearance, so the analysis
modules can work with plain array indices.  ``parse_labeled_graph`` feeds the
lines of a graph file straight into that interning, so a file's vertices and
labels are numbered as they first appear in it.  Graphs are immutable after
construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence


class GraphParseError(ValueError):
    """Raised for malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FlagLabeledGraph:
    """Immutable directed or undirected multigraph with labeled flags.

    Edges are identified by dense ids 0..m-1 in construction order.  Self
    loops and parallel edges are representable; the analysis modules that
    cannot handle self loops reject them explicitly.
    """

    def __init__(
        self,
        directed: bool,
        edges: Iterable[Sequence[Any]],
        vertices: Iterable[Any] = (),
    ):
        """Build a graph from edge tuples ``(u, v, label)`` or ``(u, v, label_at_u, label_at_v)``.

        ``vertices`` may declare extra (possibly isolated) vertices; endpoints
        of edges are declared implicitly.
        """
        self.directed = bool(directed)
        vertex_ids: dict[Any, int] = {}
        label_ids: dict[Any, int] = {}
        for v in vertices:
            vertex_ids.setdefault(v, len(vertex_ids))
        # One lookup per token, and an insert of the next id only on a miss.
        vertex_id = vertex_ids.get
        label_id = label_ids.get
        edge_list: list[tuple[int, int, int, int]] = []
        for spec in edges:
            if len(spec) == 3:
                u, v, lu = spec
                lv = lu
            elif len(spec) == 4:
                u, v, lu, lv = spec
            else:
                raise ValueError(f"edge spec must have 3 or 4 fields, got {spec!r}")
            a = vertex_id(u)
            if a is None:
                a = vertex_ids[u] = len(vertex_ids)
            b = vertex_id(v)
            if b is None:
                b = vertex_ids[v] = len(vertex_ids)
            x = label_id(lu)
            if x is None:
                x = label_ids[lu] = len(label_ids)
            y = label_id(lv)
            if y is None:
                y = label_ids[lv] = len(label_ids)
            edge_list.append((a, b, x, y))
        self.edges: tuple[tuple[int, int, int, int], ...] = tuple(edge_list)
        self._vertex_ids = vertex_ids
        self._label_ids = label_ids
        self._vertex_names: list[Any] = list(vertex_ids)
        self._label_names: list[Any] = list(label_ids)

    @cached_property
    def _incidence(self) -> list[list[tuple[int, int]]]:
        """Flags per vertex as (edge id, end) pairs, built on first use."""
        incidence: list[list[tuple[int, int]]] = [[] for _ in self._vertex_names]
        for eid, (u, v, _lu, _lv) in enumerate(self.edges):
            incidence[u].append((eid, 0))
            incidence[v].append((eid, 1))
        return incidence

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_names)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def vertex_names(self) -> list[Any]:
        """Vertex names by id; callers must not mutate the list."""
        return self._vertex_names

    @property
    def label_names(self) -> list[Any]:
        """Label names by id; callers must not mutate the list."""
        return self._label_names

    def vertex_name(self, vid: int) -> Any:
        return self._vertex_names[vid]

    def vertex_id(self, token: Any) -> int:
        try:
            return self._vertex_ids[token]
        except KeyError:
            raise KeyError(f"unknown vertex {token!r}") from None

    def has_vertex(self, token: Any) -> bool:
        return token in self._vertex_ids

    def label_name(self, lid: int) -> Any:
        return self._label_names[lid]

    def label_id(self, token: Any):
        return self._label_ids.get(token)

    def endpoints(self, eid: int) -> tuple[Any, Any]:
        u, v, _, _ = self.edges[eid]
        return self._vertex_names[u], self._vertex_names[v]

    def edge_labels(self, eid: int) -> tuple[Any, Any]:
        _, _, lu, lv = self.edges[eid]
        return self._label_names[lu], self._label_names[lv]

    def is_self_loop(self, eid: int) -> bool:
        u, v, _, _ = self.edges[eid]
        return u == v

    def has_self_loops(self) -> bool:
        return any(u == v for u, v, _, _ in self.edges)

    def is_edge_labeled(self) -> bool:
        return all(lu == lv for _, _, lu, lv in self.edges)

    def incident(self, vid: int) -> list[tuple[int, int]]:
        """Flags at the vertex as (edge id, end) pairs; a loop appears twice."""
        return self._incidence[vid]

    def flag_label_id(self, eid: int, end: int) -> int:
        return self.edges[eid][2 + end]

    def degree(self, vid: int) -> int:
        return len(self._incidence[vid])

    def vertex_label_ids(self, vid: int) -> list[int]:
        """Distinct flag-label ids at the vertex, in first-occurrence order."""
        seen: dict[int, None] = {}
        for eid, end in self._incidence[vid]:
            seen.setdefault(self.flag_label_id(eid, end), None)
        return list(seen)

    def group_flags_by_label(self, vertex: Any) -> list[tuple[Any, list[int]]]:
        """Partition the incident flags of a vertex by flag label.

        Groups are ordered by the first occurrence of each label at the
        vertex; within a group edges keep id order.  Direction is ignored
        here; both flags of a self loop are counted.
        """
        vid = self.vertex_id(vertex)
        groups: dict[int, list[int]] = {}
        for eid, end in self._incidence[vid]:
            groups.setdefault(self.flag_label_id(eid, end), []).append(eid)
        return [(self._label_names[lid], eids) for lid, eids in groups.items()]

    def subgraph(self, edge_ids: Iterable[int]) -> tuple["FlagLabeledGraph", list[int]]:
        """Same vertex set, edges restricted to ``edge_ids`` (in id order).

        Returns the new graph and the list mapping new edge ids to old ones.
        An id outside ``0..num_edges - 1`` raises ``ValueError``.
        """
        keep = sorted(set(edge_ids))
        for e in keep[:1] + keep[-1:]:
            if not 0 <= e < len(self.edges):
                raise ValueError(f"edge id {e} is not one of the {len(self.edges)} edges")
        names = self._vertex_names
        lnames = self._label_names
        edges = [
            (names[u], names[v], lnames[lu], lnames[lv])
            for u, v, lu, lv in (self.edges[e] for e in keep)
        ]
        return FlagLabeledGraph(self.directed, edges, vertices=names), keep

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlagLabeledGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self._vertex_names == other._vertex_names
            and [
                (self.endpoints(e), self.edge_labels(e)) for e in range(self.num_edges)
            ]
            == [
                (other.endpoints(e), other.edge_labels(e))
                for e in range(other.num_edges)
            ]
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"<FlagLabeledGraph {kind} n={self.num_vertices} m={self.num_edges}>"


def parse_labeled_graph(text: str) -> FlagLabeledGraph:
    """Parse the line-oriented graph file format.

    The first non-comment line is ``graph directed`` or ``graph undirected``;
    every further line is ``edge <u> <v> <label>`` or
    ``flagedge <u> <v> <labelAtU> <labelAtV>``.  ``#`` starts a comment and
    tokens are whitespace-delimited.

    The lines after the header are parsed while ``FlagLabeledGraph`` interns
    them, one line at a time, so no list of string tuples is made: vertex
    and label ids are given in order of first appearance in the file, and a
    malformed line raises ``GraphParseError`` as the constructor reaches it.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] in ("edge", "flagedge"):
            raise GraphParseError(f"{tokens[0]} line before graph header", lineno)
        if tokens[0] != "graph":
            raise GraphParseError(f"unknown keyword {tokens[0]!r}", lineno)
        if len(tokens) != 2 or tokens[1] not in ("directed", "undirected"):
            raise GraphParseError(
                "graph header must be 'graph directed' or 'graph undirected'", lineno
            )
        return FlagLabeledGraph(tokens[1] == "directed", _edge_specs(lines))
    raise GraphParseError("missing 'graph' header", max(1, text.count("\n") + 1))


def _edge_specs(lines: Iterable[tuple[int, str]]) -> Iterator[tuple[str, ...]]:
    """The edge tuples of the (line number, line) pairs after the header."""
    for lineno, raw in lines:
        if "#" in raw:  # cheaper than splitting every line at "#"
            raw = raw[: raw.index("#")]
        tokens = raw.split()
        if len(tokens) == 4 and tokens[0] == "edge":
            yield tokens[1], tokens[2], tokens[3]
        elif len(tokens) == 5 and tokens[0] == "flagedge":
            yield tokens[1], tokens[2], tokens[3], tokens[4]
        elif not tokens:
            continue
        elif tokens[0] == "graph":
            raise GraphParseError("duplicate graph header", lineno)
        elif tokens[0] == "edge":
            raise GraphParseError("edge line needs '<u> <v> <label>'", lineno)
        elif tokens[0] == "flagedge":
            raise GraphParseError(
                "flagedge line needs '<u> <v> <labelAtU> <labelAtV>'", lineno
            )
        else:
            raise GraphParseError(f"unknown keyword {tokens[0]!r}", lineno)


def serialize_labeled_graph(g: FlagLabeledGraph) -> str:
    """Inverse of :func:`parse_labeled_graph` for string-token graphs."""
    lines = ["graph " + ("directed" if g.directed else "undirected")]
    for eid in range(g.num_edges):
        u, v = g.endpoints(eid)
        lu, lv = g.edge_labels(eid)
        if lu == lv:
            lines.append(f"edge {u} {v} {lu}")
        else:
            lines.append(f"flagedge {u} {v} {lu} {lv}")
    return "\n".join(lines) + "\n"
