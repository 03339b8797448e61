"""Bipartite and general maximum matching, plus per-edge viability analysis.

``classify_edges`` splits the edges of a bipartite instance into those that
appear in every maximum matching (mandatory), in none (forbidden), and the
rest (optional); when a perfect matching exists, maximum means perfect.  One
matching decides every edge, by the Dulmage-Mendelsohn rule: orient matched
edges left-to-right and unmatched edges right-to-left.  An edge is optional
iff it lies on an alternating cycle (its endpoints share a strongly connected
component of that orientation) or on an even alternating path from a free
vertex (its left end is reached against the orientation from a free left, or
its right end along it from a free right).  Otherwise a matched edge is
mandatory and an unmatched edge forbidden.  With a perfect matching there
are no free vertices and only the cycle test remains.

The kernels in ``_kernels`` take these edge lists and return Python lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels

MANDATORY = "mandatory"
FORBIDDEN = "forbidden"
OPTIONAL = "optional"


@dataclass(frozen=True)
class BipartiteInstance:
    left_size: int
    right_size: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for l, r in self.edges:
            if not (0 <= l < self.left_size and 0 <= r < self.right_size):
                raise ValueError(f"edge ({l},{r}) out of range")
            if (l, r) in seen:
                raise ValueError(f"duplicate edge ({l},{r})")
            seen.add((l, r))


@dataclass(frozen=True)
class EdgeClassification:
    labels: tuple[str, ...]
    perfect: bool

    def of_kind(self, kind: str) -> set[int]:
        return {i for i, lab in enumerate(self.labels) if lab == kind}


def max_bipartite_matching(inst: BipartiteInstance) -> tuple[int, ...]:
    """Edge indices of a maximum-cardinality matching (deterministic)."""
    mate, _ = _kernels.kuhn_bipartite(inst.left_size, inst.right_size, inst.edges)
    return tuple(idx for idx, (l, r) in enumerate(inst.edges) if mate[l] == r)


def classify_edges(inst: BipartiteInstance) -> EdgeClassification:
    """Mandatory / forbidden / optional relative to maximum matchings.

    ``perfect`` tells whether the maximum matchings are perfect.
    """
    if inst.left_size == 0 or inst.right_size == 0:
        raise ValueError("empty instance")
    mate, _ = _kernels.kuhn_bipartite(inst.left_size, inst.right_size, inst.edges)
    swap = _kernels.swappable_edges(inst.left_size, inst.right_size, inst.edges, mate)
    labels = tuple(
        OPTIONAL if s else MANDATORY if mate[l] == r else FORBIDDEN
        for (l, r), s in zip(inst.edges, swap)
    )
    perfect = -1 not in mate and inst.left_size == inst.right_size
    return EdgeClassification(labels, perfect)


def max_general_matching(num_vertices: int, edges) -> list[tuple[int, int]]:
    """Maximum matching of a simple undirected graph as a list of edge pairs."""
    edges = list(edges)
    if any(not 0 <= x < num_vertices for edge in edges for x in edge):
        raise ValueError(f"an edge leaves vertices 0..{num_vertices - 1}")
    mate, _ = _kernels.blossom_matching(num_vertices, edges, False)
    return [(v, mate[v]) for v in range(num_vertices) if v < mate[v]]


def perfect_matching_mate(num_vertices: int, edges, start=None, adj=None):
    """(mate list, perfect) of a maximum matching in a general graph; the
    search stops early once some vertex provably cannot be matched (no
    perfect matching exists).  ``start``, a mate list of a matching of the
    graph, replaces the greedy first matching, and ``adj``, the graph's
    neighbour lists, replaces ``edges``; with ``adj`` neither is checked
    (see ``_kernels.blossom_matching``)."""
    return _kernels.blossom_matching(num_vertices, edges, True, start, adj)
