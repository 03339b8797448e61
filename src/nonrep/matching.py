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


def _match(inst: BipartiteInstance):
    """(mate_l, indptr, indices, pos): the kernel's maximum matching of the
    left-to-right CSR of ``inst``, and that CSR, with edge i at pos[i]."""
    indptr, indices, pos = _kernels.build_csr(
        inst.left_size, [l for l, _ in inst.edges], [r for _, r in inst.edges]
    )
    mate_l, _ = _kernels.kuhn_bipartite(inst.left_size, inst.right_size, indptr, indices)
    return mate_l, indptr, indices, pos


def max_bipartite_matching(inst: BipartiteInstance) -> tuple[int, ...]:
    """Edge indices of a maximum-cardinality matching (deterministic)."""
    mate = _match(inst)[0].tolist()
    return tuple(idx for idx, (l, r) in enumerate(inst.edges) if mate[l] == r)


def matching_size(inst: BipartiteInstance) -> int:
    return inst.left_size - _match(inst)[0].tolist().count(-1)


def classify_edges(inst: BipartiteInstance) -> EdgeClassification:
    """Mandatory / forbidden / optional relative to maximum matchings.

    ``perfect`` tells whether the maximum matchings are perfect.
    """
    if inst.left_size == 0 or inst.right_size == 0:
        raise ValueError("empty instance")
    mate_l, indptr, indices, pos = _match(inst)
    swap = _kernels.swappable_edges(
        inst.left_size, inst.right_size, indptr, indices, mate_l
    ).tolist()
    mate = mate_l.tolist()
    labels = tuple(
        OPTIONAL if swap[p] else MANDATORY if mate[l] == r else FORBIDDEN
        for (l, r), p in zip(inst.edges, pos.tolist())
    )
    perfect = -1 not in mate and inst.left_size == inst.right_size
    return EdgeClassification(labels, perfect)


def _blossom(num_vertices: int, edges, require_perfect: bool):
    """(mate array, perfect) of the blossom kernel on an undirected edge list."""
    tails = []
    heads = []
    for u, v in edges:
        tails += (u, v)
        heads += (v, u)
    indptr, indices, _ = _kernels.build_csr(num_vertices, tails, heads)
    return _kernels.blossom_matching(num_vertices, indptr, indices, require_perfect)


def max_general_matching(num_vertices: int, edges) -> list[tuple[int, int]]:
    """Maximum matching of a simple undirected graph as a list of edge pairs."""
    mate, _ = _blossom(num_vertices, edges, False)
    return [(v, int(mate[v])) for v in range(num_vertices) if 0 <= v < mate[v]]


def perfect_matching_mate(num_vertices: int, edges):
    """(mate array, perfect) of a maximum matching in a general graph; the
    search stops early once some vertex provably cannot be matched (no
    perfect matching exists)."""
    return _blossom(num_vertices, edges, True)
