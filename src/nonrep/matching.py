"""Bipartite and general maximum matching, plus per-edge viability analysis.

``classify_edges`` splits the edges of a bipartite instance into those that
appear in every perfect matching (mandatory), in none (forbidden), and the
rest (optional).  When a perfect matching exists, one strong-component pass
decides every edge: orient matched edges left-to-right and unmatched edges
right-to-left; an edge lies on an alternating cycle iff its endpoints share a
strongly connected component of that orientation.  Such a matched edge can
be swapped out (optional, else mandatory) and such an unmatched edge can be
swapped in (optional, else forbidden).  Without a perfect matching the
classification is relative to maximum matchings and found by re-solving per
edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    @property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per left vertex: (right, edge index) in edge order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.left_size)]
        for idx, (l, r) in enumerate(self.edges):
            adj[l].append((r, idx))
        return adj


@dataclass(frozen=True)
class EdgeClassification:
    labels: tuple[str, ...]
    perfect: bool

    def of_kind(self, kind: str) -> set[int]:
        return {i for i, lab in enumerate(self.labels) if lab == kind}


def _kuhn(inst: BipartiteInstance) -> tuple[list[int], list[int]]:
    """Deterministic augmenting-path matching; left vertices in index order.

    Each left vertex starts a depth-first search for an augmenting path that
    tries its rights in edge order and shares one visited set of rights.  The
    search keeps its path on explicit stacks, so path length is not bounded
    by the recursion limit.
    """
    adj = [[r for r, _ in row] for row in inst.adjacency]
    mate_l = [-1] * inst.left_size
    mate_r = [-1] * inst.right_size
    for root in range(inst.left_size):
        visited: set[int] = set()
        path_l = [root]  # lefts on the search path
        path_r: list[int] = []  # path_r[i] is the right path_l[i] went to
        cursor = [0]  # next adjacency index per path entry
        while path_l:
            row = adj[path_l[-1]]
            i = cursor[-1]
            while i < len(row) and row[i] in visited:
                i += 1
            if i == len(row):
                # Dead end: back up to the previous left, which tries its
                # next right.
                path_l.pop()
                cursor.pop()
                if path_r:
                    path_r.pop()
                continue
            r = row[i]
            visited.add(r)
            cursor[-1] = i + 1
            path_r.append(r)
            if mate_r[r] == -1:
                for l, rr in zip(path_l, path_r):
                    mate_l[l] = rr
                    mate_r[rr] = l
                break
            path_l.append(mate_r[r])
            cursor.append(0)
    return mate_l, mate_r


def max_bipartite_matching(inst: BipartiteInstance) -> tuple[int, ...]:
    """Edge indices of a maximum-cardinality matching (deterministic)."""
    mate_l, _ = _kuhn(inst)
    chosen = []
    for idx, (l, r) in enumerate(inst.edges):
        if mate_l[l] == r:
            chosen.append(idx)
            mate_l[l] = -2  # each left vertex contributes one edge
    return tuple(chosen)


def matching_size(inst: BipartiteInstance) -> int:
    mate_l, _ = _kuhn(inst)
    return sum(1 for r in mate_l if r >= 0)


def classify_edges(inst: BipartiteInstance) -> EdgeClassification:
    """Mandatory / forbidden / optional relative to perfect matchings.

    Without a perfect matching the classification is made relative to
    maximum matchings instead and the result is flagged ``perfect=False``.
    """
    if inst.left_size == 0 or inst.right_size == 0:
        raise ValueError("empty instance")
    mate_l, mate_r = _kuhn(inst)
    size = sum(1 for r in mate_l if r >= 0)
    perfect = size == inst.left_size == inst.right_size
    labels = [OPTIONAL] * len(inst.edges)

    if perfect:
        # Orientation: matched l -> r, unmatched r -> l; nodes 0..L-1 then rights.
        left = inst.left_size
        tails = []
        heads = []
        for l, r in inst.edges:
            if mate_l[l] == r:
                tails.append(l)
                heads.append(left + r)
            else:
                tails.append(left + r)
                heads.append(l)
        indptr, indices, _ = _kernels.build_csr(
            left + inst.right_size,
            np.array(tails, dtype=np.int64),
            np.array(heads, dtype=np.int64),
        )
        comp = _kernels.scc_csr(indptr, indices).tolist()
        for idx, (l, r) in enumerate(inst.edges):
            if comp[l] != comp[left + r]:
                labels[idx] = MANDATORY if mate_l[l] == r else FORBIDDEN
        return EdgeClassification(tuple(labels), perfect)

    for idx, (l, r) in enumerate(inst.edges):
        rest = tuple(e for e in inst.edges if e != (l, r) and e[0] != l and e[1] != r)
        forced = BipartiteInstance(inst.left_size, inst.right_size, rest)
        if matching_size(forced) + 1 < size:
            labels[idx] = FORBIDDEN
    for idx, (l, r) in enumerate(inst.edges):
        if mate_l[l] != r:
            continue
        rest = tuple(e for i, e in enumerate(inst.edges) if i != idx)
        if matching_size(BipartiteInstance(inst.left_size, inst.right_size, rest)) < size:
            labels[idx] = MANDATORY
    return EdgeClassification(tuple(labels), perfect)


def general_matching_mate(num_vertices: int, edges) -> tuple[np.ndarray, bool]:
    """Mate array of a maximum matching in a general graph (blossom search)."""
    tails = []
    heads = []
    for u, v in edges:
        tails.append(u)
        heads.append(v)
        tails.append(v)
        heads.append(u)
    indptr, indices, _ = _kernels.build_csr(
        num_vertices,
        np.array(tails, dtype=np.int64),
        np.array(heads, dtype=np.int64),
    )
    mate, perfect = _kernels.blossom_matching(num_vertices, indptr, indices, 0)
    return mate, bool(perfect)


def max_general_matching(num_vertices: int, edges) -> list[tuple[int, int]]:
    """Maximum matching of a simple undirected graph as a list of edge pairs."""
    mate, _ = general_matching_mate(num_vertices, edges)
    return [(v, int(mate[v])) for v in range(num_vertices) if 0 <= v < mate[v]]


def perfect_matching_mate(num_vertices: int, edges) -> tuple[np.ndarray, bool]:
    """Like :func:`general_matching_mate` but bails out early when some vertex
    provably cannot be matched (no perfect matching exists)."""
    tails = []
    heads = []
    for u, v in edges:
        tails.append(u)
        heads.append(v)
        tails.append(v)
        heads.append(u)
    indptr, indices, _ = _kernels.build_csr(
        num_vertices,
        np.array(tails, dtype=np.int64),
        np.array(heads, dtype=np.int64),
    )
    mate, perfect = _kernels.blossom_matching(num_vertices, indptr, indices, 1)
    return mate, bool(perfect)
