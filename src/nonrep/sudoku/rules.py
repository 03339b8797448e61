"""Deduction rules and the solve scheduler.

Tiers, cheapest first:

* 0 - hidden and naked singles
* 1 - other local rules (intersection triples, box/line interactions,
  hidden pairs)
* 2 - matching rules (digit placements as row/column matchings, group
  completions as digit/cell matchings; candidates on edges usable by no
  perfect matching are eliminated)
* 3 - nonlocal rules on the bilocation graph (cycle, repeated-label cycle,
  conflicting forcing chains)
* 4 - nonlocal rules on the bivalue graph, run through its flag-labeled
  bipartite form, plus the mixed conflicting-chains rule

The bilocation graph joins two cells when they are the only homes of some
digit within a group, so an unfilled start cell *not* holding the incident
edge label pushes that label to the far cell and the forcing cascades along
nonrepetitive walks.  The bivalue graph joins two-candidate cells that share
a group and a digit; a start cell *holding* the edge label pulls the label
off its neighbor, whose other candidate labels the next edge.  Both cascades
are exactly the nonrepetitive walks that the label-switch engine enumerates.

``solve`` applies one deduction of the cheapest firing rule per step and
rescans from tier 0, so a trace is replayable and the difficulty tier
reflects the hardest rule actually needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import _kernels
from ..engine import LabelSwitchDigraph, ReachedEdge
from ..labeled_graph import FlagLabeledGraph
from .board import (
    Board,
    Contradiction,
    Deduction,
    SolveTrace,
    apply_deduction,
    cell_name,
    geometry,
)

TIER_SINGLES = 0
TIER_LOCAL = 1
TIER_MATCHING = 2
TIER_BILOCATION = 3
TIER_BIVALUE = 4


# ---------------------------------------------------------------------------
# Local rules (tier 0 and 1)
# ---------------------------------------------------------------------------


def hidden_singles(board: Board) -> list[Deduction]:
    """A digit with a single remaining home in some group is placed there."""
    geo = geometry(board.box)
    out = []
    seen = set()
    for g, cells in enumerate(geo.group_cells):
        placed = 0
        for c in cells:
            if board.values[c]:
                placed |= 1 << (board.values[c] - 1)
        for d in range(1, board.n + 1):
            if placed >> (d - 1) & 1:
                continue
            homes = [c for c in cells if board.admits(c, d)]
            if len(homes) == 1 and (homes[0], d) not in seen:
                seen.add((homes[0], d))
                out.append(
                    Deduction(
                        "hidden_single",
                        placements=((homes[0], d),),
                        witness=geo.group_name(g),
                    )
                )
    return out


def naked_singles(board: Board) -> list[Deduction]:
    """A cell with a single candidate receives it."""
    out = []
    for cell in range(board.size):
        if board.values[cell] == 0 and board.candidate_count(cell) == 1:
            digit = board.candidates(cell)[0]
            out.append(Deduction("naked_single", placements=((cell, digit),)))
    return out


def _line_box_pairs(board: Board):
    geo = geometry(board.box)
    n, box = board.n, board.box
    for line in range(2 * n):
        line_cells = geo.group_cells[line]
        boxes = sorted({geo.groups_of_cell[c][2] for c in line_cells})
        for bg in boxes:
            inter = tuple(c for c in line_cells if geo.groups_of_cell[c][2] == bg)
            if len(inter) == box:
                yield line, bg, inter


def intersection_triples(board: Board) -> list[Deduction]:
    """B digits confined, within a line or a box, to the B cells where the
    line meets the box must fill exactly those cells: other digits leave the
    intersection, and the confined digits leave the rest of both groups."""
    geo = geometry(board.box)
    out = []
    for line, bg, inter in _line_box_pairs(board):
        free = [c for c in inter if board.values[c] == 0]
        if len(free) < 2:
            continue
        free_set = set(free)
        for src, other in ((line, bg), (bg, line)):
            cells = geo.group_cells[src]
            confined = []
            for d in range(1, board.n + 1):
                homes = [c for c in cells if board.admits(c, d)]
                if homes and all(c in free_set for c in homes):
                    confined.append(d)
            if len(confined) != len(free):
                continue
            elims = []
            for c in free:
                for d in board.candidates(c):
                    if d not in confined:
                        elims.append((c, d))
            # The confined digits are locked inside the intersection, so they
            # vacate the rest of the other containing group (the source group
            # holds no further homes for them by construction).
            for c in geo.group_cells[other]:
                if c in free_set or board.values[c]:
                    continue
                for d in confined:
                    if board.admits(c, d):
                        elims.append((c, d))
            if elims:
                out.append(
                    Deduction(
                        "intersection_triple",
                        eliminations=tuple(sorted(set(elims))),
                        witness=f"{geo.group_name(src)}"
                        f"[{','.join(map(str, confined))}]",
                    )
                )
    return out


def box_line(board: Board) -> list[Deduction]:
    """Digit homes of a box confined to one line clear the rest of the line,
    and homes of a line confined to one box clear the rest of the box."""
    geo = geometry(board.box)
    n = board.n
    out = []
    for g, cells in enumerate(geo.group_cells):
        for d in range(1, n + 1):
            homes = [c for c in cells if board.admits(c, d)]
            if not homes:
                continue
            if g < 2 * n:
                # line -> confined to one box
                boxes = {geo.groups_of_cell[c][2] for c in homes}
                if len(boxes) != 1:
                    continue
                target = boxes.pop()
            else:
                rows = {geo.groups_of_cell[c][0] for c in homes}
                cols = {geo.groups_of_cell[c][1] for c in homes}
                if len(rows) == 1:
                    target = rows.pop()
                elif len(cols) == 1:
                    target = cols.pop()
                else:
                    continue
            elims = tuple(
                (c, d)
                for c in geo.group_cells[target]
                if c not in cells and board.admits(c, d)
            )
            if elims:
                out.append(
                    Deduction(
                        "box_line",
                        eliminations=elims,
                        witness=f"{geo.group_name(g)}->{geo.group_name(target)}[{d}]",
                    )
                )
    return out


def hidden_pairs(board: Board) -> list[Deduction]:
    """Two digits sharing the same two homes in a group own those cells."""
    geo = geometry(board.box)
    out = []
    for g, cells in enumerate(geo.group_cells):
        homes_of: dict[int, tuple[int, ...]] = {}
        for d in range(1, board.n + 1):
            homes = tuple(c for c in cells if board.admits(c, d))
            if len(homes) == 2:
                homes_of[d] = homes
        digits = sorted(homes_of)
        for i, x in enumerate(digits):
            for y in digits[i + 1 :]:
                if homes_of[x] != homes_of[y]:
                    continue
                elims = []
                for c in homes_of[x]:
                    for d in board.candidates(c):
                        if d not in (x, y):
                            elims.append((c, d))
                if elims:
                    out.append(
                        Deduction(
                            "hidden_pair",
                            eliminations=tuple(elims),
                            witness=f"{geo.group_name(g)}[{x},{y}]",
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Matching rules (tier 2)
# ---------------------------------------------------------------------------


def _forbidden_edges(num: int, adjacency: list[list[int]]):
    """(perfect, [(l, r) forbidden...]) for a square bipartite instance."""
    tails = [l for l in range(num) for _ in adjacency[l]]
    heads = [r for row in adjacency for r in row]
    # The tails are sorted, so edge i keeps CSR position i.
    indptr, indices, _ = _kernels.build_csr(num, tails, heads)
    size, _, _, forbidden = _kernels.bipartite_forbidden(num, num, indptr, indices)
    if size != num:
        return False, []
    return True, [
        (tails[pos], heads[pos]) for pos, bad in enumerate(forbidden.tolist()) if bad
    ]


def digit_grid_matching(board: Board) -> list[Deduction]:
    """Per digit: cover every row and column with one copy, as a row/column
    matching; candidate cells on edges of no perfect matching are cleared."""
    n = board.n
    out = []
    for d in range(1, n + 1):
        rows = [r for r in range(n) if all(board.values[r * n + c] != d for c in range(n))]
        if not rows:
            continue
        cols = [c for c in range(n) if all(board.values[r * n + c] != d for r in range(n))]
        row_index = {r: i for i, r in enumerate(rows)}
        col_index = {c: i for i, c in enumerate(cols)}
        adjacency: list[list[int]] = [[] for _ in rows]
        for r in rows:
            for c in cols:
                if board.admits(r * n + c, d):
                    adjacency[row_index[r]].append(col_index[c])
        perfect, bad = _forbidden_edges(len(rows), adjacency)
        if not perfect:
            out.append(
                Deduction(
                    "digit_matching",
                    contradiction=True,
                    reason=f"digit {d} cannot cover every row and column",
                )
            )
            continue
        elims = tuple((rows[l] * n + cols[r], d) for l, r in bad)
        if elims:
            out.append(Deduction("digit_matching", eliminations=elims, witness=f"digit {d}"))
    return out


def group_matching(board: Board) -> list[Deduction]:
    """Per group: complete it as a digit/cell matching; candidate placements
    on edges of no perfect matching are cleared."""
    geo = geometry(board.box)
    out = []
    for g, cells in enumerate(geo.group_cells):
        free = [c for c in cells if board.values[c] == 0]
        if not free:
            continue
        placed = set(board.values[c] for c in cells if board.values[c])
        digits = [d for d in range(1, board.n + 1) if d not in placed]
        cell_index = {c: i for i, c in enumerate(free)}
        adjacency: list[list[int]] = [[] for _ in digits]
        for i, d in enumerate(digits):
            for c in free:
                if board.admits(c, d):
                    adjacency[i].append(cell_index[c])
        perfect, bad = _forbidden_edges(len(digits), adjacency)
        if not perfect:
            out.append(
                Deduction(
                    "group_matching",
                    contradiction=True,
                    reason=f"{geo.group_name(g)} admits no complete placement",
                )
            )
            continue
        elims = tuple((free[r], digits[l]) for l, r in bad)
        if elims:
            out.append(
                Deduction(
                    "group_matching", eliminations=elims, witness=geo.group_name(g)
                )
            )
    return out


# ---------------------------------------------------------------------------
# Bilocation / bivalue graphs
# ---------------------------------------------------------------------------


@dataclass
class BilocationGraph:
    """Edges join the only two homes of a digit within some group.

    Duplicate (cell pair, digit) findings from several groups collapse to a
    single edge; a third distinct digit on one cell pair is an immediate
    contradiction (two cells cannot hold three digits).
    """

    graph: FlagLabeledGraph
    contradiction: Optional[Contradiction] = None


@dataclass
class BivalueGraph:
    """Edges join bivalued cells that share a group and a common candidate."""

    graph: FlagLabeledGraph


@dataclass
class BipartiteBivalueGraph:
    """Flag-labeled bipartite form: cells vs (group, digit) vertices.

    The edge cell--(g,d) carries flag ("d", d) at the cell and ("c", cell) at
    the group vertex, so one bivalue-graph step equals two steps here and the
    whole structure stays O(B^4) regardless of bivalue-graph density.
    """

    graph: FlagLabeledGraph


def build_bilocation_graph(board: Board) -> BilocationGraph:
    geo = geometry(board.box)
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    pair_digits: dict[tuple[int, int], list[int]] = {}
    contradiction = None
    for g, cells in enumerate(geo.group_cells):
        placed = set(board.values[c] for c in cells if board.values[c])
        for d in range(1, board.n + 1):
            if d in placed:
                continue
            homes = [c for c in cells if board.admits(c, d)]
            if len(homes) != 2:
                continue
            key = (homes[0], homes[1], d)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            digits = pair_digits.setdefault((homes[0], homes[1]), [])
            digits.append(d)
            if len(digits) >= 3 and contradiction is None:
                a, b = homes
                contradiction = Contradiction(
                    f"cells {cell_name(board.box, a)},{cell_name(board.box, b)} "
                    f"are the only homes of digits {digits}"
                )
    graph = FlagLabeledGraph(False, edges, vertices=board.empty_cells())
    return BilocationGraph(graph, contradiction)


def build_bivalue_graphs(board: Board) -> tuple[BivalueGraph, BipartiteBivalueGraph]:
    geo = geometry(board.box)
    bivalued = [c for c in board.empty_cells() if board.candidate_count(c) == 2]
    biv_set = set(bivalued)
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for cells in geo.group_cells:
        members = [c for c in cells if c in biv_set]
        for i, c1 in enumerate(members):
            for c2 in members[i + 1 :]:
                shared = board.cand[c1] & board.cand[c2]
                d = 1
                while shared:
                    if shared & 1:
                        key = (min(c1, c2), max(c1, c2), d)
                        if key not in seen:
                            seen.add(key)
                            edges.append(key)
                    shared >>= 1
                    d += 1
    bivalue = BivalueGraph(FlagLabeledGraph(False, edges, vertices=bivalued))

    group_vertices = [
        (g, d)
        for g in range(len(geo.group_cells))
        for d in range(1, board.n + 1)
    ]
    bb_edges = []
    for c in bivalued:
        for g in geo.groups_of_cell[c]:
            for d in board.candidates(c):
                bb_edges.append((c, (g, d), ("d", d), ("c", c)))
    bipartite = BipartiteBivalueGraph(
        FlagLabeledGraph(False, bb_edges, vertices=list(bivalued) + group_vertices)
    )
    return bivalue, bipartite


# ---------------------------------------------------------------------------
# Nonlocal rules (tiers 3 and 4)
# ---------------------------------------------------------------------------


def _walk_summary(box: int, steps: list[ReachedEdge], bipartite: bool) -> str:
    def name(v):
        if isinstance(v, int):
            return cell_name(box, v)
        g, d = v
        return f"g{g}d{d}"

    if not steps:
        return ""
    parts = [name(steps[0].tail)]
    for s in steps:
        label = s.far_label[1] if bipartite and isinstance(s.far_label, tuple) else s.far_label
        parts.append(f"{label}>{name(s.head)}")
    return "-".join(str(p) for p in parts)


def bilocation_cycle_rule(board: Board) -> list[Deduction]:
    """Each nonrepetitive bilocation cycle through a cell restricts the cell
    to the two labels the cycle uses there; the cell's value must lie in the
    intersection of those label pairs over all cycles, and an empty
    intersection is a contradiction."""
    bl = build_bilocation_graph(board)
    if bl.contradiction:
        return [
            Deduction("biloc_cycle", contradiction=True, reason=bl.contradiction.reason)
        ]
    if bl.graph.num_edges == 0:
        return []
    expansion = LabelSwitchDigraph(bl.graph)
    out = []
    for cell in sorted(board.empty_cells()):
        if not bl.graph.has_vertex(cell):
            continue
        pairs = expansion.cycle_transit_pairs(cell)
        if not pairs:
            continue
        allowed = set.intersection(*(set(p) for p in pairs))
        witness = ";".join(
            "{" + ",".join(str(d) for d in sorted(p)) + "}" for p in sorted(pairs, key=sorted)
        )
        if not allowed:
            out.append(
                Deduction(
                    "biloc_cycle",
                    contradiction=True,
                    reason=f"{cell_name(board.box, cell)} sits on cycles with "
                    "incompatible label pairs",
                    witness=witness,
                )
            )
            continue
        elims = tuple(
            (cell, d) for d in board.candidates(cell) if d not in allowed
        )
        if elims:
            out.append(Deduction("biloc_cycle", eliminations=elims, witness=witness))
    return out


def bivalue_cycle_rule(board: Board) -> list[Deduction]:
    """A bivalue cycle through a (group, digit) vertex confines that digit to
    the two member cells the cycle transits; intersecting over all cycles
    leaves the digit's only possible homes in the group."""
    _, bb = build_bivalue_graphs(board)
    if bb.graph.num_edges == 0:
        return []
    geo = geometry(board.box)
    expansion = LabelSwitchDigraph(bb.graph)
    out = []
    for g in range(len(geo.group_cells)):
        for d in range(1, board.n + 1):
            pairs = expansion.cycle_transit_pairs((g, d))
            if not pairs:
                continue
            allowed = set.intersection(*(set(p) for p in pairs))
            cells = sorted(c for _tag, c in allowed)
            witness = f"{geo.group_name(g)}[{d}]:" + ";".join(
                "{" + ",".join(cell_name(board.box, c) for _t, c in sorted(p)) + "}"
                for p in sorted(pairs, key=sorted)
            )
            if not cells:
                out.append(
                    Deduction(
                        "bivalue_cycle",
                        contradiction=True,
                        reason=f"{geo.group_name(g)} has no home left for "
                        f"digit {d} compatible with its cycles",
                        witness=witness,
                    )
                )
                continue
            elims = tuple(
                (c, d)
                for c in geo.group_cells[g]
                if c not in cells and board.admits(c, d)
            )
            if elims:
                out.append(
                    Deduction("bivalue_cycle", eliminations=elims, witness=witness)
                )
    return out


def _bilocation_starts(board: Board, bl: BilocationGraph):
    starts: dict[int, set[int]] = {}
    for eid in range(bl.graph.num_edges):
        c1, c2 = bl.graph.endpoints(eid)
        d = bl.graph.edge_labels(eid)[0]
        starts.setdefault(c1, set()).add(d)
        starts.setdefault(c2, set()).add(d)
    return starts


def bilocation_repeat_rule(board: Board) -> list[Deduction]:
    """A nonrepetitive bilocation walk that starts and ends at the same cell
    with the same label forces that label into the cell."""
    bl = build_bilocation_graph(board)
    if bl.contradiction or bl.graph.num_edges == 0:
        return []
    expansion = LabelSwitchDigraph(bl.graph)
    out = []
    for cell, digits in sorted(_bilocation_starts(board, bl).items()):
        if board.values[cell]:
            continue
        for d in sorted(digits):
            reach = expansion.reachable_from(cell, d)
            for re in reach.edges:
                if re.head == cell and re.far_label == d:
                    walk = reach.walk_to(re)
                    out.append(
                        Deduction(
                            "biloc_repeat",
                            placements=((cell, d),),
                            witness=_walk_summary(board.box, walk, False),
                        )
                    )
                    break
    return out


def bivalue_repeat_rule(board: Board) -> list[Deduction]:
    """A bivalue forcing chain from (cell, d) back to the cell ending on d
    rules d out there, placing the cell's other candidate."""
    _, bb = build_bivalue_graphs(board)
    if bb.graph.num_edges == 0:
        return []
    expansion = LabelSwitchDigraph(bb.graph)
    out = []
    for cell in sorted(
        c for c in board.empty_cells() if board.candidate_count(c) == 2
    ):
        for d in board.candidates(cell):
            if not bb.graph.has_vertex(cell):
                continue
            reach = expansion.reachable_from(cell, ("d", d))
            for re in reach.edges:
                if re.head == cell and re.far_label == ("d", d):
                    other = next(x for x in board.candidates(cell) if x != d)
                    walk = reach.walk_to(re)
                    out.append(
                        Deduction(
                            "bivalue_repeat",
                            placements=((cell, other),),
                            witness=_walk_summary(board.box, walk, True),
                        )
                    )
                    break
    return out


def _forced_by_bilocation(board, expansion, cell, digit):
    """(cell, digit) pairs forced when ``cell`` does not hold ``digit``:
    far endpoints of reachable edges take their far labels."""
    reach = expansion.reachable_from(cell, digit)
    forced: dict[tuple[int, int], ReachedEdge] = {}
    for re in reach.edges:
        forced.setdefault((re.head, re.far_label), re)
    return reach, forced


def _forced_by_bivalue(board, expansion, cell, digit):
    """(cell, digit) pairs forced when ``cell`` holds ``digit``: the far cell
    of a reached edge loses the far label, keeping its other candidate."""
    reach = expansion.reachable_from(cell, ("d", digit))
    forced: dict[tuple[int, int], ReachedEdge] = {}
    for re in reach.edges:
        if not isinstance(re.head, int):
            continue
        label = re.far_label[1]
        others = [x for x in board.candidates(re.head) if x != label]
        if len(others) != 1:
            continue
        forced.setdefault((re.head, others[0]), re)
    return reach, forced


def _find_conflict(geo, forced_a: dict, forced_b: Optional[dict] = None):
    """First pair of distinct same-group cells forced to one digit.

    With ``forced_b`` the pair must straddle the two maps (cross conflicts
    only); within-map conflicts belong to the pure rules.
    """
    first: dict[tuple[int, int], tuple[int, ReachedEdge]] = {}
    for (cell, digit), re in sorted(forced_a.items()):
        for g in geo.groups_of_cell[cell]:
            first.setdefault((digit, g), (cell, re))
    second = forced_a if forced_b is None else forced_b
    for (cell, digit), re in sorted(second.items()):
        for g in geo.groups_of_cell[cell]:
            hit = first.get((digit, g))
            if hit is not None and hit[0] != cell:
                return hit[1], re, digit, g
    return None


def bilocation_conflict_rule(board: Board) -> list[Deduction]:
    """Two forcing chains from (cell, d) that push one digit onto two cells
    of a group cannot both hold, so the cell must hold d."""
    bl = build_bilocation_graph(board)
    if bl.contradiction or bl.graph.num_edges == 0:
        return []
    geo = geometry(board.box)
    expansion = LabelSwitchDigraph(bl.graph)
    out = []
    for cell, digits in sorted(_bilocation_starts(board, bl).items()):
        if board.values[cell]:
            continue
        for d in sorted(digits):
            reach, forced = _forced_by_bilocation(board, expansion, cell, d)
            hit = _find_conflict(geo, forced)
            if hit is None:
                continue
            re_a, re_b, digit, g = hit
            witness = (
                _walk_summary(board.box, reach.walk_to(re_a), False)
                + "|"
                + _walk_summary(board.box, reach.walk_to(re_b), False)
            )
            out.append(
                Deduction("biloc_conflict", placements=((cell, d),), witness=witness)
            )
    return out


def bivalue_conflict_rule(board: Board) -> list[Deduction]:
    """Two bivalue chains from (cell, d) forcing one digit onto two cells of
    a group refute the start assumption; the cell takes its other candidate."""
    _, bb = build_bivalue_graphs(board)
    if bb.graph.num_edges == 0:
        return []
    geo = geometry(board.box)
    expansion = LabelSwitchDigraph(bb.graph)
    out = []
    for cell in sorted(
        c for c in board.empty_cells() if board.candidate_count(c) == 2
    ):
        if not bb.graph.has_vertex(cell):
            continue
        for d in board.candidates(cell):
            reach, forced = _forced_by_bivalue(board, expansion, cell, d)
            hit = _find_conflict(geo, forced)
            if hit is None:
                continue
            re_a, re_b, digit, g = hit
            other = next(x for x in board.candidates(cell) if x != d)
            witness = (
                _walk_summary(board.box, reach.walk_to(re_a), True)
                + "|"
                + _walk_summary(board.box, reach.walk_to(re_b), True)
            )
            out.append(
                Deduction(
                    "bivalue_conflict", placements=((cell, other),), witness=witness
                )
            )
    return out


def mixed_conflict_rule(board: Board) -> list[Deduction]:
    """For a bivalued cell with candidates {d, e}, the assumption "not d"
    drives bilocation chains from (cell, d) and bivalue chains from
    (cell, e) simultaneously; a cross conflict places d."""
    bl = build_bilocation_graph(board)
    if bl.contradiction:
        return []
    _, bb = build_bivalue_graphs(board)
    if bl.graph.num_edges == 0 or bb.graph.num_edges == 0:
        return []
    geo = geometry(board.box)
    ex_bl = LabelSwitchDigraph(bl.graph)
    ex_bb = LabelSwitchDigraph(bb.graph)
    out = []
    for cell in sorted(
        c for c in board.empty_cells() if board.candidate_count(c) == 2
    ):
        for d in board.candidates(cell):
            e = next(x for x in board.candidates(cell) if x != d)
            reach_bl, forced_bl = _forced_by_bilocation(board, ex_bl, cell, d)
            if not forced_bl:
                continue
            reach_bb, forced_bb = _forced_by_bivalue(board, ex_bb, cell, e)
            if not forced_bb:
                continue
            hit = _find_conflict(geo, forced_bl, forced_bb)
            if hit is None:
                continue
            re_a, re_b, digit, g = hit
            witness = (
                _walk_summary(board.box, reach_bl.walk_to(re_a), False)
                + "|"
                + _walk_summary(board.box, reach_bb.walk_to(re_b), True)
            )
            out.append(
                Deduction("mixed_conflict", placements=((cell, d),), witness=witness)
            )
    return out


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

RULES: tuple[tuple[int, str], ...] = (
    (TIER_SINGLES, "hidden_single"),
    (TIER_SINGLES, "naked_single"),
    (TIER_LOCAL, "intersection_triple"),
    (TIER_LOCAL, "box_line"),
    (TIER_LOCAL, "hidden_pair"),
    (TIER_MATCHING, "digit_matching"),
    (TIER_MATCHING, "group_matching"),
    (TIER_BILOCATION, "biloc_cycle"),
    (TIER_BILOCATION, "biloc_repeat"),
    (TIER_BILOCATION, "biloc_conflict"),
    (TIER_BIVALUE, "bivalue_cycle"),
    (TIER_BIVALUE, "bivalue_repeat"),
    (TIER_BIVALUE, "bivalue_conflict"),
    (TIER_BIVALUE, "mixed_conflict"),
)

_RULE_FUNCTIONS = {
    "hidden_single": hidden_singles,
    "naked_single": naked_singles,
    "intersection_triple": intersection_triples,
    "box_line": box_line,
    "hidden_pair": hidden_pairs,
    "digit_matching": digit_grid_matching,
    "group_matching": group_matching,
    "biloc_cycle": bilocation_cycle_rule,
    "biloc_repeat": bilocation_repeat_rule,
    "biloc_conflict": bilocation_conflict_rule,
    "bivalue_cycle": bivalue_cycle_rule,
    "bivalue_repeat": bivalue_repeat_rule,
    "bivalue_conflict": bivalue_conflict_rule,
    "mixed_conflict": mixed_conflict_rule,
}

RULE_TIER = {name: tier for tier, name in RULES}


def rule_deductions(board: Board, rule: str) -> list[Deduction]:
    """All current firings of one named rule, in deterministic scan order."""
    try:
        fn = _RULE_FUNCTIONS[rule]
    except KeyError:
        raise ValueError(f"unknown rule {rule!r}") from None
    return fn(board)


def solve(board: Board, max_tier: int = TIER_BIVALUE) -> SolveTrace:
    """Apply the cheapest firing rule one deduction at a time."""
    current = board.copy()
    deductions: list[Deduction] = []
    tiers: list[int] = []
    outcome = "stuck"
    if current.first_empty_candidate_violation() is not None:
        return SolveTrace((), (), "contradiction", board=current)
    while True:
        if current.is_complete():
            outcome = "solved"
            break
        fired = None
        for tier, name in RULES:
            if tier > max_tier:
                continue
            found = _RULE_FUNCTIONS[name](current)
            if found:
                fired = (tier, found[0])
                break
        if fired is None:
            outcome = "stuck"
            break
        tier, deduction = fired
        deductions.append(deduction)
        tiers.append(tier)
        result = apply_deduction(current, deduction)
        if isinstance(result, Contradiction):
            outcome = "contradiction"
            break
        current = result
    return SolveTrace(tuple(deductions), tuple(tiers), outcome, board=current)
