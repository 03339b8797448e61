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

Every rule takes a ``_BoardState``: the board plus what the rules derive from
it, each piece computed on first use and at most once.  It holds the digit
homes of every group, the bilocation graph with its label-switch expansion,
the expansion of the bipartite bivalue graph, the start pairs of both graphs
and one reach result per (expansion, start vertex, first label).  So the
rules that run on one board state share these instead of rebuilding them.
Rules never mutate the state, its board or anything it holds.

Every rule is a generator that yields its firings one at a time, in a fixed
scan order.  The registry runs it to a list: ``solve`` asks each rule for its
first firing only and stops scanning there, while ``rule_deductions`` takes
all of them.

``solve`` applies one deduction of the cheapest firing rule per step and
rescans from tier 0, so a trace is replayable and the difficulty tier
reflects the hardest rule actually needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice, permutations
from typing import Any, Callable, Iterator, Optional

from .. import _kernels
from ..engine import LabelSwitchDigraph, ReachedEdge, ReachResult
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


def _group_homes(board: Board) -> list[list[list[int]]]:
    """``homes[g][d]``: the cells of group g that admit digit d, in group order."""
    n, values, cand = board.n, board.values, board.cand
    table = []
    for cells in geometry(board.box).group_cells:
        homes: list[list[int]] = [[] for _ in range(n + 1)]
        for c in cells:
            if values[c] == 0:
                mask = cand[c]
                while mask:
                    low = mask & -mask
                    homes[low.bit_length()].append(c)
                    mask ^= low
        table.append(homes)
    return table


def _bivalued_cells(board: Board) -> list[int]:
    return [c for c in board.empty_cells() if board.candidate_count(c) == 2]


class _BoardState:
    """One board state and what the rules derive from it, built lazily."""

    def __init__(self, board: Board):
        self.board = board
        self.geo = geometry(board.box)
        self._reaches: dict[tuple, ReachResult] = {}

    @cached_property
    def homes(self) -> list[list[list[int]]]:
        return _group_homes(self.board)

    @cached_property
    def bilocation(self) -> BilocationGraph:
        return build_bilocation_graph(self.board, self.homes)

    @cached_property
    def bilocation_starts(self) -> list[tuple[int, int]]:
        """(cell, digit) at each end of a bilocation edge, sorted; empty when
        the graph holds a contradiction."""
        graph = self.bilocation.graph
        if self.bilocation.contradiction:
            return []
        starts = set()
        for eid in range(graph.num_edges):
            d = graph.edge_labels(eid)[0]
            for c in graph.endpoints(eid):
                starts.add((c, d))
        return sorted(starts)

    @cached_property
    def bilocation_expansion(self) -> LabelSwitchDigraph:
        return LabelSwitchDigraph(self.bilocation.graph)

    @cached_property
    def bivalue_starts(self) -> list[tuple[int, int, int]]:
        """(cell, d, e) for each bivalued cell with candidates {d, e}, both
        ways round, in cell order.  Every bivalued cell carries edges of the
        bipartite bivalue graph, so that graph is empty exactly when this
        list is."""
        board = self.board
        return [
            (c, d, e)
            for c in _bivalued_cells(board)
            for d, e in permutations(board.candidates(c))
        ]

    @cached_property
    def bivalue_expansion(self) -> LabelSwitchDigraph:
        return LabelSwitchDigraph(build_bivalue_graphs(self.board)[1].graph)

    def reach(self, expansion: LabelSwitchDigraph, vertex: Any, label: Any) -> ReachResult:
        """``expansion.reachable_from(vertex, label)``, computed once."""
        key = (expansion, vertex, label)
        found = self._reaches.get(key)
        if found is None:
            found = self._reaches[key] = expansion.reachable_from(vertex, label)
        return found


# ---------------------------------------------------------------------------
# Local rules (tier 0 and 1)
# ---------------------------------------------------------------------------


def hidden_singles(state: _BoardState) -> Iterator[Deduction]:
    """A digit with a single remaining home in some group is placed there.

    Per group, over the candidate masks m of its empty cells,
    ``twice |= once & m; once |= m``.  The digits of
    ``once & ~twice & ~placed`` have exactly one empty home and are not
    placed in the group; they are yielded lowest first, each at that home,
    and a (cell, digit) already yielded for an earlier group is skipped.
    """
    geo = state.geo
    values, cand = state.board.values, state.board.cand
    seen = set()
    for g, cells in enumerate(geo.group_cells):
        once = twice = placed = 0
        for c in cells:
            v = values[c]
            if v:
                placed |= 1 << (v - 1)
            else:
                m = cand[c]
                twice |= once & m
                once |= m
        single = once & ~twice & ~placed
        while single:
            bit = single & -single
            single ^= bit
            home = next(c for c in cells if not values[c] and cand[c] & bit)
            key = (home, bit.bit_length())
            if key not in seen:
                seen.add(key)
                yield Deduction(
                    "hidden_single", placements=(key,), witness=geo.group_name(g)
                )


def naked_singles(state: _BoardState) -> Iterator[Deduction]:
    """A cell with a single candidate receives it."""
    values = state.board.values
    for cell, m in enumerate(state.board.cand):
        if m and not m & (m - 1) and values[cell] == 0:
            yield Deduction("naked_single", placements=((cell, m.bit_length()),))


@cache
def _line_box_pairs(box: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(line, box group, the cells where they meet) for every line and box
    that meet, lines in group order and each line's boxes in order."""
    geo = geometry(box)
    pairs = []
    for line in range(2 * geo.n):
        line_cells = geo.group_cells[line]
        boxes = sorted({geo.groups_of_cell[c][2] for c in line_cells})
        for bg in boxes:
            inter = tuple(c for c in line_cells if geo.groups_of_cell[c][2] == bg)
            if len(inter) == box:
                pairs.append((line, bg, inter))
    return tuple(pairs)


def intersection_triples(state: _BoardState) -> Iterator[Deduction]:
    """B digits confined, within a line or a box, to the B cells where the
    line meets the box must fill exactly those cells: other digits leave the
    intersection, and the confined digits leave the rest of both groups.

    A digit is confined to the free intersection cells of a group when it is
    a candidate of one of them (``inside``) and of no other empty cell of the
    group (``outside``), all read off the candidate masks."""
    board, geo = state.board, state.geo
    values, cand = board.values, board.cand
    for line, bg, inter in _line_box_pairs(board.box):
        free = [c for c in inter if values[c] == 0]
        if len(free) < 2:
            continue
        inside = 0
        for c in free:
            inside |= cand[c]
        for src, other in ((line, bg), (bg, line)):
            outside = 0
            for c in geo.group_cells[src]:
                if values[c] == 0 and c not in inter:
                    outside |= cand[c]
            confined_mask = inside & ~outside
            if confined_mask.bit_count() != len(free):
                continue
            confined = [d for d in range(1, board.n + 1) if confined_mask >> (d - 1) & 1]
            elims = [(c, d) for c in free for d in board.candidates(c) if d not in confined]
            # The confined digits are locked inside the intersection, so they
            # vacate the rest of the other containing group (the source group
            # holds no further homes for them by construction).
            elims += [
                (c, d)
                for c in geo.group_cells[other]
                if values[c] == 0 and c not in inter
                for d in confined
                if cand[c] >> (d - 1) & 1
            ]
            if elims:
                yield Deduction(
                    "intersection_triple",
                    eliminations=tuple(sorted(set(elims))),
                    witness=f"{geo.group_name(src)}"
                    f"[{','.join(map(str, confined))}]",
                )


def box_line(state: _BoardState) -> Iterator[Deduction]:
    """Digit homes of a box confined to one line clear the rest of the line,
    and homes of a line confined to one box clear the rest of the box."""
    board, geo = state.board, state.geo
    n = board.n
    for g, cells in enumerate(geo.group_cells):
        for d in range(1, n + 1):
            homes = state.homes[g][d]
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
            elims = tuple((c, d) for c in state.homes[target][d] if c not in cells)
            if elims:
                yield Deduction(
                    "box_line",
                    eliminations=elims,
                    witness=f"{geo.group_name(g)}->{geo.group_name(target)}[{d}]",
                )


def hidden_pairs(state: _BoardState) -> Iterator[Deduction]:
    """Two digits sharing the same two homes in a group own those cells."""
    board, geo = state.board, state.geo
    for g, homes in enumerate(state.homes):
        digits = [d for d in range(1, board.n + 1) if len(homes[d]) == 2]
        for i, x in enumerate(digits):
            for y in digits[i + 1 :]:
                if homes[x] != homes[y]:
                    continue
                elims = tuple(
                    (c, d) for c in homes[x] for d in board.candidates(c) if d not in (x, y)
                )
                if elims:
                    yield Deduction(
                        "hidden_pair",
                        eliminations=elims,
                        witness=f"{geo.group_name(g)}[{x},{y}]",
                    )


# ---------------------------------------------------------------------------
# Matching rules (tier 2)
# ---------------------------------------------------------------------------


def _forbidden_edges(num: int, adjacency: list[list[int]]):
    """(perfect, [(l, r) forbidden...]) for a square bipartite instance."""
    edges = [(l, r) for l, row in enumerate(adjacency) for r in row]
    size, _, _, forbidden = _kernels.bipartite_forbidden(num, num, edges)
    if size != num:
        return False, []
    return True, [edge for edge, bad in zip(edges, forbidden) if bad]


def digit_grid_matching(state: _BoardState) -> Iterator[Deduction]:
    """Per digit: cover every row and column with one copy, as a row/column
    matching; candidate cells on edges of no perfect matching are cleared."""
    board = state.board
    n = board.n
    for d in range(1, n + 1):
        rows = [r for r in range(n) if all(board.values[r * n + c] != d for c in range(n))]
        if not rows:
            continue
        cols = [c for c in range(n) if all(board.values[r * n + c] != d for r in range(n))]
        col_index = {c: i for i, c in enumerate(cols)}
        # Row group r lists its cells in column order.
        adjacency = [
            [col_index[c % n] for c in state.homes[r][d] if c % n in col_index]
            for r in rows
        ]
        perfect, bad = _forbidden_edges(len(rows), adjacency)
        if not perfect:
            yield Deduction(
                "digit_matching",
                contradiction=True,
                reason=f"digit {d} cannot cover every row and column",
            )
            continue
        elims = tuple((rows[l] * n + cols[r], d) for l, r in bad)
        if elims:
            yield Deduction("digit_matching", eliminations=elims, witness=f"digit {d}")


def group_matching(state: _BoardState) -> Iterator[Deduction]:
    """Per group: complete it as a digit/cell matching; candidate placements
    on edges of no perfect matching are cleared."""
    board, geo = state.board, state.geo
    for g, cells in enumerate(geo.group_cells):
        free = [c for c in cells if board.values[c] == 0]
        if not free:
            continue
        placed = set(board.values[c] for c in cells if board.values[c])
        digits = [d for d in range(1, board.n + 1) if d not in placed]
        cell_index = {c: i for i, c in enumerate(free)}
        adjacency = [[cell_index[c] for c in state.homes[g][d]] for d in digits]
        perfect, bad = _forbidden_edges(len(digits), adjacency)
        if not perfect:
            yield Deduction(
                "group_matching",
                contradiction=True,
                reason=f"{geo.group_name(g)} admits no complete placement",
            )
            continue
        elims = tuple((free[r], digits[l]) for l, r in bad)
        if elims:
            yield Deduction(
                "group_matching", eliminations=elims, witness=geo.group_name(g)
            )


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


def build_bilocation_graph(board: Board, homes=None) -> BilocationGraph:
    """The bilocation graph of ``board``; ``homes`` is its ``_group_homes``
    table when the caller already holds one."""
    geo = geometry(board.box)
    if homes is None:
        homes = _group_homes(board)
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    pair_digits: dict[tuple[int, int], list[int]] = {}
    contradiction = None
    for cells, homes_of in zip(geo.group_cells, homes):
        placed = set(board.values[c] for c in cells if board.values[c])
        for d in range(1, board.n + 1):
            pair = homes_of[d]
            if d in placed or len(pair) != 2:
                continue
            key = (pair[0], pair[1], d)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            digits = pair_digits.setdefault((pair[0], pair[1]), [])
            digits.append(d)
            if len(digits) >= 3 and contradiction is None:
                a, b = pair
                contradiction = Contradiction(
                    f"cells {cell_name(board.box, a)},{cell_name(board.box, b)} "
                    f"are the only homes of digits {digits}"
                )
    graph = FlagLabeledGraph(False, edges, vertices=board.empty_cells())
    return BilocationGraph(graph, contradiction)


def build_bivalue_graphs(board: Board) -> tuple[BivalueGraph, BipartiteBivalueGraph]:
    geo = geometry(board.box)
    bivalued = _bivalued_cells(board)
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


def _walk_summary(box: int, steps: list[ReachedEdge]) -> str:
    def name(v):
        if isinstance(v, int):
            return cell_name(box, v)
        g, d = v
        return f"g{g}d{d}"

    parts = [name(steps[0].tail)]
    for s in steps:
        # A bipartite bivalue flag is ("d", digit) or ("c", cell).
        label = s.far_label[1] if isinstance(s.far_label, tuple) else s.far_label
        parts.append(f"{label}>{name(s.head)}")
    return "-".join(str(p) for p in parts)


def bilocation_cycle_rule(state: _BoardState) -> Iterator[Deduction]:
    """Each nonrepetitive bilocation cycle through a cell restricts the cell
    to the two labels the cycle uses there; the cell's value must lie in the
    intersection of those label pairs over all cycles, and an empty
    intersection is a contradiction."""
    bl = state.bilocation
    if bl.contradiction:
        yield Deduction("biloc_cycle", contradiction=True, reason=bl.contradiction.reason)
        return
    if bl.graph.num_edges == 0:
        return
    board = state.board
    expansion = state.bilocation_expansion
    for cell in board.empty_cells():
        pairs = expansion.cycle_transit_pairs(cell)
        if not pairs:
            continue
        allowed = set.intersection(*(set(p) for p in pairs))
        witness = ";".join(
            "{" + ",".join(str(d) for d in sorted(p)) + "}" for p in sorted(pairs, key=sorted)
        )
        if not allowed:
            yield Deduction(
                "biloc_cycle",
                contradiction=True,
                reason=f"{cell_name(board.box, cell)} sits on cycles with "
                "incompatible label pairs",
                witness=witness,
            )
            continue
        elims = tuple(
            (cell, d) for d in board.candidates(cell) if d not in allowed
        )
        if elims:
            yield Deduction("biloc_cycle", eliminations=elims, witness=witness)


def bivalue_cycle_rule(state: _BoardState) -> Iterator[Deduction]:
    """A bivalue cycle through a (group, digit) vertex confines that digit to
    the two member cells the cycle transits; intersecting over all cycles
    leaves the digit's only possible homes in the group."""
    if not state.bivalue_starts:
        return
    board, geo = state.board, state.geo
    expansion = state.bivalue_expansion
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
                yield Deduction(
                    "bivalue_cycle",
                    contradiction=True,
                    reason=f"{geo.group_name(g)} has no home left for "
                    f"digit {d} compatible with its cycles",
                    witness=witness,
                )
                continue
            elims = tuple((c, d) for c in state.homes[g][d] if c not in cells)
            if elims:
                yield Deduction("bivalue_cycle", eliminations=elims, witness=witness)


def bilocation_repeat_rule(state: _BoardState) -> Iterator[Deduction]:
    """A nonrepetitive bilocation walk that starts and ends at the same cell
    with the same label forces that label into the cell."""
    for cell, d in state.bilocation_starts:
        reach = state.reach(state.bilocation_expansion, cell, d)
        for re in reach.edges:
            if re.head == cell and re.far_label == d:
                walk = reach.walk_to(re)
                yield Deduction(
                    "biloc_repeat",
                    placements=((cell, d),),
                    witness=_walk_summary(state.board.box, walk),
                )
                break


def bivalue_repeat_rule(state: _BoardState) -> Iterator[Deduction]:
    """A bivalue forcing chain from (cell, d) back to the cell ending on d
    rules d out there, placing the cell's other candidate."""
    for cell, d, other in state.bivalue_starts:
        reach = state.reach(state.bivalue_expansion, cell, ("d", d))
        for re in reach.edges:
            if re.head == cell and re.far_label == ("d", d):
                walk = reach.walk_to(re)
                yield Deduction(
                    "bivalue_repeat",
                    placements=((cell, other),),
                    witness=_walk_summary(state.board.box, walk),
                )
                break


def _forced_by_bilocation(state: _BoardState, cell, digit):
    """(cell, digit) pairs forced when ``cell`` does not hold ``digit``:
    far endpoints of reachable edges take their far labels."""
    reach = state.reach(state.bilocation_expansion, cell, digit)
    forced: dict[tuple[int, int], ReachedEdge] = {}
    for re in reach.edges:
        forced.setdefault((re.head, re.far_label), re)
    return reach, forced


def _forced_by_bivalue(state: _BoardState, cell, digit):
    """(cell, digit) pairs forced when ``cell`` holds ``digit``: the far cell
    of a reached edge loses the far label, keeping its other candidate (far
    cells are bivalued, so there is exactly one)."""
    reach = state.reach(state.bivalue_expansion, cell, ("d", digit))
    forced: dict[tuple[int, int], ReachedEdge] = {}
    for re in reach.edges:
        if not isinstance(re.head, int):
            continue
        label = re.far_label[1]
        other = next(x for x in state.board.candidates(re.head) if x != label)
        forced.setdefault((re.head, other), re)
    return reach, forced


def _find_conflict(geo, forced_a: dict, forced_b: Optional[dict] = None):
    """The reached edges of the first pair of distinct same-group cells
    forced to one digit, or None.

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
                return hit[1], re
    return None


def _conflict_witness(box: int, reach_a, re_a, reach_b, re_b) -> str:
    """The two conflicting forcing chains, joined by ``|``."""
    return (
        _walk_summary(box, reach_a.walk_to(re_a))
        + "|"
        + _walk_summary(box, reach_b.walk_to(re_b))
    )


def bilocation_conflict_rule(state: _BoardState) -> Iterator[Deduction]:
    """Two forcing chains from (cell, d) that push one digit onto two cells
    of a group cannot both hold, so the cell must hold d."""
    for cell, d in state.bilocation_starts:
        reach, forced = _forced_by_bilocation(state, cell, d)
        hit = _find_conflict(state.geo, forced)
        if hit is not None:
            witness = _conflict_witness(state.board.box, reach, hit[0], reach, hit[1])
            yield Deduction("biloc_conflict", placements=((cell, d),), witness=witness)


def bivalue_conflict_rule(state: _BoardState) -> Iterator[Deduction]:
    """Two bivalue chains from (cell, d) forcing one digit onto two cells of
    a group refute the start assumption; the cell takes its other candidate."""
    for cell, d, other in state.bivalue_starts:
        reach, forced = _forced_by_bivalue(state, cell, d)
        hit = _find_conflict(state.geo, forced)
        if hit is not None:
            witness = _conflict_witness(state.board.box, reach, hit[0], reach, hit[1])
            yield Deduction(
                "bivalue_conflict", placements=((cell, other),), witness=witness
            )


def mixed_conflict_rule(state: _BoardState) -> Iterator[Deduction]:
    """For a bivalued cell with candidates {d, e}, the assumption "not d"
    drives bilocation chains from (cell, d) and bivalue chains from
    (cell, e) simultaneously; a cross conflict places d."""
    if not state.bilocation_starts:
        return
    for cell, d, e in state.bivalue_starts:
        reach_bl, forced_bl = _forced_by_bilocation(state, cell, d)
        if not forced_bl:
            continue
        reach_bb, forced_bb = _forced_by_bivalue(state, cell, e)
        if not forced_bb:
            continue
        hit = _find_conflict(state.geo, forced_bl, forced_bb)
        if hit is not None:
            witness = _conflict_witness(state.board.box, reach_bl, hit[0], reach_bb, hit[1])
            yield Deduction("mixed_conflict", placements=((cell, d),), witness=witness)


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


def _listed(rule: Callable[[_BoardState], Iterator[Deduction]]):
    """The registry entry of a rule: its first ``limit`` firings as a list,
    all of them when ``limit`` is None."""

    def run(state: _BoardState, limit: Optional[int] = None) -> list[Deduction]:
        return list(islice(rule(state), limit))

    return run


_RULE_FUNCTIONS = {
    name: _listed(rule)
    for name, rule in (
        ("hidden_single", hidden_singles),
        ("naked_single", naked_singles),
        ("intersection_triple", intersection_triples),
        ("box_line", box_line),
        ("hidden_pair", hidden_pairs),
        ("digit_matching", digit_grid_matching),
        ("group_matching", group_matching),
        ("biloc_cycle", bilocation_cycle_rule),
        ("biloc_repeat", bilocation_repeat_rule),
        ("biloc_conflict", bilocation_conflict_rule),
        ("bivalue_cycle", bivalue_cycle_rule),
        ("bivalue_repeat", bivalue_repeat_rule),
        ("bivalue_conflict", bivalue_conflict_rule),
        ("mixed_conflict", mixed_conflict_rule),
    )
}

RULE_TIER = {name: tier for tier, name in RULES}


def rule_deductions(board: Board, rule: str) -> list[Deduction]:
    """All current firings of one named rule, in its scan order: the whole
    sequence its generator yields on this board."""
    try:
        fn = _RULE_FUNCTIONS[rule]
    except KeyError:
        raise ValueError(f"unknown rule {rule!r}") from None
    return fn(_BoardState(board))


def solve(board: Board, max_tier: int = TIER_BIVALUE) -> SolveTrace:
    """Apply the cheapest firing rule one deduction at a time.

    Each rule yields its firings in scan order; ``solve`` takes only the first
    firing of the first rule, in ``RULES`` order, that yields one, and no
    rule runs past its first firing."""
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
        state = _BoardState(current)
        fired = None
        for tier, name in RULES:
            if tier > max_tier:
                continue
            found = _RULE_FUNCTIONS[name](state, 1)
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
