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

Every rule reads a digit's homes in a group off the candidate masks of the
group's empty cells, in group order.  Every rule takes a ``_BoardState``: the
board plus what the rules derive from it, each piece computed on first use
and at most once.  It holds, where each line meets each box, the digits
confined there within the line and within the box (read by the tier-1
rules), the bilocation graph with its label-switch expansion, the expansion
of the bipartite bivalue graph, the start pairs of both graphs and one reach
result per (expansion, start vertex, first label).  So the rules that run on
one board state share these instead of rebuilding them.  Rules never mutate
the state, its board or anything it holds.

A state also holds a memo of matching results, which ``solve`` shares across
all the states of one solve (``rule_deductions`` gives each state its own).
A deduction changes few candidates, so most matching instances of the next
state were already solved.  The memo maps an instance, keyed on its
index-space adjacency, to its index-space answer: is there a perfect
matching, and which (left, right) edges lie in none.  A group's answer is
also keyed on the values and candidate masks of its cells, so a group that
did not change is answered without rebuilding its adjacency.  Each state
maps the answer back to cells and digits itself, so a memo hit yields what a
fresh computation would.  The reach rules read their answers from the reach
results' bitsets (``ReachResult.arrival``, ``.arrivals``), made by one pass
over the strong components, and run a DFS only for the walks a firing prints.

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


def _digits(mask: int) -> list[int]:
    """The digits of a candidate mask, lowest first."""
    digits = []
    while mask:
        low = mask & -mask
        digits.append(low.bit_length())
        mask ^= low
    return digits


def _two_home_digits(cells, values, cand) -> int:
    """The mask of the digits with exactly two empty homes among ``cells``:
    the candidate masks of the empty cells folded once, twice and three
    times."""
    once = twice = thrice = 0
    for c in cells:
        if not values[c]:
            m = cand[c]
            thrice |= twice & m
            twice |= once & m
            once |= m
    return twice & ~thrice


def _bivalued_cells(board: Board) -> list[int]:
    return [c for c in board.empty_cells() if board.candidate_count(c) == 2]


class _BoardState:
    """One board state and what the rules derive from it, built lazily.

    ``memo`` holds the matching rules' index-space answers; it may be shared
    with other states (``solve`` shares one across a solve), because its keys
    are the instances themselves, never the board they came from.
    """

    def __init__(self, board: Board, memo: Optional[dict] = None):
        self.board = board
        self.geo = geometry(board.box)
        self.memo = {} if memo is None else memo
        self._reaches: dict[tuple, ReachResult] = {}

    @cached_property
    def confined(self) -> tuple[list[int], list[int]]:
        """Per ``_line_box_pairs`` entry, two masks of the digits with a home
        where its line meets its box: those with no other home in the line,
        and those with no other home in the box.

        Each line folds the candidate masks of its intersections once and
        twice, and so does each box, its rows apart from its columns, since
        either set alone covers the box.  Fold f is line f for f < 2n; a
        box's rows fold at its group id and its columns fold n further on."""
        values, cand, n = self.board.values, self.board.cand, self.board.n
        pairs = _line_box_pairs(self.board.box)[0]
        once = [0] * (4 * n)
        twice = [0] * (4 * n)
        masks = []
        box_folds = []
        for line, bg, inter in pairs:
            m = 0
            for c in inter:
                if not values[c]:
                    m |= cand[c]
            masks.append(m)
            f = bg + n if line >= n else bg
            box_folds.append(f)
            twice[line] |= once[line] & m
            once[line] |= m
            twice[f] |= once[f] & m
            once[f] |= m
        in_line = [m & ~twice[line] for (line, _bg, _i), m in zip(pairs, masks)]
        in_box = [m & ~twice[f] for m, f in zip(masks, box_folds)]
        return in_line, in_box

    @cached_property
    def bilocation(self) -> BilocationGraph:
        return build_bilocation_graph(self.board)

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
        return LabelSwitchDigraph(build_bipartite_bivalue_graph(self.board).graph)

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
def _line_box_pairs(box: int):
    """(pairs, group pairs).  A pair is (line, box group, the cells where
    they meet), for every line and box that meet, lines in group order and
    each line's boxes in order; ``group_pairs[g]`` lists the indices of the
    pairs of group g in that order, so a box lists its rows, then its
    columns."""
    geo = geometry(box)
    pairs = []
    for line in range(2 * geo.n):
        line_cells = geo.group_cells[line]
        for bg in sorted({geo.groups_of_cell[c][2] for c in line_cells}):
            inter = tuple(c for c in line_cells if geo.groups_of_cell[c][2] == bg)
            pairs.append((line, bg, inter))
    group_pairs = [[] for _ in geo.group_cells]
    for i, (line, bg, _inter) in enumerate(pairs):
        group_pairs[line].append(i)
        group_pairs[bg].append(i)
    return tuple(pairs), tuple(map(tuple, group_pairs))


def intersection_triples(state: _BoardState) -> Iterator[Deduction]:
    """B digits confined, within a line or a box, to the B cells where the
    line meets the box must fill exactly those cells: other digits leave the
    intersection, and the confined digits leave the rest of both groups.

    The digits confined within the line, then within the box, are read off
    ``_BoardState.confined``; a group fires when their count equals the
    number of free intersection cells."""
    board, geo = state.board, state.geo
    values, cand = board.values, board.cand
    in_line, in_box = state.confined
    for i, (line, bg, inter) in enumerate(_line_box_pairs(board.box)[0]):
        free = [c for c in inter if values[c] == 0]
        if len(free) < 2:
            continue
        for src, other, confined_mask in ((line, bg, in_line[i]), (bg, line, in_box[i])):
            if confined_mask.bit_count() != len(free):
                continue
            confined = _digits(confined_mask)
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
    and homes of a line confined to one box clear the rest of the box.

    A line reads the digits confined within it to each of its box
    intersections, a box those confined within it to each of its rows and
    then each of its columns, all off ``_BoardState.confined``; a digit
    confined to both a row and a column of a box goes by the row.  Firings
    come in group order, then digit order."""
    board, geo = state.board, state.geo
    values, cand = board.values, board.cand
    pairs, group_pairs = _line_box_pairs(board.box)
    in_line, in_box = state.confined
    lines = 2 * board.n
    for g, ids in enumerate(group_pairs):
        masks = in_line if g < lines else in_box
        pending = 0
        for i in ids:
            pending |= masks[i]
        while pending:
            bit = pending & -pending
            pending ^= bit
            i = next(i for i in ids if masks[i] & bit)
            line, bg, inter = pairs[i]
            target = bg if g < lines else line
            d = bit.bit_length()
            elims = tuple(
                (c, d)
                for c in geo.group_cells[target]
                if not values[c] and cand[c] & bit and c not in inter
            )
            if elims:
                yield Deduction(
                    "box_line",
                    eliminations=elims,
                    witness=f"{geo.group_name(g)}->{geo.group_name(target)}[{d}]",
                )


def hidden_pairs(state: _BoardState) -> Iterator[Deduction]:
    """Two digits sharing the same two homes in a group own those cells.

    Per group, ``_two_home_digits`` marks the digits with exactly two
    homes.  Two of them share their homes exactly when two cells both hold
    both, so only cells holding at least two such digits are paired up.
    Firings come in group order, then digit pair order."""
    board, geo = state.board, state.geo
    values, cand = board.values, board.cand
    for g, cells in enumerate(geo.group_cells):
        two = _two_home_digits(cells, values, cand)
        if not two & (two - 1):
            continue  # fewer than two such digits
        held = [(c, cand[c] & two) for c in cells if not values[c]]
        held = [(c, m) for c, m in held if m & (m - 1)]
        pairs = []
        for i, (a, held_a) in enumerate(held):
            for b, held_b in held[i + 1 :]:
                digits = _digits(held_a & held_b)
                pairs += [
                    (x, y, a, b) for j, x in enumerate(digits) for y in digits[j + 1 :]
                ]
        for x, y, a, b in sorted(pairs):
            elims = tuple(
                (c, d) for c in (a, b) for d in board.candidates(c) if d not in (x, y)
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


def _forbidden_edges(memo: dict, adjacency: tuple[tuple[int, ...], ...]):
    """(perfect, [(l, r) forbidden...]) for the square bipartite instance
    whose left vertex l has the rights ``adjacency[l]``, memoized on it."""
    found = memo.get(adjacency)
    if found is None:
        num = len(adjacency)
        edges = [(l, r) for l, row in enumerate(adjacency) for r in row]
        size, _, _, forbidden = _kernels.bipartite_forbidden(num, num, edges)
        if size != num:
            found = False, []
        else:
            found = True, [edge for edge, bad in zip(edges, forbidden) if bad]
        memo[adjacency] = found
    return found


def digit_grid_matching(state: _BoardState) -> Iterator[Deduction]:
    """Per digit: cover every row and column with one copy, as a row/column
    matching; candidate cells on edges of no perfect matching are cleared.
    A row's candidates are read off the masks of its empty cells in its
    free columns.  The answer is memoized on the row-to-column adjacency."""
    board, memo = state.board, state.memo
    n, values, cand = board.n, board.values, board.cand
    in_rows = [0] * (n + 1)  # bit r of in_rows[d]: row r holds d
    in_cols = [0] * (n + 1)
    for cell, v in enumerate(values):
        if v:
            in_rows[v] |= 1 << (cell // n)
            in_cols[v] |= 1 << (cell % n)
    for d in range(1, n + 1):
        rows = [r for r in range(n) if not in_rows[d] >> r & 1]
        if not rows:
            continue
        cols = [c for c in range(n) if not in_cols[d] >> c & 1]
        bit = 1 << (d - 1)
        adjacency = tuple(
            tuple(i for i, c in enumerate(cols) if not values[r * n + c] and cand[r * n + c] & bit)
            for r in rows
        )
        perfect, bad = _forbidden_edges(memo, adjacency)
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
    on edges of no perfect matching are cleared.  The answer is memoized on
    the group's cells too: a placed cell keys as its negated value, an empty
    one as its candidate mask."""
    board, geo, memo = state.board, state.geo, state.memo
    values, cand = board.values, board.cand

    def free_and_digits(cells):
        free = [c for c in cells if values[c] == 0]
        placed = set(values[c] for c in cells if values[c])
        return free, [d for d in range(1, board.n + 1) if d not in placed]

    for g, cells in enumerate(geo.group_cells):
        key = ("group",) + tuple([-values[c] if values[c] else cand[c] for c in cells])
        found = memo.get(key)
        if found is None:
            free, digits = free_and_digits(cells)
            adjacency = tuple(
                tuple(i for i, c in enumerate(free) if cand[c] >> (d - 1) & 1) for d in digits
            )
            # A full group has nothing to match.
            found = memo[key] = _forbidden_edges(memo, adjacency) if free else (True, [])
        perfect, bad = found
        if not perfect:
            yield Deduction(
                "group_matching",
                contradiction=True,
                reason=f"{geo.group_name(g)} admits no complete placement",
            )
            continue
        if bad:
            free, digits = free_and_digits(cells)
            yield Deduction(
                "group_matching",
                eliminations=tuple((free[r], digits[l]) for l, r in bad),
                witness=geo.group_name(g),
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


def build_bilocation_graph(board: Board) -> BilocationGraph:
    """The bilocation graph of ``board``: per group, in group order, an edge
    for each digit, lowest first, that has exactly two empty homes there and
    is not placed in the group."""
    geo = geometry(board.box)
    values, cand = board.values, board.cand
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    pair_digits: dict[tuple[int, int], list[int]] = {}
    contradiction = None
    for cells in geo.group_cells:
        two = _two_home_digits(cells, values, cand)
        for c in cells:
            if values[c]:
                two &= ~(1 << (values[c] - 1))
        while two:
            bit = two & -two
            two ^= bit
            d = bit.bit_length()
            a, b = [c for c in cells if not values[c] and cand[c] & bit]
            key = (a, b, d)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            digits = pair_digits.setdefault((a, b), [])
            digits.append(d)
            if len(digits) >= 3 and contradiction is None:
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
    return bivalue, build_bipartite_bivalue_graph(board)


def build_bipartite_bivalue_graph(board: Board) -> BipartiteBivalueGraph:
    """The bipartite form of the bivalue graph of ``board``, without the graph itself."""
    geo = geometry(board.box)
    bivalued = _bivalued_cells(board)
    groups = [(g, d) for g in range(len(geo.group_cells)) for d in range(1, board.n + 1)]
    edges = [
        (c, (g, d), ("d", d), ("c", c))
        for c in bivalued
        for g in geo.groups_of_cell[c]
        for d in board.candidates(c)
    ]
    return BipartiteBivalueGraph(FlagLabeledGraph(False, edges, vertices=bivalued + groups))


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
    values, cand = board.values, board.cand
    expansion = state.bivalue_expansion
    for g, group in enumerate(geo.group_cells):
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
            bit = 1 << (d - 1)
            elims = tuple(
                (c, d) for c in group if not values[c] and cand[c] & bit and c not in cells
            )
            if elims:
                yield Deduction("bivalue_cycle", eliminations=elims, witness=witness)


def bilocation_repeat_rule(state: _BoardState) -> Iterator[Deduction]:
    """A nonrepetitive bilocation walk that starts and ends at the same cell
    with the same label forces that label into the cell."""
    for cell, d in state.bilocation_starts:
        reach = state.reach(state.bilocation_expansion, cell, d)
        back = reach.arrival(cell, d)
        if back is not None:
            yield Deduction(
                "biloc_repeat",
                placements=((cell, d),),
                witness=_walk_summary(state.board.box, reach.walk_to(back)),
            )


def bivalue_repeat_rule(state: _BoardState) -> Iterator[Deduction]:
    """A bivalue forcing chain from (cell, d) back to the cell ending on d
    rules d out there, placing the cell's other candidate."""
    for cell, d, other in state.bivalue_starts:
        reach = state.reach(state.bivalue_expansion, cell, ("d", d))
        back = reach.arrival(cell, ("d", d))
        if back is not None:
            yield Deduction(
                "bivalue_repeat",
                placements=((cell, other),),
                witness=_walk_summary(state.board.box, reach.walk_to(back)),
            )


def _forced_by_bilocation(state: _BoardState, cell, digit):
    """(cell, digit) pairs forced when ``cell`` does not hold ``digit``:
    far endpoints of reachable edges take their far labels.  Each maps to
    the (edge id, direction) of its first traversal."""
    reach = state.reach(state.bilocation_expansion, cell, digit)
    return reach, reach.arrivals()


def _forced_by_bivalue(state: _BoardState, cell, digit):
    """(cell, digit) pairs forced when ``cell`` holds ``digit``: the far cell
    of a reached edge loses the far label, keeping its other candidate (far
    cells are bivalued, so their mask without the far label holds exactly
    one).  Each maps to the (edge id, direction) of its first traversal."""
    reach = state.reach(state.bivalue_expansion, cell, ("d", digit))
    cand = state.board.cand
    forced: dict[tuple[int, int], tuple[int, int]] = {}
    for (head, (_tag, label)), traversal in reach.arrivals().items():
        if isinstance(head, int):
            forced[head, (cand[head] & ~(1 << (label - 1))).bit_length()] = traversal
    return reach, forced


def _find_conflict(geo, forced_a: dict, forced_b: Optional[dict] = None):
    """The traversals of the first pair of distinct same-group cells forced
    to one digit, or None.

    With ``forced_b`` the pair must straddle the two maps (cross conflicts
    only); within-map conflicts belong to the pure rules.
    """
    first: dict[tuple[int, int], tuple[int, tuple[int, int]]] = {}
    within = forced_b is None
    for (cell, digit), traversal in sorted(forced_a.items()):
        for g in geo.groups_of_cell[cell]:
            hit = first.setdefault((digit, g), (cell, traversal))
            # Within one map, the first pair whose (digit, group) an earlier
            # pair already holds is the first clash.
            if within and hit[0] != cell:
                return hit[1], traversal
    if within:
        return None
    for (cell, digit), traversal in sorted(forced_b.items()):
        for g in geo.groups_of_cell[cell]:
            hit = first.get((digit, g))
            if hit is not None and hit[0] != cell:
                return hit[1], traversal
    return None


def _conflict_witness(box: int, reach_a, hit_a, reach_b, hit_b) -> str:
    """The two conflicting forcing chains, joined by ``|``; ``hit_a`` and
    ``hit_b`` are (edge id, direction) pairs of the two reaches."""
    return (
        _walk_summary(box, reach_a.walk_to(reach_a.traversal(*hit_a)))
        + "|"
        + _walk_summary(box, reach_b.walk_to(reach_b.traversal(*hit_b)))
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


def _listed(rule: Callable[[_BoardState], Iterator[Deduction]]):
    """The registry entry of a rule: its first ``limit`` firings as a list,
    all of them when ``limit`` is None."""

    def run(state: _BoardState, limit: Optional[int] = None) -> list[Deduction]:
        return list(islice(rule(state), limit))

    return run


# (tier, name, rule) in scheduling order: ``solve`` tries them in this order.
_RULE_TABLE = (
    (TIER_SINGLES, "hidden_single", hidden_singles),
    (TIER_SINGLES, "naked_single", naked_singles),
    (TIER_LOCAL, "intersection_triple", intersection_triples),
    (TIER_LOCAL, "box_line", box_line),
    (TIER_LOCAL, "hidden_pair", hidden_pairs),
    (TIER_MATCHING, "digit_matching", digit_grid_matching),
    (TIER_MATCHING, "group_matching", group_matching),
    (TIER_BILOCATION, "biloc_cycle", bilocation_cycle_rule),
    (TIER_BILOCATION, "biloc_repeat", bilocation_repeat_rule),
    (TIER_BILOCATION, "biloc_conflict", bilocation_conflict_rule),
    (TIER_BIVALUE, "bivalue_cycle", bivalue_cycle_rule),
    (TIER_BIVALUE, "bivalue_repeat", bivalue_repeat_rule),
    (TIER_BIVALUE, "bivalue_conflict", bivalue_conflict_rule),
    (TIER_BIVALUE, "mixed_conflict", mixed_conflict_rule),
)
RULES: tuple[tuple[int, str], ...] = tuple((tier, name) for tier, name, _ in _RULE_TABLE)
RULE_TIER = {name: tier for tier, name in RULES}
_RULE_FUNCTIONS = {name: _listed(rule) for _, name, rule in _RULE_TABLE}


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
    rule runs past its first firing.  One matching memo serves every state
    of the solve."""
    current = board.copy()
    deductions: list[Deduction] = []
    tiers: list[int] = []
    outcome = "stuck"
    if current.first_empty_candidate_violation() is not None:
        return SolveTrace((), (), "contradiction", board=current)
    memo: dict = {}
    while True:
        if current.is_complete():
            outcome = "solved"
            break
        state = _BoardState(current, memo)
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
