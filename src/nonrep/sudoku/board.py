"""Sudoku board state, candidate bookkeeping, and deduction application.

A board is a B^2 x B^2 grid; every cell is either placed (digit 1..B^2) or
carries a candidate set, stored as a bitmask.  Groups (rows, columns, boxes)
are indexed 0..3B^2-1 in that order, each in reading order.  Boards are
value-semantic: rules never mutate their input, and a solve works on a
private copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


class _Geometry:
    """Index tables for one box size, shared by every board of that size."""

    def __init__(self, box: int):
        n = box * box
        self.box = box
        self.n = n
        self.size = n * n
        rows = [tuple(r * n + c for c in range(n)) for r in range(n)]
        cols = [tuple(r * n + c for r in range(n)) for c in range(n)]
        boxes = []
        for br in range(box):
            for bc in range(box):
                boxes.append(
                    tuple(
                        (br * box + i) * n + bc * box + j
                        for i in range(box)
                        for j in range(box)
                    )
                )
        self.group_cells: tuple[tuple[int, ...], ...] = tuple(rows + cols + boxes)
        self.groups_of_cell = []
        for cell in range(self.size):
            r, c = divmod(cell, n)
            b = (r // box) * box + c // box
            self.groups_of_cell.append((r, n + c, 2 * n + b))
        self.peers = []
        for cell in range(self.size):
            ps = set()
            for g in self.groups_of_cell[cell]:
                ps.update(self.group_cells[g])
            ps.discard(cell)
            self.peers.append(tuple(sorted(ps)))

    def group_name(self, g: int) -> str:
        n = self.n
        if g < n:
            return f"row {g + 1}"
        if g < 2 * n:
            return f"col {g - n + 1}"
        return f"box {g - 2 * n + 1}"


_GEOMETRY: dict[int, _Geometry] = {}


def geometry(box: int) -> _Geometry:
    geo = _GEOMETRY.get(box)
    if geo is None:
        if not 2 <= box <= 8:
            raise ValueError("box size must be between 2 and 8")
        geo = _GEOMETRY[box] = _Geometry(box)
    return geo


def cell_name(box: int, cell: int) -> str:
    n = box * box
    return f"r{cell // n + 1}c{cell % n + 1}"


class Board:
    """Grid state: placed digits plus candidate bitmasks for empty cells."""

    __slots__ = ("box", "n", "size", "values", "cand")

    def __init__(self, box: int = 3, values: Optional[Iterable[int]] = None):
        geo = geometry(box)
        self.box = box
        self.n = geo.n
        self.size = geo.size
        self.values = [0] * self.size if values is None else list(values)
        if len(self.values) != self.size:
            raise ValueError(f"expected {self.size} cells, got {len(self.values)}")
        self.cand = [0] * self.size
        self._init_candidates()

    def _init_candidates(self):
        geo = geometry(self.box)
        full = (1 << self.n) - 1
        used = [0] * (3 * self.n)
        for cell, d in enumerate(self.values):
            if d == 0:
                continue
            if not 1 <= d <= self.n:
                raise ValueError(f"digit {d} out of range at cell {cell}")
            bit = 1 << (d - 1)
            for g in geo.groups_of_cell[cell]:
                if used[g] & bit:
                    raise ValueError(
                        f"digit {d} appears twice in {geo.group_name(g)}"
                    )
                used[g] |= bit
        for cell in range(self.size):
            if self.values[cell] == 0:
                g0, g1, g2 = geo.groups_of_cell[cell]
                self.cand[cell] = full & ~(used[g0] | used[g1] | used[g2])

    def copy(self) -> "Board":
        b = Board.__new__(Board)
        b.box = self.box
        b.n = self.n
        b.size = self.size
        b.values = self.values[:]
        b.cand = self.cand[:]
        return b

    # -- queries --------------------------------------------------------------

    def is_complete(self) -> bool:
        return 0 not in self.values

    def empty_cells(self) -> list[int]:
        return [c for c in range(self.size) if self.values[c] == 0]

    def candidates(self, cell: int) -> tuple[int, ...]:
        mask = self.cand[cell]
        return tuple(d + 1 for d in range(self.n) if mask >> d & 1)

    def candidate_count(self, cell: int) -> int:
        return self.cand[cell].bit_count()

    def admits(self, cell: int, digit: int) -> bool:
        return self.values[cell] == 0 and bool(self.cand[cell] >> (digit - 1) & 1)

    def first_empty_candidate_violation(self) -> Optional[int]:
        for cell in range(self.size):
            if self.values[cell] == 0 and self.cand[cell] == 0:
                return cell
        return None

    def verify_solution(self) -> bool:
        if not self.is_complete():
            return False
        geo = geometry(self.box)
        want = set(range(1, self.n + 1))
        return all(
            {self.values[c] for c in cells} == want for cells in geo.group_cells
        )

    # -- mutation (used via apply_deduction and the generator) ----------------

    def place(self, cell: int, digit: int) -> Optional[str]:
        """Place a digit and prune peers; returns a contradiction reason or None."""
        if self.values[cell] != 0:
            return f"{cell_name(self.box, cell)} is already filled"
        bit = 1 << (digit - 1)
        if not self.cand[cell] & bit:
            return f"{digit} is not a candidate at {cell_name(self.box, cell)}"
        self.values[cell] = digit
        self.cand[cell] = 0
        for peer in geometry(self.box).peers[cell]:
            if self.values[peer] == 0 and self.cand[peer] & bit:
                self.cand[peer] &= ~bit
                if self.cand[peer] == 0:
                    return f"no candidates left at {cell_name(self.box, peer)}"
        return None

    def eliminate(self, cell: int, digit: int) -> Optional[str]:
        if self.values[cell] != 0:
            return None  # candidate sets of placed cells are empty by invariant
        bit = 1 << (digit - 1)
        if self.cand[cell] & bit:
            self.cand[cell] &= ~bit
            if self.cand[cell] == 0:
                return f"no candidates left at {cell_name(self.box, cell)}"
        return None

    # -- text formats ----------------------------------------------------------

    def to_text(self) -> str:
        if self.box == 3:
            return "".join("." if v == 0 else str(v) for v in self.values)
        lines = [f"B {self.box}"]
        for r in range(self.n):
            lines.append(
                " ".join(str(self.values[r * self.n + c]) for c in range(self.n))
            )
        return "\n".join(lines) + "\n"

    def pretty(self) -> str:
        width = len(str(self.n))
        lines = []
        for r in range(self.n):
            if r % self.box == 0 and r:
                lines.append("")
            row = []
            for c in range(self.n):
                v = self.values[r * self.n + c]
                row.append("." * width if v == 0 else str(v).rjust(width))
                if c % self.box == self.box - 1 and c != self.n - 1:
                    row.append("|")
            lines.append(" ".join(row))
        return "\n".join(lines)

    def __repr__(self) -> str:
        filled = sum(1 for v in self.values if v)
        return f"<Board B={self.box} filled={filled}/{self.size}>"


def _ascii_int(token: str, what: str) -> int:
    """``int(token)`` for a token of ASCII digits only; ``int`` alone would
    also take signs, underscores and other scripts' digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"invalid {what} {token!r}")
    return int(token)


def parse_board(text: str) -> Board:
    """Parse the 81-char single-line form (B=3) or the ``B <n>`` header form."""
    stripped = text.strip()
    if stripped.startswith("B ") or stripped.startswith("B\t"):
        tokens = stripped.split()
        box = _ascii_int(tokens[1], "header box size")
        cells = tokens[2:]
        size = box**4
        if len(cells) != size:
            raise ValueError(f"expected {size} cell values, got {len(cells)}")
        values = [_ascii_int(tok, "cell value") for tok in cells]
        for v in values:
            if not 0 <= v <= box * box:
                raise ValueError(f"cell value {v} out of range")
        return Board(box, values)
    compact = "".join(stripped.split())
    if len(compact) != 81:
        raise ValueError(f"expected 81 characters, got {len(compact)}")
    values = []
    for ch in compact:
        if ch in ".0":
            values.append(0)
        elif "1" <= ch <= "9":
            values.append(ord(ch) - ord("0"))
        else:
            raise ValueError(f"invalid character {ch!r}")
    return Board(3, values)


# -- deductions ---------------------------------------------------------------


@dataclass(frozen=True)
class Deduction:
    """One rule firing: placements and/or eliminations, or a contradiction."""

    rule: str
    placements: tuple[tuple[int, int], ...] = ()
    eliminations: tuple[tuple[int, int], ...] = ()
    witness: Any = None
    contradiction: bool = False
    reason: str = ""


@dataclass(frozen=True)
class Contradiction:
    reason: str


def apply_deduction(board: Board, deduction: Deduction):
    """Apply a deduction to a copy of the board; returns Board or Contradiction."""
    if deduction.contradiction:
        return Contradiction(deduction.reason or f"rule {deduction.rule}")
    new = board.copy()
    for cell, digit in deduction.placements:
        reason = new.place(cell, digit)
        if reason is not None:
            return Contradiction(reason)
    for cell, digit in deduction.eliminations:
        if new.values[cell] != 0:
            return Contradiction(
                f"elimination targets filled cell {cell_name(new.box, cell)}"
            )
        reason = new.eliminate(cell, digit)
        if reason is not None:
            return Contradiction(reason)
    return new


@dataclass
class SolveTrace:
    """Ordered rule firings with the tier each came from."""

    deductions: tuple[Deduction, ...]
    tiers: tuple[int, ...]
    outcome: str  # solved | stuck | contradiction
    board: Board = field(repr=False, compare=False, default=None)

    @property
    def difficulty_tier(self) -> int:
        return max(self.tiers, default=0)


def deduction_line(box: int, d: Deduction) -> str:
    """One stable machine-parseable line per deduction."""
    parts = [f"rule={d.rule}"]
    if d.contradiction:
        parts.append("contradiction=" + (d.reason or "yes").replace(" ", "_"))
    place = ",".join(f"{cell_name(box, c)}={v}" for c, v in d.placements)
    elim = ",".join(f"{cell_name(box, c)}!={v}" for c, v in d.eliminations)
    parts.append(f"place={place}")
    parts.append(f"elim={elim}")
    if d.witness is not None:
        parts.append(f"witness={d.witness}")
    return ";".join(parts)
