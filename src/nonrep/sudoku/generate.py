"""Puzzle generation, uniqueness counting, difficulty grading, batch stats.

Generation fills random symmetric cell pairs, closes the grid under singles
after each pair, restarts on contradiction, and ends on a completed grid S.
It then greedily empties the inserted pairs again, keeping each removal that
leaves S the only solution.  The clues kept so far have S as their only
solution, so another solution of a trial must change a cell the trial just
emptied; uniqueness is proved by refuting every other digit of those cells
with an existence search, and S is the solution reported.  Because clue
removal is monotone (removing clues never shrinks the solution set), one
pass in insertion order already yields a puzzle from which no further
symmetric pair can be removed.

Counting solutions closes every search node under singles and branches on a
minimum-candidate cell; a count saturated at its cap does not depend on the
branching order.  Only ``solved_grid`` shows which solution a search finds
first, so it alone keeps the pinned search of ``count_and_first``.

Grading runs the rule solver and reports the highest tier used; a puzzle the
rules cannot finish grades as unsolvable (math.inf).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from .. import _kernels
from .board import Board, cell_name, geometry
from .rules import TIER_BILOCATION, solve


class GenerationError(RuntimeError):
    pass


def count_solutions(board: Board, cap: int) -> int:
    """Number of completions of the board, saturating at ``cap``.

    Runs the propagating search of ``_kernels.count_completions``.  A count
    below ``cap`` is exact and one at ``cap`` means "at least", so the answer
    is the same whatever cell the search branches on first.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    return _kernels.count_completions(board.box, board.values, cap)


def solved_grid(board: Board) -> Optional[Board]:
    """First completion found by the backtracking search, or None.

    On a board with several solutions the answer depends on the search order,
    so this one call keeps the pinned order of ``_kernels.count_and_first``
    (cells by candidate count then index, digits ascending) and returns the
    same grid as before.  Counting and generation do not depend on an order.
    """
    count, first = _kernels.count_and_first(board.box, board.values, 1)
    if count == 0:
        return None
    return Board(board.box, first.tolist())


@dataclass
class GenReport:
    """A generated puzzle plus the data needed to reproduce and audit it."""

    puzzle: Board
    solution: Board = field(repr=False)
    insertion_order: tuple[tuple[int, int], ...]  # symmetric cell pairs
    clue_count: int
    seed: int
    symmetric: bool
    minimal: bool
    restarts: int

    def to_text(self) -> str:
        pairs = " ".join(
            f"{cell_name(self.puzzle.box, a)}+{cell_name(self.puzzle.box, b)}"
            for a, b in self.insertion_order
        )
        lines = [
            f"box={self.puzzle.box}",
            f"seed={self.seed}",
            f"symmetric={int(self.symmetric)}",
            f"clues={self.clue_count}",
            f"minimal={int(self.minimal)}",
            f"restarts={self.restarts}",
            f"insertions={pairs}",
            f"puzzle={self.puzzle.to_text().strip()}",
        ]
        return "\n".join(lines) + "\n"


_RESTART_LIMIT = 10_000


def generate(box: int = 3, seed: int = 0, symmetric: bool = True) -> GenReport:
    """Generate a minimal uniquely-solvable puzzle, deterministically per seed.

    Phase 1 repeatedly picks a random unfilled cell and its 180-degree
    partner, fills them with random consistent digits, and closes the grid
    under singles from the new clues only, keeping each group's digit mask
    across pairs; any contradiction restarts the phase, and it ends on a
    completed grid S.  Phase 2 re-empties the inserted pairs in insertion
    order and keeps each removal that leaves S the only solution: for each
    emptied cell, every digit it admits other than S's is refuted by an
    existence search before the cell is fixed to S's digit.  S is returned
    as ``solution``.
    """
    if box not in (2, 3):
        raise ValueError("generation supports box sizes 2 and 3")
    geo = geometry(box)
    groups = geo.groups_of_cell
    rng = Random(seed)
    size = geo.size
    restarts = 0
    while True:
        if restarts > _RESTART_LIMIT:
            raise GenerationError(f"no fill found after {_RESTART_LIMIT} restarts")
        values = [0] * size
        used = [0] * (3 * geo.n)  # digits placed per group, kept across pairs
        clues: list[tuple[tuple[int, int], ...]] = []
        status = 0  # an empty grid has no single and is not full
        while status == 0:
            empty = [c for c in range(size) if values[c] == 0]
            cell = rng.choice(empty)
            partner = size - 1 - cell if symmetric else cell
            pair_clues = []
            placed = []
            for target in dict.fromkeys((cell, partner)):
                if values[target] == 0:
                    digits = _available_digits(geo, used, target)
                    if not digits:
                        status = -1
                        break
                    digit = rng.choice(digits)
                    values[target] = digit
                    bit = 1 << (digit - 1)
                    g0, g1, g2 = groups[target]
                    used[g0] |= bit
                    used[g1] |= bit
                    used[g2] |= bit
                    placed.append(target)
                pair_clues.append((target, values[target]))
            if status == -1:
                break
            clues.append(tuple(pair_clues))
            status = _kernels._propagate_from(geo, values, used, placed)
        if status == -1:
            restarts += 1
            continue
        break

    # Phase 2: try to empty inserted pairs again, oldest first.  ``kept`` has
    # the completed grid ``values`` as its only solution, so a trial has
    # another one exactly when some solution changes a cell it just emptied.
    kept = {cell: digit for pair in clues for cell, digit in pair}
    for pair in clues:
        trial = dict(kept)
        emptied = [cell for cell, _ in pair if trial.pop(cell, None)]
        if not trial:
            continue
        trial_values = [trial.get(c, 0) for c in range(size)]
        if not _kernels.has_other_completion(box, trial_values, values, emptied):
            kept = trial

    puzzle = Board(box, [kept.get(c, 0) for c in range(size)])
    inserted_pairs = tuple(
        (pair[0][0], pair[-1][0]) for pair in clues
    )
    return GenReport(
        puzzle=puzzle,
        solution=Board(box, values),
        insertion_order=inserted_pairs,
        clue_count=len(kept),
        seed=seed,
        symmetric=symmetric,
        minimal=True,
        restarts=restarts,
    )


def _available_digits(geo, used: list[int], cell: int) -> list[int]:
    g0, g1, g2 = geo.groups_of_cell[cell]
    taken = used[g0] | used[g1] | used[g2]
    return [d for d in range(1, geo.n + 1) if not taken >> (d - 1) & 1]


def grade(board: Board):
    """Difficulty tier 0..4 of the rule solver, or math.inf when it sticks.

    Rejects puzzles without a unique solution.
    """
    if count_solutions(board, 2) != 1:
        raise ValueError("grading requires a puzzle with exactly one solution")
    trace = solve(board)
    if trace.outcome == "solved":
        return trace.difficulty_tier
    if trace.outcome == "stuck":
        return math.inf
    raise RuntimeError(
        "rules derived a contradiction on a uniquely solvable puzzle"
    )


# Reference fractions for the 33302-puzzle version of this experiment,
# printed beside measured values for comparison.
REFERENCE_UNSOLVABLE = 4.4
REFERENCE_NONLOCAL = 11.6
REFERENCE_RESCUE = 72.5

# Acceptance bands for 500-puzzle batches, frozen after calibration runs.
UNSOLVABLE_BAND = (1.0, 9.0)
NONLOCAL_BAND = (6.0, 18.0)


@dataclass
class BatchStats:
    box: int
    total: int
    seed: int
    tier_counts: dict
    unsolvable_count: int
    nonlocal_count: int
    stuck_local_count: int
    rescued_count: int

    @property
    def unsolvable_fraction(self) -> float:
        return self.unsolvable_count / self.total

    @property
    def nonlocal_fraction(self) -> float:
        return self.nonlocal_count / self.total

    @property
    def rescue_ratio(self) -> Optional[float]:
        if self.stuck_local_count == 0:
            return None
        return self.rescued_count / self.stuck_local_count

    def to_text(self) -> str:
        lines = [
            f"box={self.box}",
            f"seed={self.seed}",
            f"total={self.total}",
        ]
        for tier in (0, 1, 2, 3, 4):
            lines.append(f"tier{tier}={self.tier_counts.get(tier, 0)}")
        lines.append(f"unsolvable={self.unsolvable_count}")
        lines.append(
            f"unsolvable_pct={100 * self.unsolvable_fraction:.1f}"
            f" (reference {REFERENCE_UNSOLVABLE})"
        )
        lines.append(f"nonlocal={self.nonlocal_count}")
        lines.append(
            f"nonlocal_pct={100 * self.nonlocal_fraction:.1f}"
            f" (reference {REFERENCE_NONLOCAL})"
        )
        ratio = self.rescue_ratio
        shown = "n/a" if ratio is None else f"{100 * ratio:.1f}"
        lines.append(
            f"nonlocal_rescue_pct={shown} (reference {REFERENCE_RESCUE})"
        )
        return "\n".join(lines) + "\n"


def _subseed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**63


def _grade_one(args) -> int:
    box, seed = args
    report = generate(box, seed)
    tier = grade(report.puzzle)
    return 5 if tier is math.inf else int(tier)


def batch_stats(count: int, seed: int, box: int = 3, jobs: int = 1) -> BatchStats:
    """Generate ``count`` puzzles from split seeds and grade each.

    ``jobs`` > 1 evaluates puzzles in worker processes, at most one per
    puzzle and per CPU; aggregation is pure counting, so results do not
    depend on completion order.
    """
    if count < 1:
        raise ValueError("count must be positive")
    work = [(box, _subseed(seed, i)) for i in range(count)]
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            graded = list(pool.map(_grade_one, work, chunksize=16))
    else:
        graded = [_grade_one(item) for item in work]
    tier_counts: dict[int, int] = {}
    unsolvable = 0
    nonlocal_needed = 0
    for tier in graded:
        if tier == 5:
            unsolvable += 1
        else:
            tier_counts[tier] = tier_counts.get(tier, 0) + 1
            if tier >= TIER_BILOCATION:
                nonlocal_needed += 1
    stuck_local = unsolvable + nonlocal_needed
    return BatchStats(
        box=box,
        total=count,
        seed=seed,
        tier_counts=tier_counts,
        unsolvable_count=unsolvable,
        nonlocal_count=nonlocal_needed,
        stuck_local_count=stuck_local,
        rescued_count=nonlocal_needed,
    )


def dense_bivalue_fixture(box: int = 3) -> Board:
    """Stress board whose bivalue graph has on the order of B^5 edges.

    Starting from the cyclic completed grid, empty the boxes on the main
    diagonal and remove every copy of digit 1.  Each diagonal box then holds
    B^2-1 bivalued cells that all still admit digit 1, giving ~B^4 bivalue
    edges per box.  Every off-diagonal box misses exactly the digit-1 cell,
    and a diagonal box can only be completed by restoring the original
    digits, so the board keeps a unique solution.
    """
    if not 2 <= box <= 5:
        raise ValueError("fixture supports box sizes 2 through 5")
    n = box * box
    values = []
    for r in range(n):
        for c in range(n):
            values.append((box * (r % box) + r // box + c) % n + 1)
    for r in range(n):
        for c in range(n):
            i = r * n + c
            if values[i] == 1:
                values[i] = 0
            elif (r // box) == (c // box):
                values[i] = 0
    return Board(box, values)
