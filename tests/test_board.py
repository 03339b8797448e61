from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonrep.sudoku.board import (
    Board,
    Contradiction,
    Deduction,
    apply_deduction,
    parse_board,
)


def test_parse_empty_board():
    board = parse_board("." * 81)
    assert board.box == 3
    assert all(board.candidates(c) == tuple(range(1, 10)) for c in range(81))


def test_parse_zeros_and_whitespace():
    text = ("0" * 27 + "\n") * 3
    board = parse_board(text)
    assert board.is_complete() is False
    assert sum(board.values) == 0


def test_parse_rejects_duplicate_in_row():
    text = "55" + "." * 79
    with pytest.raises(ValueError, match="row 1"):
        parse_board(text)


def test_parse_rejects_bad_length_and_chars():
    with pytest.raises(ValueError, match="81"):
        parse_board("." * 80)
    with pytest.raises(ValueError, match="invalid"):
        parse_board("x" + "." * 80)


def test_parse_general_format_round_trip():
    board = Board(2, [1, 2, 3, 4, 3, 4, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0])
    again = parse_board(board.to_text())
    assert again.box == 2
    assert again.values == board.values


def test_compact_round_trip():
    text = (
        "53..7....6..195....98....6.8...6...34..8.3..17...2...6"
        ".6....28....419..5....8..79"
    )
    board = parse_board(text)
    assert board.to_text() == text.replace("\n", "")


def test_general_format_validation():
    with pytest.raises(ValueError, match="header"):
        parse_board("B x\n1 2")
    with pytest.raises(ValueError, match="16"):
        parse_board("B 2\n1 2 3")
    with pytest.raises(ValueError, match="range"):
        parse_board("B 2\n" + " ".join(["9"] + ["0"] * 15))


def test_parse_accepts_only_ascii_digits():
    # Arabic-Indic 3, fullwidth 3 and superscript 2 pass ``str.isdigit``.
    for ch in ("\u0663", "\uff13", "\u00b2"):
        with pytest.raises(ValueError, match=re.escape(f"character {ch!r}")):
            parse_board(ch + "." * 80)
    for token in ("+3", "\u0663", "1_0", "-1"):
        with pytest.raises(ValueError, match=re.escape(f"cell value {token!r}")):
            parse_board("B 2\n" + " ".join([token] + ["0"] * 15))
    with pytest.raises(ValueError, match="header"):
        parse_board("B +2\n" + " ".join(["0"] * 16))


def _pattern_solution(box: int) -> list[int]:
    n = box * box
    return [(box * (r % box) + r // box + c) % n + 1 for r in range(n) for c in range(n)]


@st.composite
def _valid_boards(draw):
    """A relabelled pattern solution of box 2-4 with some cells shown."""
    box = draw(st.integers(2, 4))
    n = box * box
    relabel = draw(st.permutations(range(1, n + 1)))
    shown = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    values = [relabel[d - 1] for d in _pattern_solution(box)]
    return Board(box, [d if keep else 0 for d, keep in zip(values, shown)])


# Texts near both formats: compact lines with stray characters, and ``B <n>``
# headers with well- and ill-formed tokens, plus arbitrary text.
_board_texts = st.one_of(
    st.text(),
    st.text(alphabet=".0123456789x\u0663\uff13\u00b2 \n", min_size=78, max_size=84),
    st.builds(
        lambda box, tokens: f"B {box}\n" + " ".join(tokens),
        st.sampled_from(["2", "3", "0", "1", "02", "+2", "\u0662", "x", "99"]),
        st.lists(
            st.sampled_from(
                ["0", "1", "2", "3", "4", "9", "+1", "1_0", "\u0663", "-1", "x"]
            ),
            max_size=20,
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_board_texts)
def test_parse_board_returns_a_board_or_raises_value_error(text):
    try:
        board = parse_board(text)
    except ValueError:
        return
    assert isinstance(board, Board)
    assert parse_board(board.to_text()).values == board.values


@settings(max_examples=100, deadline=None)
@given(_valid_boards())
def test_valid_boards_round_trip_through_text(board):
    again = parse_board(board.to_text())
    assert again.box == board.box
    assert again.values == board.values and again.cand == board.cand


_non_ascii_digits = st.characters(categories=("Nd", "No")).filter(
    lambda ch: ch.isdigit() and not ch.isascii()
)


@settings(max_examples=100, deadline=None)
@given(_valid_boards(), _non_ascii_digits, st.data())
def test_non_ascii_digit_in_a_board_is_rejected(board, digit, data):
    cell = data.draw(st.integers(0, board.size - 1))
    if board.box == 3:
        text = board.to_text()
        text = text[:cell] + digit + text[cell + 1 :]
        message = f"invalid character {digit!r}"
    else:
        tokens = board.to_text().split()
        tokens[2 + cell] = digit
        text = " ".join(tokens)
        message = f"invalid cell value {digit!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_board(text)


def test_placement_prunes_twenty_peers():
    board = parse_board("." * 81)
    before = sum(1 for c in range(81) if 5 in board.candidates(c))
    result = apply_deduction(board, Deduction("t", placements=((0, 5),)))
    assert isinstance(result, Board)
    after = sum(1 for c in range(81) if 5 in result.candidates(c))
    assert before - after == 21  # the cell itself plus its 20 peers
    assert result.values[0] == 5
    # input board untouched (value semantics)
    assert board.values[0] == 0


def test_eliminating_last_candidate_is_contradiction():
    board = parse_board("." * 81)
    squeeze = Deduction("t", eliminations=tuple((0, d) for d in range(1, 10)))
    result = apply_deduction(board, squeeze)
    assert isinstance(result, Contradiction)


def test_empty_deduction_is_identity():
    board = parse_board("." * 81)
    result = apply_deduction(board, Deduction("t"))
    assert isinstance(result, Board)
    assert result.values == board.values
    assert result.cand == board.cand


def test_placing_non_candidate_is_contradiction():
    board = parse_board("5" + "." * 80)
    result = apply_deduction(board, Deduction("t", placements=((1, 5),)))
    assert isinstance(result, Contradiction)
    result = apply_deduction(board, Deduction("t", placements=((0, 1),)))
    assert isinstance(result, Contradiction)


_SOLVED = (
    "534678912672195348198342567859761423426853791713924856"
    "961537284287419635345286179"
)


def test_verify_solution_on_complete_grid():
    assert parse_board(_SOLVED).verify_solution()


def test_verify_rejects_swapped_cells():
    chars = list(_SOLVED)
    chars[0], chars[1] = chars[1], chars[0]
    # swapping inside one row duplicates digits in columns/boxes but keeps
    # the row a permutation; construction still raises on the column clash
    with pytest.raises(ValueError):
        parse_board("".join(chars))
    grid = parse_board(_SOLVED)
    grid.values[0], grid.values[1] = grid.values[1], grid.values[0]
    assert not grid.verify_solution()


def test_verify_rejects_incomplete():
    assert not parse_board("." + _SOLVED[1:]).verify_solution()
