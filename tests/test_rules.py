from __future__ import annotations

import importlib.util
from collections import Counter
from functools import cache
from pathlib import Path
from random import Random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonrep.sudoku import rules
from nonrep.sudoku.board import Board, Deduction, apply_deduction, geometry, parse_board
from nonrep.sudoku.generate import dense_bivalue_fixture, generate, solved_grid
from nonrep.sudoku.rules import (
    RULES,
    build_bilocation_graph,
    build_bivalue_graphs,
    rule_deductions,
    solve,
)


def board_with_candidates(cand_map: dict[int, set[int]], default: set[int]) -> Board:
    """Empty board with hand-assigned candidate sets (tests only)."""
    board = Board(3)
    for cell in range(81):
        digits = cand_map.get(cell, default)
        board.cand[cell] = sum(1 << (d - 1) for d in digits)
    return board


# -- local rules -------------------------------------------------------------------


def test_hidden_single_on_nearly_full_row():
    values = [0] * 81
    for c, d in zip(range(8), (1, 2, 3, 4, 5, 6, 8, 9)):
        values[c] = d
    board = Board(3, values)
    ded = [d for d in rule_deductions(board, "hidden_single") if d.placements == ((8, 7),)]
    assert ded, "digit 7 must be placed in the last cell of row 1"


def test_naked_single_fires():
    board = board_with_candidates({0: {4}}, default=set(range(1, 10)))
    deds = rule_deductions(board, "naked_single")
    assert deds[0].placements == ((0, 4),)


def test_box_line_eliminates_outside_box():
    # all homes of digit 5 in box 1 sit in row 1
    cand_map = {c: {5, 1, 2} for c in (0, 1, 2)}
    default = {1, 2, 3}
    for c in list(range(3, 9)):
        cand_map[c] = {5, 1, 2, 3}  # row 1 outside the box also admits 5
    board = board_with_candidates(cand_map, default)
    deds = [d for d in rule_deductions(board, "box_line") if d.witness == "box 1->row 1[5]"]
    assert deds
    assert set(deds[0].eliminations) == {(c, 5) for c in range(3, 9)}


def test_confined_masks_equal_brute_force_on_pruned_boards():
    """Per line/box pair, the digits with a home where the line meets the
    box and no other home in the line, or in the box, equal a scan of every
    digit's homes, on generated puzzles of box size 2 and 3 whose
    candidates were then pruned at random."""
    rng = Random(2025)
    nonempty = Counter()
    for box in (2, 3):
        geo = geometry(box)
        pairs, _group_pairs = rules._line_box_pairs(box)
        for _ in range(12):
            board = generate(box, rng.randrange(2**32)).puzzle
            for _ in range(rng.randrange(4 * board.n)):
                cell = rng.randrange(board.n * board.n)
                digits = board.candidates(cell)
                if board.values[cell] == 0 and len(digits) > 1:
                    ded = Deduction("prune", eliminations=((cell, rng.choice(digits)),))
                    board = apply_deduction(board, ded)
            in_line, in_box = rules._BoardState(board).confined

            def homes(d, cells):
                return {c for c in cells if not board.values[c] and board.admits(c, d)}

            for i, (line, bg, inter) in enumerate(pairs):
                for got, group in ((in_line[i], line), (in_box[i], bg)):
                    want = 0
                    for d in range(1, board.n + 1):
                        if homes(d, inter) and not homes(d, geo.group_cells[group]) - set(inter):
                            want |= 1 << (d - 1)
                    assert got == want, (box, i, group)
                    nonempty[group == line] += got != 0
    assert min(nonempty[True], nonempty[False]) >= 20, nonempty


def test_matching_digit_contradiction():
    # digit 5 restricted to a single column in two different rows
    cand_map = {}
    default = {1, 2, 3, 4, 6, 7, 8, 9}
    cand_map[0] = {5, 1}  # r1c1
    cand_map[9] = {5, 1}  # r2c1 -> both rows need 5 in column 1
    for c in range(1, 9):
        cand_map[c] = default
    for c in range(10, 18):
        cand_map[c] = default
    board = board_with_candidates(cand_map, default | {5})
    # rows 1 and 2 admit 5 only in column 1: no system of distinct columns
    deds = rule_deductions(board, "digit_matching")
    assert any(d.contradiction for d in deds)


def test_matching_rules_on_unique_group_completion():
    # row 1 has a unique assignment: cell i takes digit i+1
    cand_map = {c: set(range(1, c + 2)) for c in range(9)}
    board = board_with_candidates(cand_map, set(range(1, 10)))
    deds = rule_deductions(board, "group_matching")
    row1 = next(d for d in deds if d.witness == "row 1")
    assert set(row1.eliminations) == {
        (c, d) for c in range(9) for d in range(1, c + 1)
    }


def test_matching_rules_quiet_on_permutation_grid():
    # a fully forced digit pattern generates no eliminations
    solved = solved_grid(Board(3))
    trace_board = solved
    assert rule_deductions(trace_board, "digit_matching") == []
    assert rule_deductions(trace_board, "group_matching") == []


def test_digit_matching_quiet_on_permutation_pattern():
    # digit 9 admissible exactly on the diagonal: a unique perfect matching
    # with no unmatched edges, hence nothing to eliminate
    cand_map = {i * 9 + i: {9, 1, 2} for i in range(9)}
    board = board_with_candidates(cand_map, set(range(1, 9)))
    assert rule_deductions(board, "digit_matching") == []


# -- graph builders -----------------------------------------------------------------


def test_bilocation_edges_and_dedup():
    board = parse_board("." * 81)
    # carve digit 5 down to two homes shared by row 1 and box 1
    for c in list(range(2, 9)) + [9, 10, 11, 18, 19, 20]:
        board.eliminate(c, 5)
    bl = build_bilocation_graph(board)
    edges = [
        (bl.graph.endpoints(e), bl.graph.edge_labels(e)[0])
        for e in range(bl.graph.num_edges)
    ]
    assert (((0, 1), 5)) in edges
    # row 1 and box 1 both witness the same pair: still one edge
    assert sum(1 for ep, lab in edges if ep == (0, 1) and lab == 5) == 1


def test_bilocation_three_labels_contradiction():
    cand_map = {0: {1, 2, 3, 9}, 1: {1, 2, 3, 9}}
    default = {4, 5, 6, 7, 8, 9}
    board = board_with_candidates(cand_map, default)
    bl = build_bilocation_graph(board)
    assert bl.contradiction is not None
    deds = rule_deductions(board, "biloc_cycle")
    assert deds and deds[0].contradiction


def test_bivalue_graph_edges():
    cand_map = {0: {4, 7}, 5: {7, 9}}
    default = {1, 2, 3}
    board = board_with_candidates(cand_map, default)
    bv, bb = build_bivalue_graphs(board)
    assert bv.graph.num_edges == 1
    assert bv.graph.endpoints(0) == (0, 5)
    assert bv.graph.edge_labels(0) == (7, 7)
    # each bivalued cell carries exactly six bipartite edges
    for cell in (0, 5):
        assert sum(
            1
            for e in range(bb.graph.num_edges)
            if bb.graph.endpoints(e)[0] == cell
        ) == 6


def test_bipartite_bivalue_size_bounds():
    board = dense_bivalue_fixture(3)
    _, bb = build_bivalue_graphs(board)
    assert bb.graph.num_vertices <= 4 * 3**4
    assert bb.graph.num_edges <= 6 * 3**4


# -- nonlocal rules on crafted boards -------------------------------------------------


def _rectangle_cells():
    a, b = 0, 3  # r1c1, r1c4
    d, c = 27, 30  # r4c1, r4c4
    return a, b, c, d


def test_bilocation_cycle_restricts_rectangle():
    a, b, c, d = _rectangle_cells()
    cand_map = {a: {5, 6, 9}, b: {5, 6, 8}, c: {5, 6, 9}, d: {5, 6, 8}}
    board = board_with_candidates(cand_map, {1, 2, 3})
    deds = rule_deductions(board, "biloc_cycle")
    got = {ded.eliminations for ded in deds}
    assert ((a, 9),) in got
    assert ((b, 8),) in got
    assert ((c, 9),) in got
    assert ((d, 8),) in got


def test_bilocation_repeat_places_repeated_label():
    a, b, c, d = _rectangle_cells()
    # cycle labels 2,5,6,2 reading a->b->c->d->a: the repeated 2 sits at a
    cand_map = {a: {2, 7}, b: {2, 5}, c: {5, 6}, d: {2, 6}}
    board = board_with_candidates(cand_map, {1, 3, 4})
    deds = rule_deductions(board, "biloc_repeat")
    assert [ded.placements for ded in deds] == [((a, 2),)]
    assert "2>" in deds[0].witness


def test_bilocation_conflict_places_start_label():
    c = 40  # r5c5
    a = 36  # r5c1
    b = 4  # r1c5
    w1 = 72  # r9c1
    w2 = 76  # r9c5
    cand_map = {
        c: {2, 7},
        a: {2, 9},
        b: {2, 9},
        w1: {1, 9},
        w2: {1, 9},
    }
    board = board_with_candidates(cand_map, {3, 5, 6})
    deds = rule_deductions(board, "biloc_conflict")
    assert [ded.placements for ded in deds] == [((c, 2),)]
    assert "|" in deds[0].witness  # two chains recorded


# -- corpus checks ---------------------------------------------------------------------


def _fresh_corpus(count, seed):
    rng = Random(seed)
    boards = []
    for _ in range(count):
        report = generate(3, rng.randrange(2**32))
        boards.append((report.puzzle, report.solution))
    return boards


def test_rules_sound_and_monotone_on_corpus():
    for puzzle, solution in _fresh_corpus(12, 500):
        board = puzzle.copy()
        trace = solve(board)
        assert trace.outcome in ("solved", "stuck")
        current = puzzle.copy()
        for ded in trace.deductions:
            for cell, digit in ded.placements:
                assert solution.values[cell] == digit
            for cell, digit in ded.eliminations:
                assert solution.values[cell] != digit
            nxt = apply_deduction(current, ded)
            assert isinstance(nxt, Board)
            for cellv in range(81):
                # candidate sets only ever shrink
                assert nxt.cand[cellv] & ~current.cand[cellv] == 0 or (
                    current.values[cellv] == 0 and nxt.values[cellv] != 0
                )
            current = nxt
        if trace.outcome == "solved":
            assert current.values == solution.values
            assert current.values == trace.board.values


def test_rule_idempotence_on_corpus():
    for puzzle, _ in _fresh_corpus(6, 901):
        board = puzzle.copy()
        for _step in range(200):
            fired = None
            for _tier, name in RULES:
                deds = rule_deductions(board, name)
                if deds:
                    fired = (name, deds[0])
                    break
            if fired is None:
                break
            name, ded = fired
            nxt = apply_deduction(board, ded)
            if not isinstance(nxt, Board):
                break
            board = nxt
            again = rule_deductions(board, name)
            assert ded not in again, (name, ded)
        else:
            pytest.fail("solve loop did not terminate")


def test_solved_board_trace_is_empty():
    solved = solved_grid(Board(3))
    trace = solve(solved)
    assert trace.outcome == "solved"
    assert trace.deductions == ()
    assert trace.difficulty_tier == 0


def test_max_tier_zero_uses_only_singles():
    report = generate(3, 17)
    trace = solve(report.puzzle, max_tier=0)
    assert all(t == 0 for t in trace.tiers)


def test_trace_replay_reproduces_final_board():
    report = generate(3, 23)
    trace = solve(report.puzzle)
    board = report.puzzle.copy()
    for ded in trace.deductions:
        board = apply_deduction(board, ded)
        assert isinstance(board, Board)
    assert board.values == trace.board.values


def test_bivalue_walks_match_bipartite_walks():
    # one bivalue step corresponds to two steps in the bipartite form
    for puzzle, _ in _fresh_corpus(6, 321):
        trace = solve(puzzle, max_tier=2)
        board = trace.board
        bv, bb = build_bivalue_graphs(board)
        if not 0 < bv.graph.num_vertices <= 12:
            continue
        assert _bivalue_signatures(bv.graph, 3) == _bipartite_signatures(bb.graph, 3)


def _bivalue_signatures(graph, depth):
    sigs = set()

    def extend(cell, last_label, trail):
        sigs.add(trail)
        if len(trail) // 2 >= depth:
            return
        vid = graph.vertex_id(cell)
        for eid, end in graph.incident(vid):
            label = graph.edge_labels(eid)[0]
            if last_label is not None and label == last_label:
                continue
            far = graph.endpoints(eid)[1 - end]
            extend(far, label, trail + (label, far))

    for vid in range(graph.num_vertices):
        cell = graph.vertex_name(vid)
        extend(cell, None, (cell,))
    return sigs


def _bipartite_signatures(graph, depth):
    sigs = set()

    def extend(vertex, last_flag, trail):
        if isinstance(vertex, int):
            sigs.add(trail)
            if len(trail) // 2 >= depth:
                return
        vid = graph.vertex_id(vertex)
        for eid, end in graph.incident(vid):
            flag = graph.edge_labels(eid)[end]
            if last_flag is not None and flag == last_flag:
                continue
            far = graph.endpoints(eid)[1 - end]
            far_flag = graph.edge_labels(eid)[1 - end]
            if isinstance(vertex, int):
                extend(far, far_flag, trail)
            else:
                extend(far, far_flag, trail + (far_flag[1], far))

    for vid in range(graph.num_vertices):
        vertex = graph.vertex_name(vid)
        if isinstance(vertex, int):
            extend(vertex, None, (vertex,))
    return sigs


# -- one analysis per board state -----------------------------------------------------


def _locally_stuck_traces(count, seed):
    """Fresh puzzles that singles and local rules cannot finish, with their traces."""
    rng = Random(seed)
    found = []
    while len(found) < count:
        puzzle = generate(3, rng.randrange(2**32)).puzzle
        trace = solve(puzzle)
        if trace.outcome != "solved" or trace.difficulty_tier >= 2:
            found.append((puzzle, trace))
    return found


def _assert_rules_equal_reference(state, board):
    for _tier, name in RULES:
        expected = oracles.RULE_FUNCTIONS[name](board)
        # The first firing, as solve asks for it, on the shared state; a
        # fresh state per rule, as rule_deductions makes, would rebuild the
        # graphs and reaches 14 times per board.
        assert rules._RULE_FUNCTIONS[name](state, 1) == expected[:1], name
        assert rules._RULE_FUNCTIONS[name](state) == expected, name


def test_rules_equal_reference_along_stuck_solve_traces():
    # One shared state per board, as in solve, so a rule that read something
    # another rule left in the state would show here.
    states = 0
    for puzzle, trace in _locally_stuck_traces(40, 5150):
        board = puzzle
        for ded in (None,) + trace.deductions:
            if ded is not None:
                board = apply_deduction(board, ded)
                if not isinstance(board, Board):
                    break
            if board.is_complete():
                break
            _assert_rules_equal_reference(rules._BoardState(board), board)
            states += 1
    assert states > 1500


def _stale_candidate_board():
    # Placed digits put back as candidates of their empty peers.
    board = generate(3, 11).puzzle
    geo = geometry(3)
    for cell in [c for c in range(81) if board.values[c]][:6]:
        for peer in geo.peers[cell]:
            if board.values[peer] == 0:
                board.cand[peer] |= 1 << (board.values[cell] - 1)
    return board


@pytest.mark.parametrize(
    "make_board",
    [
        pytest.param(_stale_candidate_board, id="stale-candidates"),
        pytest.param(
            lambda: board_with_candidates(
                {0: {1, 2, 3, 9}, 1: {1, 2, 3, 9}}, {4, 5, 6, 7, 8, 9}
            ),
            id="three-digits-on-one-cell-pair",
        ),
        pytest.param(lambda: Board(3), id="empty-bilocation-and-bivalue-graphs"),
        pytest.param(
            lambda: board_with_candidates({0: {1, 2}, 40: {1, 2}}, set(range(1, 10))),
            id="empty-bilocation-graph-with-bivalued-cells",
        ),
        pytest.param(lambda: dense_bivalue_fixture(2), id="dense-bivalue-2"),
        pytest.param(lambda: dense_bivalue_fixture(3), id="dense-bivalue-3"),
    ],
)
def test_rules_equal_reference_on_crafted_boards(make_board):
    board = make_board()
    state = rules._BoardState(board)
    for _tier, name in RULES:
        found = rule_deductions(board, name)
        assert found == oracles.RULE_FUNCTIONS[name](board), name
        assert rules._RULE_FUNCTIONS[name](state, 1) == found[:1], name


_SINGLES_PUZZLES = [generate(3, seed).puzzle for seed in (3, 11, 29)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_SINGLES_PUZZLES),
    st.lists(st.tuples(st.integers(0, 80), st.integers(0, 511)), max_size=60),
    st.lists(st.integers(0, 80), max_size=8),
)
def test_rules_and_bilocation_graph_equal_reference_on_cleared_and_stale_candidates(
    puzzle, kept, stale
):
    # Random candidate bits cleared, so groups lose homes (down to none) and
    # cells lose candidates (down to none); and the digits of some placed
    # cells put back as candidates of their empty peers.  The rules listed
    # read digit homes off candidate masks; the bilocation graph must still
    # drop digits placed in a group.
    board = puzzle.copy()
    geo = geometry(3)
    for cell, mask in kept:
        board.cand[cell] &= mask
    for cell in stale:
        if board.values[cell]:
            for peer in geo.peers[cell]:
                if board.values[peer] == 0:
                    board.cand[peer] |= 1 << (board.values[cell] - 1)
    for name in (
        "hidden_single",
        "naked_single",
        "intersection_triple",
        "box_line",
        "hidden_pair",
        "digit_matching",
        "group_matching",
        "biloc_cycle",
        "biloc_repeat",
        "biloc_conflict",
        "bivalue_cycle",
    ):
        assert rule_deductions(board, name) == oracles.RULE_FUNCTIONS[name](board), name
    got, want = build_bilocation_graph(board), oracles.build_bilocation_graph(board)
    assert _bilocation_answer(got) == _bilocation_answer(want)


def _bilocation_answer(bl):
    """A bilocation graph's vertices, its edges (endpoints and digit) in
    order and its contradiction reason."""
    graph = bl.graph
    edges = [(graph.endpoints(e), graph.edge_labels(e)) for e in range(graph.num_edges)]
    vertices = [graph.vertex_name(v) for v in range(graph.num_vertices)]
    return vertices, edges, bl.contradiction and bl.contradiction.reason


def test_each_board_state_builds_graphs_expansions_and_reaches_once(monkeypatch):
    builds = Counter()
    expansions = []
    reaches = Counter()

    def count_builds(name):
        build = getattr(rules, name)

        def counted(board, *args):
            builds[name, tuple(board.values), tuple(board.cand)] += 1
            return build(board, *args)

        monkeypatch.setattr(rules, name, counted)

    class CountingDigraph(rules.LabelSwitchDigraph):
        def __init__(self, graph):
            expansions.append(self)  # kept alive, so ids stay distinct
            super().__init__(graph)

        def reachable_from(self, vertex, label):
            reaches[id(self), vertex, label] += 1
            return super().reachable_from(vertex, label)

    # The rules build only the bipartite form of the bivalue graph.
    count_builds("build_bilocation_graph")
    count_builds("build_bipartite_bivalue_graph")
    count_builds("build_bivalue_graphs")
    monkeypatch.setattr(rules, "LabelSwitchDigraph", CountingDigraph)
    trace = solve(generate(3, 3).puzzle)
    assert {3, 4} <= set(trace.tiers)
    for name in ("build_bilocation_graph", "build_bipartite_bivalue_graph"):
        per_state = [n for (built, *_), n in builds.items() if built == name]
        assert per_state and max(per_state) == 1, name
    assert not [n for (built, *_), n in builds.items() if built == "build_bivalue_graphs"]
    assert len({id(ex.graph) for ex in expansions}) == len(expansions)
    assert reaches and max(reaches.values()) == 1


# -- the matching memo and the reach arrays -------------------------------------------


@cache
def _stuck_trace_boards(count, seed) -> tuple[Board, ...]:
    """Every unfinished board along the solve traces of ``_locally_stuck_traces``."""
    boards = []
    for puzzle, trace in _locally_stuck_traces(count, seed):
        board = puzzle
        for ded in (None,) + trace.deductions:
            if ded is not None:
                board = apply_deduction(board, ded)
                if not isinstance(board, Board):
                    break
            if board.is_complete():
                break
            boards.append(board)
    return tuple(boards)


def test_matching_memo_shared_across_states_equals_fresh_states(monkeypatch):
    # One memo across every state of three traces (solve shares one across
    # the states of a solve): each rule's firings equal those on a fresh
    # state, and the shared memo answers instances the fresh states solve.
    boards = _stuck_trace_boards(3, 5150)
    kernel_calls = Counter()
    solve_instance = rules._kernels.bipartite_forbidden

    def counted(*args):
        kernel_calls[side] += 1  # the side of the comparison below
        return solve_instance(*args)

    monkeypatch.setattr(rules._kernels, "bipartite_forbidden", counted)
    memo: dict = {}
    for board in boards:
        found = {}
        for side in ("shared", "fresh"):
            state = rules._BoardState(board, memo if side == "shared" else None)
            found[side] = [rules._RULE_FUNCTIONS[name](state) for _tier, name in RULES]
        assert found["shared"] == found["fresh"]
    assert len(boards) > 150
    assert 0 < kernel_calls["shared"] < kernel_calls["fresh"] / 2


def test_hard_corpus_solve_traces_equal_their_recorded_sha256():
    """Every puzzle of the benchmark's hard corpus solves to the trace whose
    sha256 the corpus records, rendered by the benchmark's ``trace_text``."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_common", bench / "common.py")
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    text = (bench / "data" / "hard_corpus.txt").read_text(encoding="utf-8")
    assert common.sha256_text(text) == (bench / "data" / "hard_corpus.sha256").read_text().strip()
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    assert len(rows) == 160
    for seed, _grade, puzzle, digest in rows:
        board = parse_board(puzzle)
        assert common.sha256_text(common.trace_text(board, solve(board))) == digest, seed


def test_back_to_back_solves_equal_solo_solves():
    puzzles_and_traces = _locally_stuck_traces(6, 4242)
    puzzles = [puzzle for puzzle, _ in puzzles_and_traces]
    solo = [trace for _, trace in puzzles_and_traces]
    assert [solve(p) for p in puzzles] == solo
    assert [solve(p) for p in reversed(puzzles)] == solo[::-1]


def test_arrival_queries_equal_a_scan_on_bilocation_and_bivalue_expansions():
    from test_engine import assert_arrival_queries_equal_edge_scan

    checked = 0
    for board in _stuck_trace_boards(3, 5150)[::12]:
        state = rules._BoardState(board)
        for cell, d in state.bilocation_starts[::5]:
            assert_arrival_queries_equal_edge_scan(state.bilocation_expansion, cell, d)
            checked += 1
        for cell, d, _other in state.bivalue_starts[::3]:
            assert_arrival_queries_equal_edge_scan(state.bivalue_expansion, cell, ("d", d))
            checked += 1
    assert checked > 100


def test_condensation_reaches_equal_per_start_dfs_along_stuck_solve_traces():
    """Every start of every state: the reach read off the condensation pass
    equals one DFS from the start (``oracles.dfs_reachable_from``) in its
    mask, size, edge ids, arrivals (dict order too), arrival at the start and
    at each pair reached, and DFS parents.  The witness walks to every hit
    are compared on every fourth state: walks are made from the parents, and
    comparing all of them would triple the test's time."""
    starts = walks = 0
    for i, board in enumerate(_stuck_trace_boards(3, 5150)):
        state = rules._BoardState(board)
        for expansion, flags in (
            (state.bilocation_expansion, state.bilocation_starts),
            (state.bivalue_expansion, [(c, ("d", d)) for c, d, _e in state.bivalue_starts]),
        ):
            for vertex, label in flags:
                got = expansion.reachable_from(vertex, label)
                want = oracles.dfs_reachable_from(expansion, vertex, label)
                assert got.mask.tolist() == want.mask.tolist()
                assert (len(got), got.edge_ids()) == (len(want), want.edge_ids())
                assert list(got.arrivals().items()) == list(want.arrivals().items())
                for key in [(vertex, label), (vertex, "no such label"), *want.arrivals()]:
                    assert got.arrival(*key) == want.arrival(*key)
                assert got._parents().tolist() == want._parent.tolist()
                for hit in want.edges if i % 4 == 0 else ():
                    assert got.walk_to(hit) == want.walk_to(hit)
                    walks += 1
                starts += 1
    assert starts > 8000 and walks > 30000
