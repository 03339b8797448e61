from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nonrep import _kernels
from nonrep.cli import run
from nonrep.engine import LabelSwitchDigraph
from nonrep.labeled_graph import parse_labeled_graph, serialize_labeled_graph

TRIANGLE = "graph directed\nedge a b L1\nedge b c L2\nedge c a L3\n"


def _run(argv, stdin=""):
    """Invoke the CLI in-process, capturing stdout/stderr."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_graph_cycles_triangle(tmp_path):
    path = tmp_path / "tri.graph"
    path.write_text(TRIANGLE)
    code, out, err = _run(["graph", "cycles", str(path)])
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_graph_cycles_from_stdin():
    code, out, _ = _run(["graph", "cycles", "-"], stdin=TRIANGLE)
    assert code == 0
    assert "edge 0" in out


def test_graph_parse_error_exits_2():
    code, out, err = _run(["graph", "cycles", "-"], stdin="graph sideways\n")
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("family, command", [("graph", "cycles"), ("sudoku", "solve")])
def test_unreadable_file_exits_2(tmp_path, family, command):
    missing = tmp_path / "missing"
    code, out, err = _run([family, command, str(missing)])
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {missing}: ") and err.count("\n") == 1


def test_graph_reach():
    text = "graph directed\nedge a b 1\nedge b c 2\nedge b d 1\n"
    code, out, _ = _run(["graph", "reach", "--start", "a", "--label", "1", "-"], stdin=text)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # a->b and b->c; b->d repeats label 1


def test_graph_shortest_negative_exit():
    text = "graph directed\nedge a b 1\nedge b c 1\n"
    code, out, err = _run(
        ["graph", "shortest", "--from", "a", "--to", "c", "-"], stdin=text
    )
    assert code == 1
    assert "no nonrepetitive path" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "shortest", "--from", "a", "--to", "zz", "-"],
        ["graph", "reach", "--start", "zz", "--label", "1", "-"],
        ["graph", "simple-path", "--from", "zz", "--to", "a", "-"],
    ],
)
def test_graph_unknown_vertex_exits_2(argv):
    text = "graph undirected\nedge a b 1\nedge b c 2\n"
    code, out, err = _run(argv, stdin=text)
    assert code == 2
    assert out == ""
    assert err == "unknown vertex 'zz'\n"


def test_graph_reach_unknown_label_exits_2():
    text = "graph undirected\nedge a b 1\nedge b c 2\n"
    code, out, err = _run(["graph", "reach", "--start", "a", "--label", "9", "-"], stdin=text)
    assert (code, out, err) == (2, "", "unknown label '9'\n")


def test_graph_reach_label_absent_at_start_prints_nothing():
    # label 2 is in the file, but no flag at a carries it: no walk starts
    text = "graph undirected\nedge a b 1\nedge b c 2\n"
    code, out, err = _run(["graph", "reach", "--start", "a", "--label", "2", "-"], stdin=text)
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "cycles", "-"],
        ["graph", "reach", "--start", "a", "--label", "y", "-"],
        ["graph", "shortest", "--from", "a", "--to", "b", "-"],
    ],
)
def test_graph_self_loop_exits_2(argv):
    text = "graph undirected\nedge a a x\nedge a b y\n"
    code, out, err = _run(argv, stdin=text)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "self-loops" in err


def test_graph_simple_path_and_refusals():
    text = "graph undirected\nedge p r 1\nedge r q 2\n"
    code, out, _ = _run(
        ["graph", "simple-path", "--from", "p", "--to", "q", "-"], stdin=text
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2

    code, _, err = _run(
        ["graph", "simple-path", "--from", "p", "--to", "q", "--directed", "-"],
        stdin=text,
    )
    assert code == 2
    assert "NP-complete" in err

    directed = "graph directed\nedge p q 1\n"
    code, _, err = _run(
        ["graph", "simple-path", "--from", "p", "--to", "q", "-"], stdin=directed
    )
    assert code == 2


def test_graph_simple_cycles():
    square = "graph undirected\nedge a b 0\nedge b c 1\nedge c d 0\nedge d a 1\n"
    code, out, _ = _run(["graph", "simple-cycles", "-"], stdin=square)
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_sudoku_solve_singles_puzzle():
    # seed 1 grades at tier 0: singles alone complete it
    code, out, _ = _run(["sudoku", "generate", "--seed", "1"])
    assert code == 0
    puzzle = out.strip()
    code, out, err = _run(["sudoku", "solve", "--trace", "-"], stdin=puzzle)
    assert code == 0
    assert "rule=" in out


def test_sudoku_solve_structured_and_max_tier():
    code, out, _ = _run(["sudoku", "generate", "--seed", "1"])
    puzzle = out.strip()
    code, out, err = _run(
        ["sudoku", "solve", "--format", "structured", "--max-tier", "0", "-"],
        stdin=puzzle,
    )
    assert code == 0
    assert "outcome=solved" in out
    # seed 12 needs more than the full rule set: solve reports stuck
    code, out, _ = _run(["sudoku", "generate", "--seed", "12"])
    code, out, err = _run(["sudoku", "solve", "-"], stdin=out.strip())
    assert code == 1
    assert "outcome=stuck" in err


def test_sudoku_solve_rejects_garbage():
    code, _, err = _run(["sudoku", "solve", "-"], stdin="not a board")
    assert code == 2
    assert "parse error" in err


def test_sudoku_grade_roundtrip():
    code, out, _ = _run(["sudoku", "generate", "--seed", "3"])
    puzzle = out.strip()
    code, out, _ = _run(["sudoku", "grade", "-"], stdin=puzzle)
    assert code == 0
    assert out.startswith("tier=")


def test_sudoku_grade_two_solutions_exits_2():
    # a solved grid with one rectangle of two digit pairs emptied: the pairs
    # swap, so the puzzle has exactly two solutions
    puzzle = (
        "781692354539841276462357189847213965923465718"
        "156978432615720803394186527278530601"
    )
    code, out, err = _run(["sudoku", "grade", "-"], stdin=puzzle)
    assert (code, out) == (2, "")
    assert err == "grading requires a puzzle with exactly one solution\n"


def test_sudoku_grade_empty_box_5_board_exits_2_promptly():
    # The uniqueness check must stop at the second solution of a 25 x 25
    # board instead of thrashing in a search that never propagates.
    puzzle = "B 5 " + " ".join(["0"] * 5**4)
    start = time.perf_counter()
    code, out, err = _run(["sudoku", "grade", "-"], stdin=puzzle)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err == "grading requires a puzzle with exactly one solution\n"
    assert elapsed < 10, elapsed


def test_sudoku_generate_deterministic_across_processes():
    cmd = [
        sys.executable,
        "-m",
        "nonrep.cli",
        "sudoku",
        "generate",
        "--seed",
        "2024",
        "--count",
        "2",
        "--format",
        "structured",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.count("puzzle=") == 2


def test_sudoku_stats_text():
    code, out, _ = _run(["sudoku", "stats", "--count", "4", "--seed", "9"])
    assert code == 0
    assert "total=4" in out
    assert "reference 4.4" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["stats", "--count", "0"], "--count", id="0"),
        pytest.param(["stats", "--count", "-1"], "--count", id="-1"),
        pytest.param(["generate", "--seed", "1", "--count", "0"], "--count", id="generate-0"),
        pytest.param(["generate", "--seed", "1", "--count", "-2"], "--count", id="generate--2"),
        pytest.param(["stats", "--count", "2", "--jobs", "0"], "--jobs", id="jobs-0"),
        pytest.param(["stats", "--count", "2", "--jobs", "-3"], "--jobs", id="jobs--3"),
    ],
)
def test_sudoku_stats_rejects_nonpositive_count(argv, flag):
    code, out, err = _run(["sudoku", *argv])
    assert code == 2
    assert out == ""
    assert err == f"{flag} must be positive\n"


def test_sudoku_fixture():
    code, out, _ = _run(["sudoku", "fixture", "--box", "2"])
    assert code == 0
    assert out.startswith("B 2")
    code, out, _ = _run(["sudoku", "fixture", "--box", "3"])
    assert len(out.strip()) == 81


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as err:
        run(["graph", "cycles", "--bogus"])
    assert err.value.code == 2


def test_help_texts_exist():
    for argv in (["graph", "cycles"], ["sudoku", "solve"], ["sudoku", "stats"]):
        with pytest.raises(SystemExit) as err:
            run(argv + ["--help"])
        assert err.value.code == 0


def test_graph_walk_commands_print_what_the_replaced_engine_printed():
    """``graph cycles|reach|shortest`` stdout and exit codes equal what the
    per-vertex-dict expansion and one ``print`` per line gave."""

    def lines(edges):
        return "".join(
            f"edge {e.edge_id}: {e.tail} -> {e.head} label {e.far_label}\n" for e in edges
        )

    rng = Random(2718)
    for trial in range(12):
        text = serialize_labeled_graph(
            oracles.random_flag_graph(
                rng, max_vertices=30, max_labels=5, flag_labeled=trial % 2 == 1, max_edges=90
            )
        )
        g = parse_labeled_graph(text)
        old = oracles.LabelSwitchDigraph(g)
        names = [g.vertex_name(v) for v in range(g.num_vertices)]
        assert _run(["graph", "cycles", "-"], stdin=text) == (
            0, lines(old.cycle_directions()), ""
        )
        vertex = rng.choice(names)
        label = g.label_name(rng.choice(g.vertex_label_ids(g.vertex_id(vertex))))
        assert _run(["graph", "reach", "--start", vertex, "--label", label, "-"], stdin=text) == (
            0, lines(old.reachable_from(vertex, label).edges), ""
        )
        for _ in range(3):
            src, dst = rng.sample(names, 2)
            path = old.shortest_path(src, dst)
            want = (1, "", "no nonrepetitive path\n") if path is None else (0, lines(path), "")
            assert _run(["graph", "shortest", "--from", src, "--to", dst, "-"], stdin=text) == want


# Token soup for the graph commands: mostly well-formed edge lines, so that
# many files parse and reach the queries, mixed with unknown keywords, token
# counts that do not fit, bad or repeated headers and comments.
_VERTICES = ["a", "b", "c", "0", "1"]
# distinct endpoints, and now and then a self-loop, which the walk commands refuse
_ends = st.sampled_from([(u, v) for u in _VERTICES for v in _VERTICES if u != v] + [("a", "a")])
_label_token = st.sampled_from(["0", "1", "x"])
_edge_line = st.builds(lambda uv, l: "edge {} {} {}".format(*uv, l), _ends, _label_token)
_flagedge_line = st.builds(
    lambda uv, lu, lv: "flagedge {} {} {} {}".format(*uv, lu, lv),
    _ends,
    _label_token,
    _label_token,
)
_garbage_line = st.builds(
    lambda keyword, tokens: " ".join([keyword, *tokens]),
    st.sampled_from(["edge", "flagedge", "graph", "node", "#", ""]),
    st.lists(st.sampled_from(["a", "b", "0", "x", "#", "a#b", "directed"]), max_size=5),
)
_header_line = st.sampled_from(
    ["graph directed", "graph directed", "graph undirected", "graph undirected",
     "graph undirected", "graph sideways", ""]
)
_soup = st.builds(
    lambda header, body, garbage, at: "\n".join([header, *body[:at], *garbage, *body[at:]])
    + "\n",
    _header_line,
    st.lists(st.one_of(_edge_line, _flagedge_line), min_size=1, max_size=10),
    st.one_of(st.just([]), st.just([]), st.lists(_garbage_line, min_size=1, max_size=1)),
    st.integers(0, 10),
)
_vertex_arg = st.sampled_from([*_VERTICES, "z"])
_label_arg = st.sampled_from(["0", "1", "x", "y"])
_graph_argv = st.one_of(
    st.just(["cycles"]),
    st.builds(lambda v, l: ["reach", "--start", v, "--label", l], _vertex_arg, _label_arg),
    st.builds(lambda p, q: ["shortest", "--from", p, "--to", q], _vertex_arg, _vertex_arg),
    st.builds(
        lambda p, q, d: ["simple-path", "--from", p, "--to", q, *d],
        _vertex_arg,
        _vertex_arg,
        st.sampled_from([[], [], [], ["--directed"]]),
    ),
    st.builds(
        lambda d: ["simple-cycles", *d], st.sampled_from([[], [], [], ["--directed"]])
    ),
)


@settings(max_examples=300, deadline=None)
@given(_graph_argv, _soup)
def test_graph_commands_on_token_soup_exit_cleanly(argv, text):
    code, out, err = _run(["graph", *argv, "-"], stdin=text)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1
        if code == 2:
            assert out == ""


def _two_label_ring(n, directed):
    """An n-edge ring v0 - v1 - ... - v0 whose edge labels alternate a|b."""
    return f"graph {'directed' if directed else 'undirected'}\n" + "".join(
        f"edge v{i} v{(i + 1) % n} {'ab'[i % 2]}\n" for i in range(n)
    )


@pytest.mark.parametrize("directed", [False, True])
def test_walk_commands_on_long_two_label_rings(monkeypatch, directed):
    """A 5*10^4-edge ring whose edge labels alternate a|b has an expansion
    far above ``FRONTIER_MIN_NODES`` and a diameter of about its size.  The
    frontier path must give the scans' stdout, and not take a numpy round
    per node: each command runs in under 1.5 s."""
    n = 50_000
    text = _two_label_ring(n, directed)
    assert LabelSwitchDigraph(parse_labeled_graph(text)).num_nodes >= _kernels.FRONTIER_MIN_NODES
    for argv in (
        ["graph", "cycles", "-"],
        ["graph", "reach", "--start", "v0", "--label", "a", "-"],
    ):
        monkeypatch.setattr(_kernels, "FRONTIER_MIN_NODES", 10**12)  # the scans
        want = _run(argv, stdin=text)
        monkeypatch.undo()
        start = time.perf_counter()
        got = _run(argv, stdin=text)
        elapsed = time.perf_counter() - start
        assert got == want
        assert want[0] == 0 and len(want[1].splitlines()) >= n
        assert elapsed < 1.5, elapsed


@pytest.mark.parametrize("directed", [False, True])
def test_shortest_on_a_long_two_label_ring_stops_at_its_target(monkeypatch, directed):
    """With the target one edge away on the 5*10^4-edge two-label ring,
    ``graph shortest``'s 0/1 BFS reaches fewer than 100 of the expansion's
    2*10^5 nodes, where the search run until its deque is empty reaches more
    than half of them, and it prints what that search prints."""
    text = _two_label_ring(50_000, directed)
    argv = ["graph", "shortest", "--from", "v0", "--to", "v1", "-"]
    bfs01 = _kernels.bfs01
    reached = []

    def counting(indptr, indices, cost, sources, targets=()):
        dist, parent = bfs01(indptr, indices, cost, sources, targets)
        reached.append((len(dist), int((dist < _kernels._UNREACHED).sum())))
        return dist, parent

    def full_search(indptr, indices, cost, sources, targets=()):
        return counting(indptr, indices, cost, sources)

    monkeypatch.setattr(_kernels, "bfs01", counting)
    got = _run(argv, stdin=text)
    monkeypatch.setattr(_kernels, "bfs01", full_search)
    want = _run(argv, stdin=text)
    assert got == want == (0, "edge 0: v0 -> v1 label a\n", "")
    (nodes, stopped), (_, full) = reached
    assert nodes == 200_000 and stopped < 100 and full > 100_000, (stopped, full)


def test_python_m_nonrep_runs_the_cli():
    """``python -m nonrep`` is the ``nonrep`` command, exit codes included."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "nonrep", "graph", "cycles", "-"]
    done = subprocess.run(cmd, input=TRIANGLE, capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == _run(["graph", "cycles", "-"], stdin=TRIANGLE)[1]
    done = subprocess.run(cmd, input="graph sideways\n", capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("graph parse error")
