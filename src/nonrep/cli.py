"""Command-line interface.

Two command families share one binary: ``nonrep graph ...`` for labeled-graph
analysis and ``nonrep sudoku ...`` for puzzle workflows.  Exit codes: 0 on
success, 1 for negative domain answers (no path, unsolved puzzle), 2 for
usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .engine import LabelSwitchDigraph
from .labeled_graph import FlagLabeledGraph, GraphParseError, parse_labeled_graph
from .simple_paths import nonrepetitive_simple_path, simple_cycle_edges
from .sudoku import (
    batch_stats,
    deduction_line,
    dense_bivalue_fixture,
    generate,
    grade,
    parse_board,
    solve,
)


class _CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> FlagLabeledGraph:
    try:
        return parse_labeled_graph(_read_input(path))
    except GraphParseError as exc:
        raise _CliError(f"graph parse error: {exc}") from exc


def _load_board(path: str):
    try:
        return parse_board(_read_input(path))
    except ValueError as exc:
        raise _CliError(f"board parse error: {exc}") from exc


def _require_vertices(g: FlagLabeledGraph, *tokens) -> None:
    for token in tokens:
        if not g.has_vertex(token):
            raise _CliError(f"unknown vertex {token!r}")


def _expansion(g: FlagLabeledGraph) -> LabelSwitchDigraph:
    try:
        return LabelSwitchDigraph(g)
    except ValueError as exc:  # self-loops have no switch gadget
        raise _CliError(f"unsupported graph: {exc}") from exc


def _write_traversals(edges) -> None:
    """One ``edge <id>: <tail> -> <head> label <far label>`` line per
    traversal, written to stdout at once."""
    sys.stdout.write(
        "".join(
            f"edge {e.edge_id}: {e.tail} -> {e.head} label {e.far_label}\n"
            for e in edges
        )
    )


# -- graph subcommands ---------------------------------------------------------


def _cmd_graph_cycles(args) -> int:
    g = _load_graph(args.file)
    _write_traversals(_expansion(g).cycle_directions())
    return 0


def _cmd_graph_reach(args) -> int:
    g = _load_graph(args.file)
    _require_vertices(g, args.start)
    expansion = _expansion(g)
    _write_traversals(expansion.reachable_from(args.start, args.label).edges)
    return 0


def _cmd_graph_shortest(args) -> int:
    g = _load_graph(args.file)
    _require_vertices(g, args.src, args.dst)
    path = _expansion(g).shortest_path(args.src, args.dst)
    if path is None:
        print("no nonrepetitive path", file=sys.stderr)
        return 1
    _write_traversals(path)
    return 0


def _refuse_directed() -> int:
    print(
        "simple-path and simple-cycle questions in directed labeled graphs "
        "are NP-complete; only undirected graphs are supported",
        file=sys.stderr,
    )
    return 2


def _cmd_graph_simple_path(args) -> int:
    if args.directed:
        return _refuse_directed()
    g = _load_graph(args.file)
    if g.directed:
        return _refuse_directed()
    _require_vertices(g, args.src, args.dst)
    witness = nonrepetitive_simple_path(g, args.src, args.dst)
    if witness is None:
        print("no simple nonrepetitive path", file=sys.stderr)
        return 1
    for eid in witness:
        u, v = g.endpoints(eid)
        lu, lv = g.edge_labels(eid)
        label = lu if lu == lv else f"{lu}/{lv}"
        print(f"edge {eid}: {u} -- {v} label {label}")
    return 0


def _cmd_graph_simple_cycles(args) -> int:
    if args.directed:
        return _refuse_directed()
    g = _load_graph(args.file)
    if g.directed:
        return _refuse_directed()
    for eid in sorted(simple_cycle_edges(g)):
        u, v = g.endpoints(eid)
        lu, lv = g.edge_labels(eid)
        label = lu if lu == lv else f"{lu}/{lv}"
        print(f"edge {eid}: {u} -- {v} label {label}")
    return 0


# -- sudoku subcommands ----------------------------------------------------------


def _cmd_sudoku_solve(args) -> int:
    board = _load_board(args.file)
    trace = solve(board, max_tier=args.max_tier)
    if args.trace or args.format == "structured":
        for d in trace.deductions:
            print(deduction_line(board.box, d))
    if trace.outcome == "solved":
        if args.format == "structured":
            print("outcome=solved")
            print(f"grid={trace.board.to_text().strip()}")
        else:
            print(trace.board.pretty())
        return 0
    print(f"outcome={trace.outcome}", file=sys.stderr)
    if args.format != "structured":
        print(trace.board.pretty(), file=sys.stderr)
    return 1


def _cmd_sudoku_generate(args) -> int:
    for i in range(args.count):
        seed = args.seed + i
        report = generate(args.box, seed=seed, symmetric=not args.no_symmetric)
        if args.format == "structured":
            print(report.to_text(), end="")
            if i + 1 < args.count:
                print()
        else:
            print(report.puzzle.to_text().strip())
    return 0


def _cmd_sudoku_grade(args) -> int:
    board = _load_board(args.file)
    try:
        tier = grade(board)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    if tier is math.inf:
        print("tier=unsolvable")
        return 1
    print(f"tier={tier}")
    return 0


def _cmd_sudoku_stats(args) -> int:
    if args.count < 1:
        raise _CliError("--count must be positive")
    stats = batch_stats(args.count, args.seed, box=args.box, jobs=args.jobs)
    print(stats.to_text(), end="")
    return 0


def _cmd_sudoku_fixture(args) -> int:
    board = dense_bivalue_fixture(args.box)
    print(board.to_text().strip())
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonrep",
        description="Nonrepetitive path analysis in labeled graphs, and a "
        "rule-based Sudoku solver, generator and grader built on it.",
    )
    top = parser.add_subparsers(dest="family", required=True)

    graph = top.add_parser("graph", help="labeled-graph analysis")
    gsub = graph.add_subparsers(dest="command", required=True)

    def graph_cmd(name, func, help_text):
        sub = gsub.add_parser(name, help=help_text)
        sub.add_argument(
            "file",
            nargs="?",
            default="-",
            help="graph file ('-' reads standard input); format: 'graph "
            "directed|undirected' header, then 'edge u v label' or "
            "'flagedge u v labelAtU labelAtV' lines, '#' comments",
        )
        sub.set_defaults(func=func)
        return sub

    graph_cmd(
        "cycles",
        _cmd_graph_cycles,
        "list edge traversals on nonrepetitive closed walks",
    )
    reach = graph_cmd(
        "reach",
        _cmd_graph_reach,
        "list edges reachable by nonrepetitive walks from a start flag",
    )
    reach.add_argument("--start", required=True, help="start vertex")
    reach.add_argument("--label", required=True, help="first edge label at the start")
    shortest = graph_cmd(
        "shortest",
        _cmd_graph_shortest,
        "fewest-edge nonrepetitive walk between two vertices",
    )
    shortest.add_argument("--from", dest="src", required=True, help="source vertex")
    shortest.add_argument("--to", dest="dst", required=True, help="target vertex")
    spath = graph_cmd(
        "simple-path",
        _cmd_graph_simple_path,
        "simple nonrepetitive path between two vertices (undirected only)",
    )
    spath.add_argument("--from", dest="src", required=True, help="source vertex")
    spath.add_argument("--to", dest="dst", required=True, help="target vertex")
    spath.add_argument(
        "--directed",
        action="store_true",
        help="refused: the directed variant is NP-complete",
    )
    scycles = graph_cmd(
        "simple-cycles",
        _cmd_graph_simple_cycles,
        "edges on simple nonrepetitive cycles (undirected only)",
    )
    scycles.add_argument(
        "--directed",
        action="store_true",
        help="refused: the directed variant is NP-complete",
    )

    sudoku = top.add_parser("sudoku", help="solve, generate, grade, benchmark")
    ssub = sudoku.add_subparsers(dest="command", required=True)

    solve_p = ssub.add_parser("solve", help="solve a puzzle with the rule engine")
    solve_p.add_argument(
        "file",
        nargs="?",
        default="-",
        help="board file ('-' reads stdin): 81-char line for 3x3 boxes, or "
        "'B <n>' header plus n^4 whitespace-separated values (0 empty)",
    )
    solve_p.add_argument("--trace", action="store_true", help="print one line per deduction")
    solve_p.add_argument(
        "--max-tier",
        type=int,
        default=4,
        choices=range(0, 5),
        help="cap the rule tier (0 singles .. 4 bivalue/mixed nonlocal)",
    )
    solve_p.add_argument("--format", choices=("text", "structured"), default="text")
    solve_p.set_defaults(func=_cmd_sudoku_solve)

    gen_p = ssub.add_parser("generate", help="generate minimal symmetric puzzles")
    gen_p.add_argument("--seed", type=int, required=True, help="generator seed")
    gen_p.add_argument("--count", type=int, default=1, help="number of puzzles")
    gen_p.add_argument("--box", type=int, default=3, choices=(2, 3), help="box side")
    gen_p.add_argument(
        "--no-symmetric", action="store_true", help="drop the 180-degree clue symmetry"
    )
    gen_p.add_argument("--format", choices=("text", "structured"), default="text")
    gen_p.set_defaults(func=_cmd_sudoku_generate)

    grade_p = ssub.add_parser("grade", help="difficulty tier of a puzzle")
    grade_p.add_argument("file", nargs="?", default="-")
    grade_p.set_defaults(func=_cmd_sudoku_grade)

    stats_p = ssub.add_parser("stats", help="generate and grade a batch of puzzles")
    stats_p.add_argument("--count", type=int, required=True)
    stats_p.add_argument("--seed", type=int, default=0)
    stats_p.add_argument("--box", type=int, default=3, choices=(2, 3))
    stats_p.add_argument("--jobs", type=int, default=1, help="worker processes")
    stats_p.set_defaults(func=_cmd_sudoku_stats)

    fixture_p = ssub.add_parser(
        "fixture", help="dense-bivalue stress board (diagonal boxes and one digit emptied)"
    )
    fixture_p.add_argument("--box", type=int, default=3, choices=(2, 3, 4, 5))
    fixture_p.set_defaults(func=_cmd_sudoku_fixture)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
