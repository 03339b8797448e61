"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the program's modules with
wrappers that record one span per call (name, start, end, parent span, op)
plus a few counters read off the return values.  Spans stay in memory until
``write_spans``; ``restore`` puts every original function back.  Nothing in
``src/`` knows about it.

A layer's self time is its spans' total duration minus the duration of their
traced children.  ``cli.format.self_s`` is the self time of ``cli.run``:
argument parsing, reading the input and formatting and printing the answer.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

KERNELS = (
    "build_csr",
    "scc_csr",
    "reach_csr",
    "bfs01",
    "bipartite_forbidden",
    "blossom_matching",
    "count_and_first",
    "propagate_singles",
)
SIMPLE_PATH_STAGES = ("binarize_labels", "build_skew_instance", "regular_reachable")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (span id, parent id, op, name, start, end)
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._names: list[str] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` counts."""
        stack, names, spans = self._stack, self._names, self.spans

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(sid)
            names.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                names.pop()
                spans.append((sid, parent, self.op, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return name in self._names

    def parent_is(self, name: str) -> bool:
        return bool(self._names) and self._names[-1] == name

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, wrapper_of):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by ``wrapper_of(it)``."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        _assign(owner, attr, wrapper_of(original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the program's layer boundaries, imported lazily from ``nonrep``."""
        mod = importlib.import_module
        cli = mod("nonrep.cli")
        lg = mod("nonrep.labeled_graph")
        engine = mod("nonrep.engine")
        kernels = mod("nonrep._kernels")
        matching = mod("nonrep.matching")
        sp = mod("nonrep.simple_paths")
        gen = mod("nonrep.sudoku.generate")
        rules = mod("nonrep.sudoku.rules")
        board = mod("nonrep.sudoku.board")
        c = self.counters

        def named(name, after=None):
            return lambda fn: self.span(name, fn, after)

        self._patch(cli, "run", named("cli.run"))
        for owner in (cli, lg):
            self._patch(owner, "parse_labeled_graph", named("labeled_graph.parse"))
        self._patch(lg.FlagLabeledGraph, "subgraph", named("labeled_graph.subgraph"))
        self._patch(engine, "build_switch_gadget", named("gadget.build_switch_gadget"))

        def built(args, _result):
            expansion = args[0]
            c["engine.nodes"] += expansion.num_nodes
            c["engine.arcs"] += expansion.num_arcs
            if self.inside("rules.solve"):
                c["rules.expansions"] += 1

        lsd = engine.LabelSwitchDigraph
        self._patch(lsd, "__init__", named("engine.build", built))
        self._patch(lsd, "cycle_directions", named("engine.cycles"))
        self._patch(lsd, "reachable_from", named("engine.reach"))
        self._patch(lsd, "shortest_path", named("engine.shortest"))

        def counted(fn):
            # Every ReachedEdge is made here; a span per object would cost
            # more than the object, so this wrapper only counts.
            def oriented(*args):
                c["engine.results"] += 1
                return fn(*args)

            return oriented

        self._patch(lsd, "_oriented", counted)

        def removal_trial(args, result):
            if self.parent_is("generate.generate") and args[2] == 2:
                c["generate.removal_trials"] += 1
                c["generate.removal_kept"] += int(result[0]) == 1

        for name in KERNELS:
            after = removal_trial if name == "count_and_first" else None
            self._patch(kernels, name, named(f"kernels.{name}", after))

        def perfect(_args, result):
            c["matching.perfect_found"] += bool(result[1])

        for owner in (matching, sp):
            self._patch(
                owner,
                "perfect_matching_mate",
                named("matching.perfect_matching_mate", perfect),
            )
        for name in SIMPLE_PATH_STAGES:
            self._patch(sp, name, named(f"simple_paths.{name}"))
        self._patch(sp, "nonrepetitive_simple_path", named("simple_paths.query"))
        self._patch(sp, "simple_cycle_edges", named("simple_paths.simple_cycle_edges"))

        def generated(_args, report):
            c["generate.fill_attempts"] += report.restarts + 1

        self._patch(gen, "generate", named("generate.generate", generated))
        self._patch(gen, "grade", named("generate.grade"))

        def solved(_args, trace):
            c["rules.steps"] += len(trace.deductions)

        for owner in (rules, gen):
            self._patch(owner, "solve", named("rules.solve", solved))
        for rule in list(rules._RULE_FUNCTIONS):

            def fired(_args, found, rule=rule):
                c[f"rules.{rule}.firings"] += bool(found)
                c[f"rules.{rule}.deductions"] += len(found)

            self._patch(rules._RULE_FUNCTIONS, rule, named(f"rules.{rule}", fired))
        for name in ("build_bilocation_graph", "build_bivalue_graphs"):
            self._patch(rules, name, named(f"rules.{name}"))
        for owner in (rules, board):
            self._patch(owner, "apply_deduction", named("board.apply_deduction"))

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            _assign(*self._patches.pop())

    # -- results ------------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        name_of = {sid: name for sid, _, _, name, _, _ in self.spans}
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        for _sid, parent, _op, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent:
                child[name_of[parent]] += end - start
        return {n: (calls[n], total[n], total[n] - child[n]) for n in calls}

    def write_spans(self, path, origin: float) -> None:
        """One JSON list per line: span id, parent id, op, name, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, op, name, start, end in self.spans:
                out.write(
                    json.dumps([sid, parent, op, name, start - origin, end - origin])
                    + "\n"
                )


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rule_names) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit); a ratio with base 0 reads 0."""
    t = tracer.totals()
    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def calls(span, name=None):
        out[f"{name or span}.calls"] = (t.get(span, (0, 0, 0))[0], "count")

    def self_s(span, name=None):
        out[f"{name or span}.self_s"] = (t.get(span, (0, 0, 0.0))[2], "s")

    def count(name):
        out[name] = (c.get(name, 0), "count")

    self_s("cli.run", "cli.format")
    self_s("labeled_graph.parse")
    for span in ("labeled_graph.subgraph", "gadget.build_switch_gadget", "engine.build"):
        calls(span)
        self_s(span)
    count("engine.nodes")
    count("engine.arcs")
    self_s("engine.cycles")
    calls("engine.reach")
    self_s("engine.reach")
    self_s("engine.shortest")
    count("engine.results")
    for name in KERNELS:
        calls(f"kernels.{name}")
        self_s(f"kernels.{name}")

    mates = t.get("matching.perfect_matching_mate", (0, 0, 0))[0]
    calls("matching.perfect_matching_mate")
    self_s("matching.perfect_matching_mate")
    count("matching.perfect_found")
    out["matching.perfect_ratio"] = (_ratio(c["matching.perfect_found"], mates), "ratio")
    for name in SIMPLE_PATH_STAGES:
        calls(f"simple_paths.{name}")
        self_s(f"simple_paths.{name}")
    queries = t.get("simple_paths.query", (0, 0, 0))[0]
    out["simple_paths.queries"] = (queries, "count")
    out["simple_paths.matchings_per_query"] = (_ratio(mates, queries), "ratio")

    puzzles = t.get("generate.generate", (0, 0, 0))[0]
    calls("generate.generate")
    self_s("generate.generate")
    count("generate.fill_attempts")
    out["generate.useful_fill_ratio"] = (
        _ratio(puzzles, c["generate.fill_attempts"]),
        "ratio",
    )
    count("generate.removal_trials")
    count("generate.removal_kept")
    out["generate.removal_kept_ratio"] = (
        _ratio(c["generate.removal_kept"], c["generate.removal_trials"]),
        "ratio",
    )

    computed = 0
    for rule in rule_names:
        calls(f"rules.{rule}")
        count(f"rules.{rule}.firings")
        count(f"rules.{rule}.deductions")
        self_s(f"rules.{rule}")
        computed += c.get(f"rules.{rule}.deductions", 0)
    for name in ("build_bilocation_graph", "build_bivalue_graphs"):
        calls(f"rules.{name}")
        self_s(f"rules.{name}")
    count("rules.steps")
    out["rules.deductions_computed"] = (computed, "count")
    out["rules.used_per_computed"] = (_ratio(c["rules.steps"], computed), "ratio")
    count("rules.expansions")
    out["rules.expansions_per_step"] = (
        _ratio(c["rules.expansions"], c["rules.steps"]),
        "ratio",
    )
    calls("board.apply_deduction")
    self_s("board.apply_deduction")
    return out
