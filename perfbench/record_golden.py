"""Record the golden answers of the sudoku_batch, simple_paths_sweep and
graph_walks_large pools from the program as it stands.

Run it from the repository root only at a commit whose answers are trusted
(the answers were first recorded at the commit that added this benchmark);
every later run of ``run.py`` is checked against these files.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import importlib
import json
from itertools import combinations

import inputs
from common import DATA, edge_set_digest, sha256_text, use_checkout_source
from workloads import batch_text, graph_argv, run_cli, tier_name


def _write(name: str, data) -> None:
    with open(DATA / name, "w", encoding="utf-8") as out:
        json.dump(data, out, indent=1)
        out.write("\n")
    print(f"wrote {DATA / name}")


def record_batch() -> None:
    gen = importlib.import_module("nonrep.sudoku.generate")
    puzzles = []
    for subseed in inputs.batch_subseeds():
        report = gen.generate(3, subseed)
        puzzles.append(
            {
                "subseed": subseed,
                "report_sha256": sha256_text(report.to_text()),
                "tier": tier_name(gen.grade(report.puzzle)),
            }
        )
    text = gen.batch_stats(inputs.BATCH_POOL, inputs.BATCH_SEED, jobs=1).to_text()
    if batch_text(gen, [p["tier"] for p in puzzles]) != text:
        raise SystemExit("batch_stats disagrees with the per-puzzle grades")
    _write("golden_batch.json", {"batch_text": text, "puzzles": puzzles})


def record_simple() -> None:
    from nonrep import simple_paths

    pool = [inputs.simple_graph(i) for i in range(inputs.SIMPLE_POOL)]
    graphs = []
    for sg in pool:
        g = sg.build()
        paths = "".join(
            "0" if simple_paths.nonrepetitive_simple_path(g, f"v{a}", f"v{b}") is None else "1"
            for a, b in combinations(range(sg.num_vertices), 2)
        )
        graphs.append(
            {"paths": paths, "cycle_edges": sorted(simple_paths.simple_cycle_edges(g))}
        )
    _write("golden_simple.json", {"pool_sha256": sha256_text(repr(pool)), "graphs": graphs})


def record_graphs() -> None:
    from nonrep import cli

    golden = {}
    for key in inputs.LARGE_GRAPHS:
        graph = inputs.large_graph(key)
        entry = {"text_sha256": sha256_text(graph.text), "reach": [], "shortest_lengths": []}
        code, out = run_cli(cli, graph_argv(graph, "cycles", 0), graph.text)
        if code != 0:
            raise SystemExit(f"graph cycles failed on {key}")
        entry["cycles"] = edge_set_digest(out)
        for q in range(inputs.QUERY_CANDIDATES):
            code, out = run_cli(cli, graph_argv(graph, "reach", q), graph.text)
            if code != 0:
                raise SystemExit(f"graph reach failed on {key}")
            entry["reach"].append(edge_set_digest(out))
            code, out = run_cli(cli, graph_argv(graph, "shortest", q), graph.text)
            entry["shortest_lengths"].append(len(out.splitlines()) if code == 0 else None)
        golden[key] = entry
        print(f"recorded {key}")
    _write("golden_graphs.json", golden)


def main() -> None:
    use_checkout_source()
    record_batch()
    record_simple()
    record_graphs()


if __name__ == "__main__":
    main()
