"""Compare two sets of benchmark result files, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``*-trace0.json`` records written by ``run.py``.  Prints,
for every end-to-end metric, each side's median and quartiles and the change
of the median.  Refuses (exit 2) when the records ran on different kernel
paths (numba-compiled against pure Python), because their numbers do not
measure the same code.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str):
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    paths = {r["env"]["kernel_path"] for side in (base, new) for rs in side.values() for r in rs}
    if len(paths) > 1:
        print(f"refusing to compare runs on different kernel paths: {sorted(paths)}", file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}  ({len(base[workload])} base runs, {len(new[workload])} new runs)")
        for name, meta in base[workload][0]["metrics"].items():
            sides = []
            for runs in (base[workload], new[workload]):
                values = [r["metrics"][name]["value"] for r in runs]
                values = [v for v in values if v is not None]
                sides.append(quartiles(values) if values else None)
            if None in sides:
                continue
            (b1, b2, b3), (n1, n2, n3) = sides
            change = (n2 - b2) / b2 if b2 else float("nan")
            print(
                f"  {name:<14} base {b2:.5g} [{b1:.5g}, {b3:.5g}]  "
                f"new {n2:.5g} [{n1:.5g}, {n3:.5g}]  {change:+.1%} {meta['unit']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
