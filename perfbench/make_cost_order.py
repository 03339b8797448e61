"""Sort each workload pool by op time, for the cost strata of ``inputs.stratified``.

Times every item of the ``sudoku_hard_solve`` and ``simple_paths_sweep``
pools in five interleaved passes (after one warm-up
op), each op scaled to reference host speed as ``run.py`` does, and writes
each pool's indices, cheapest first, by their median time to
``data/cost_order.json``.  Only the order is kept: it stays a fair split into
cheap and costly items on a faster or slower machine.  Run from the
repository root after the pools or their golden answers change:

    python3 perfbench/make_cost_order.py
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import hostspeed
import inputs
from common import DATA, use_checkout_source

PASSES = 5


def cost_order(name: str) -> list[int]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](0)
    workload.load()
    pool = range(inputs.POOL_SIZE[name])
    workload.execute(0)
    times = {i: [] for i in pool}
    for _ in range(PASSES):
        before = hostspeed.reference_seconds()
        for i in pool:
            start = perf_counter()
            workload.execute(i)
            seconds = perf_counter() - start
            after = hostspeed.reference_seconds()
            times[i].append(hostspeed.scaled(seconds, before, after))
            before = after
    median = {i: statistics.median(t) for i, t in times.items()}
    print(f"{name}: {len(pool)} items, {sum(median.values()):.1f} s per pass", flush=True)
    return sorted(pool, key=lambda i: (median[i], i))


def main() -> None:
    use_checkout_source()
    order = {name: cost_order(name) for name in inputs.STRATUM}
    with open(DATA / "cost_order.json", "w", encoding="utf-8") as out:
        json.dump(order, out)
        out.write("\n")
    print(f"wrote {DATA / 'cost_order.json'}")


if __name__ == "__main__":
    main()
