"""Benchmark the jitted kernels against their pure-Python sources.

Runs the two jittable matchers, ``kuhn_bipartite`` and ``blossom_matching``,
on representative workloads and prints a table of timings plus speedups.
The traversal and Sudoku kernels are plain Python and are not listed.  The
jitted column disappears when numba is disabled (NONREP_NO_NUMBA=1) or
unavailable.

Usage:
    python benchmarks/bench_kernels.py [--repeats 5]
"""

from __future__ import annotations

import argparse
import time
from random import Random

import numpy as np

import nonrep._kernels as K


def build_workloads(seed: int = 12345):
    rng = Random(seed)
    n_blossom = 300
    pool = [(u, v) for u in range(n_blossom) for v in range(u + 1, n_blossom)]
    rng.shuffle(pool)
    tails, heads = [], []
    for u, v in pool[:1200]:
        tails.extend((u, v))
        heads.extend((v, u))
    b_ptr, b_idx, _ = K.build_csr(
        n_blossom, np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64)
    )

    nl = 64
    adj = np.zeros(nl + 1, dtype=np.int64)
    flat = []
    for l in range(nl):
        rights = sorted(rng.sample(range(nl), 8))
        flat.extend(rights)
        adj[l + 1] = len(flat)
    k_idx = np.array(flat, dtype=np.int64)

    return {
        "kuhn_bipartite": (nl, nl, adj, k_idx),
        "blossom_matching": (n_blossom, b_ptr, b_idx, np.int64(0)),
    }


def time_call(fn, args, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        prepped = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
        start = time.perf_counter()
        fn(*prepped)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    workloads = build_workloads()
    print(f"numba active: {K.USE_NUMBA}")
    header = f"{'kernel':<20} {'pure (ms)':>12} {'jit (ms)':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, work in workloads.items():
        pure = K.PURE_KERNELS[name]
        active = K.ACTIVE_KERNELS[name]
        pure_t = time_call(pure, work, args.repeats)
        if K.USE_NUMBA:
            active(*tuple(a.copy() if isinstance(a, np.ndarray) else a for a in work))
            jit_t = time_call(active, work, args.repeats)
            print(
                f"{name:<20} {1e3 * pure_t:>12.3f} {1e3 * jit_t:>12.3f} "
                f"{pure_t / jit_t:>8.1f}x"
            )
        else:
            print(f"{name:<20} {1e3 * pure_t:>12.3f} {'-':>12} {'-':>9}")


if __name__ == "__main__":
    main()
