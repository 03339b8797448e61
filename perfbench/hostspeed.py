"""Host speed, read off a fixed reference loop timed beside every op.

The benchmark runs on shared virtual machines whose speed drifts by 20 % and
more from one second to the next, in CPU time as in wall time, so raw op
times of the same code spread too widely to compare two commits.  So every
op is bracketed by two readings of ``reference_loop``, a fixed piece of pure
Python that calls no program code, and the op's time is rescaled to the
speed at which that loop takes ``REF_SECONDS``:

    scaled = op seconds * REF_SECONDS / mean(loop seconds before, after)

A change to the program moves the op time and not the loop time, so it
shows in full; a host that slows down for a while slows both, and the ratio
stays.  The loop does dict, set, sort and tuple work, like the program, and
runs with the cyclic garbage collector off, so the program's heap never
adds a collection to it.  Work the program leaves running between ops would
slow the loop too; the raw wall-time figures are reported beside.
"""

from __future__ import annotations

import gc
from time import perf_counter

# About the loop's time on the 2-core VM the benchmark was written on, so
# scaled times read close to wall times there.
REF_SECONDS = 1.2e-3


def reference_loop() -> int:
    out = {}
    for k in range(1500):
        s = {k % 97, (k * 3) % 89, k % 13}
        out[k % 501] = (sorted(s), len(s))
    return len(out)


def reference_seconds() -> float:
    """Seconds one run of ``reference_loop`` takes now: the fastest of three
    runs, so a single interrupt, or the page faults and cold caches an op
    that freed a large heap leaves behind, do not read as a slow host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between loop times ``before`` and ``after``,
    rescaled to the host speed at which the loop takes ``REF_SECONDS``."""
    return seconds * 2 * REF_SECONDS / (before + after)
