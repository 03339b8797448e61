"""Regenerate the ``sudoku_hard_solve`` corpus from ``generate()`` seeds.

Generates puzzles for seeds 0, 1, 2, ... and keeps the locally stuck ones:
puzzles whose rule solve needs tier 2 or more, or that the rules cannot
finish.  Each kept puzzle is stored with its seed, grade and the digest of
its exact solve trace (the golden answer), and the file's own digest goes to
``hard_corpus.sha256``.  Run from the repository root at the commit whose
answers are to be recorded:

    python3 perfbench/make_corpus.py
"""

from __future__ import annotations

import multiprocessing

from common import DATA, sha256_text, trace_text, use_checkout_source
from inputs import HARD_CORPUS_SIZE

CORPUS = DATA / "hard_corpus.txt"
CORPUS_DIGEST = DATA / "hard_corpus.sha256"
JOBS = 2  # worker processes


def classify(seed: int):
    """(seed, grade, puzzle text, trace digest) for a stuck puzzle, else None."""
    use_checkout_source()
    from nonrep.sudoku import generate, solve

    puzzle = generate(3, seed).puzzle
    trace = solve(puzzle)
    if trace.outcome == "solved" and trace.difficulty_tier < 2:
        return None
    grade = str(trace.difficulty_tier) if trace.outcome == "solved" else trace.outcome
    return seed, grade, puzzle.to_text().strip(), sha256_text(trace_text(puzzle, trace))


def main() -> None:
    kept = []
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        for row in pool.imap(classify, range(10 * HARD_CORPUS_SIZE), chunksize=4):
            if row is not None:
                kept.append(row)
                if len(kept) == HARD_CORPUS_SIZE:
                    pool.terminate()
                    break
    if len(kept) < HARD_CORPUS_SIZE:
        raise SystemExit(f"only {len(kept)} stuck puzzles found")
    lines = ["# seed grade puzzle trace_sha256"]
    lines += [" ".join(map(str, row)) for row in kept]
    text = "\n".join(lines) + "\n"
    CORPUS.write_text(text, encoding="utf-8")
    CORPUS_DIGEST.write_text(sha256_text(text) + "\n", encoding="utf-8")
    print(f"wrote {len(kept)} puzzles to {CORPUS}")


if __name__ == "__main__":
    main()
