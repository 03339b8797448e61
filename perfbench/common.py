"""Paths, program import and canonical answer digests shared by the benchmark scripts.

The benchmark measures the program in ``src/`` of the checkout it sits in, so
every script imports ``nonrep`` from there and never from an installed copy.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
RESULTS = BENCH_DIR / "results"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/nonrep`` to measure."""


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or refuse."""
    if not (SRC / "nonrep" / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {SRC / 'nonrep'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_text(board, trace) -> str:
    """Byte-exact rendering of a solve trace, as ``sudoku solve --format structured`` prints it."""
    from nonrep.sudoku import deduction_line

    lines = [deduction_line(board.box, d) for d in trace.deductions]
    lines.append(f"outcome={trace.outcome}")
    lines.append(f"grid={trace.board.to_text().strip()}")
    return "\n".join(lines) + "\n"


def edge_set_digest(stdout: str) -> str:
    """Digest of the set of output lines, so answers compare as edge sets."""
    return sha256_text("\n".join(sorted(set(stdout.splitlines()))))
