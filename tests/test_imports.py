"""The installed library stands without its test scaffolding."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_library_pulls_in_no_test_code(tmp_path):
    """A fresh interpreter, run away from the checkout with only ``src`` on
    its path, imports the package, the Sudoku half and the CLI without
    loading networkx, hypothesis, pytest or the test oracles."""
    script = (
        "import json, sys\n"
        "import nonrep, nonrep.sudoku, nonrep.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(out.stdout)
    assert "nonrep.cli" in loaded
    banned = ("networkx", "hypothesis", "pytest", "_pytest", "oracles")
    leaked = [name for name in loaded if name.split(".")[0] in banned]
    assert leaked == []
