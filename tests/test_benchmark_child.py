"""The end-to-end benchmark's child still imports against the package.

``benchmarks/e2e/child.py`` imports package names at module level (the
benchmark runs it once per measured iteration).  Its ``--help`` exits 0
only if every one of those imports resolves, so a rename or deletion in
the package that the benchmark depends on fails here, not in the
benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_child_imports_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "child.py"),
         "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "--workload" in done.stdout
