"""On-disk failure corpus: replayable minimal repros.

Each divergence the campaign keeps becomes one JSON file carrying the
(shrunk) program IR plus the divergence report.  The payload shape is
deliberately `hidisc diff`-friendly: two repro files (or a repro before
and after a fix) can be compared leaf-by-leaf with the existing
differential tooling, and ``replay_repro`` re-runs the program through
the harness to confirm the failure still reproduces (or no longer does,
after a fix).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..config import MachineConfig
from .generator import FuzzProgram
from .harness import Divergence, check_program


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def save_repro(corpus_dir: str | Path, fuzz_prog: FuzzProgram,
               divergence: Divergence,
               original_statements: int | None = None) -> Path:
    """Persist one (preferably shrunk) failing program; returns the path."""
    corpus = Path(corpus_dir)
    corpus.mkdir(parents=True, exist_ok=True)
    path = corpus / (f"repro_{_slug(divergence.kind)}"
                     f"_seed{fuzz_prog.seed}.json")
    payload = {
        "divergence": divergence.as_dict(),
        "statements_kept": fuzz_prog.statement_count(),
        "statements_original": original_statements,
        "program": json.loads(fuzz_prog.to_json()),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: str | Path) -> tuple[FuzzProgram, dict]:
    """Load a corpus file back into (program, divergence-report dict)."""
    raw = json.loads(Path(path).read_text())
    return (FuzzProgram.from_json(json.dumps(raw["program"])),
            raw["divergence"])


def replay_repro(path: str | Path,
                 config: MachineConfig | None = None) -> Divergence | None:
    """Re-run a corpus entry; None means the failure no longer reproduces."""
    fuzz_prog, _ = load_repro(path)
    return check_program(fuzz_prog, config or MachineConfig())
