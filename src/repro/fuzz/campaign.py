"""Fuzz campaign driver: generate → check → (shrink) → (persist).

One campaign draws ``runs`` programs from consecutive seeds and pushes
each through the full differential harness.  Divergent programs are
optionally delta-debugged to minimal repros and written to the corpus.
The returned report is JSON-shaped for ``hidisc fuzz --json`` and CI.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from ..config import MachineConfig
from ..experiments.models import MODEL_ORDER
from .corpus import save_repro
from .generator import generate_program
from .harness import check_program, injected_fault
from .shrink import shrink_program


def run_fuzz_campaign(seed: int = 2003, runs: int = 50, *,
                      config: MachineConfig | None = None,
                      size: int = 24,
                      shrink: bool = False,
                      corpus_dir=None,
                      fault: str | None = None,
                      models: tuple = MODEL_ORDER,
                      progress=None) -> dict:
    """Run *runs* seeded programs through the differential harness.

    *fault* names a deliberate compiled-table perturbation from
    :data:`repro.fuzz.harness.FAULTS` — the self-test mode: a healthy
    toolchain must then *produce* divergences.
    """
    config = config or MachineConfig()
    start = time.perf_counter()
    divergences = []
    saved = []
    context = injected_fault(fault) if fault else nullcontext()
    with context:
        for i in range(runs):
            program_seed = seed + i
            fuzz_prog = generate_program(program_seed, size=size)
            found = check_program(fuzz_prog, config, models=models)
            if found is None:
                if progress and (i + 1) % 25 == 0:
                    progress(f"  {i + 1}/{runs} programs clean ...")
                continue
            original_count = fuzz_prog.statement_count()
            if progress:
                progress(f"  divergence at seed {program_seed}: "
                         f"{found.summary()}")
            if shrink:
                reduced = shrink_program(fuzz_prog, config,
                                         target_kind=found.kind)
                if progress:
                    progress(f"  shrunk {original_count} -> "
                             f"{reduced.statement_count()} statements")
                fuzz_prog = reduced
                found = check_program(fuzz_prog, config, models=models) \
                    or found
            if corpus_dir is not None:
                path = save_repro(corpus_dir, fuzz_prog, found,
                                  original_statements=original_count)
                saved.append(str(path))
                if progress:
                    progress(f"  repro written to {path}")
            divergences.append({
                **found.as_dict(),
                "statements": fuzz_prog.statement_count(),
                "statements_original": original_count,
            })
    return {
        "seed": seed,
        "runs": runs,
        "size": size,
        "fault": fault,
        "models": list(models),
        "divergences": divergences,
        "corpus": saved,
        "elapsed_seconds": time.perf_counter() - start,
    }
