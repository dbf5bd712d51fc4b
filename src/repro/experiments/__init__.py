"""Experiment harness: one module per table/figure of the paper.

* :mod:`repro.experiments.table1` — simulation parameters.
* :mod:`repro.experiments.figure8` — speed-up over the baseline.
* :mod:`repro.experiments.table2` — mean speed-up per model.
* :mod:`repro.experiments.figure9` — L1 miss-rate reduction.
* :mod:`repro.experiments.figure10` — IPC vs memory latency.
* :mod:`repro.experiments.cache` — persistent compilation (run) cache.
* :mod:`repro.experiments.checkpoint` — crash-resumable suite checkpoints.
* :mod:`repro.experiments.ledger` — append-only per-run ledger.
* :mod:`repro.experiments.parallel` — process-pool grid execution.
* :mod:`repro.experiments.interrupt` — graceful SIGINT/SIGTERM stops.
* :mod:`repro.experiments.cli` — the ``hidisc`` command.
"""

from .cache import RunCache, compile_key, prepare_cached
from .checkpoint import SuiteCheckpoint, suite_key
from .interrupt import GracefulInterrupt
from .ledger import RunLedger, ledger_path, new_run_id
from .figure8 import Figure8, figure8
from .figure9 import Figure9, figure9
from .figure10 import FIGURE10_BENCHMARKS, Figure10, figure10
from .models import MODEL_LABELS, MODEL_ORDER, PAPER
from .parallel import Task, run_tasks
from .runner import (
    BenchmarkResults,
    CompiledWorkload,
    build_machine,
    model_pieces,
    prepare,
    run_benchmark,
    run_model,
)
from .suite import SuiteResult, run_suite
from .table1 import table1
from .table2 import Table2, table2

__all__ = [
    "BenchmarkResults",
    "CompiledWorkload",
    "FIGURE10_BENCHMARKS",
    "Figure10",
    "Figure8",
    "Figure9",
    "GracefulInterrupt",
    "MODEL_LABELS",
    "MODEL_ORDER",
    "PAPER",
    "RunCache",
    "RunLedger",
    "SuiteCheckpoint",
    "SuiteResult",
    "Table2",
    "Task",
    "build_machine",
    "compile_key",
    "figure10",
    "figure8",
    "figure9",
    "ledger_path",
    "model_pieces",
    "new_run_id",
    "prepare",
    "prepare_cached",
    "run_benchmark",
    "run_model",
    "run_suite",
    "run_tasks",
    "suite_key",
    "table1",
    "table2",
]
