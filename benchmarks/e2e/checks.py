"""Output checks of the end-to-end benchmark.

A speed-up that changes a result is a bug, so every run checks what the
program produced: payload invariants for any seed, committed per-cell
digests at the reference seed, and payload equality where two paths must
agree (warm vs cold cache, traced replica vs untraced, service vs
in-process).
"""

from __future__ import annotations

import json

from harness import HERE

REFERENCE = HERE / "reference" / "digests.json"

#: Seed the committed digests were recorded at.
REFERENCE_SEED = 2003


def cell_digests(suite) -> dict[str, list[int]]:
    """Per cell of a ``SuiteResult``: cycles, committed instructions (all
    cores) and L1 demand misses."""
    return {f"{name}/{mode}": [r.cycles, sum(r.committed.values()),
                               r.l1.demand_misses]
            for name, bench in suite.benchmarks.items()
            for mode, r in bench.results.items()}


def payload_problems(payload: dict, cells: int) -> list[str]:
    """Invariants every suite payload satisfies at any seed: the expected
    number of cells, positive cycles, CPI stacks that sum exactly to the
    cycles on every core, and sampled cells that are exact or within
    their plan's error budget."""
    problems = []
    found = 0
    for name, entry in payload["benchmarks"].items():
        for mode, cell in entry["models"].items():
            found += 1
            where = f"{name}/{mode}"
            if cell["cycles"] <= 0:
                problems.append(f"{where}: {cell['cycles']} cycles")
            if not cell["cpi_stack"]:
                problems.append(f"{where}: no CPI stack")
            for core, stack in cell["cpi_stack"].items():
                if sum(stack.values()) != cell["cycles"]:
                    problems.append(f"{where}/{core}: CPI stack sums to "
                                    f"{sum(stack.values())}, not "
                                    f"{cell['cycles']}")
            sampling = cell.get("sampling")
            if sampling and not sampling["exact"] and \
                    sampling["cycles_rel_ci95"] > sampling["plan"]["error_budget"]:
                problems.append(f"{where}: sampled CI "
                                f"{sampling['cycles_rel_ci95']:.4f} over "
                                f"budget {sampling['plan']['error_budget']}")
    if found != cells:
        problems.append(f"{found} cells in the payload, expected {cells}")
    return problems


def reference_problems(key: str, seed: int,
                       digests: dict[str, list[int]]) -> list[str]:
    """Digest mismatches against ``reference/digests.json`` (only at the
    reference seed; other seeds have no recorded answer)."""
    if seed != REFERENCE_SEED:
        return []
    want = json.loads(REFERENCE.read_text())[key]
    if digests == want:
        return []
    return [f"{key} {cell}: {digests.get(cell)} != reference {want.get(cell)}"
            for cell in sorted(set(want) | set(digests))
            if digests.get(cell) != want.get(cell)]


def diff_problems(a: dict, b: dict, label: str) -> list[str]:
    """Divergences between two payloads, ignoring wall-clock fields."""
    from repro.telemetry.diff import diff_payloads

    report = diff_payloads(a, b)
    return [f"{label}: {d['path']}: {d['a']!r} != {d['b']!r}"
            for d in report["divergences"]]
