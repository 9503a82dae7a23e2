"""Regenerate ``corpus.json`` from the oracle paths only.

    PYTHONPATH=src python tests/golden/regen.py

Programs are built with the analysis memo bypassed
(``tests/poly/memo_oracle.py``) and run materialized. Each report comes
from the whole materialized trace (byte addresses and write flags, see
:mod:`repro.exec.events`) through the per-access oracles of
``tests/machine/reference.py`` for the register filter, L1, L2 on the L1
misses, and the branch predictor, then the production cost aggregation.
Regenerate only when a change is meant to alter these answers, and say
so.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# No ambient knob may change the answers.
for key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[key]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.errors import ExecutionError  # noqa: E402
from repro.exec.compiled import CompiledProgram  # noqa: E402
from repro.kernels.recipes import registry_program_hashes  # noqa: E402
from repro.machine.configs import octane2_scaled  # noqa: E402
from repro.machine.hierarchy import HierarchyResult  # noqa: E402
from repro.machine.perfcounters import PerfReport, _assemble_report  # noqa: E402
from tests.golden import corpus  # noqa: E402
from tests.machine.reference import (  # noqa: E402
    TwoBitPredictor,
    decode_branch_events,
    register_filter_reference,
    split_memory_events,
    simulate_cache_reference,
)
from tests.poly.memo_oracle import bypass_memo  # noqa: E402


def oracle_report(program, run) -> PerfReport:
    """The PerfReport of one materialized run, from the oracles."""
    machine = octane2_scaled()
    addresses, rw = split_memory_events(run.trace.memory)
    [keep], load_hits = register_filter_reference([(addresses, rw)], machine.registers)
    to_memory = addresses[keep]
    l1_miss = simulate_cache_reference(machine.l1, to_memory)
    l2_miss = simulate_cache_reference(machine.l2, to_memory[l1_miss])
    hier = HierarchyResult(len(to_memory), int(l1_miss.sum()), int(l2_miss.sum()))
    branch = TwoBitPredictor().simulate(*decode_branch_events(run.trace.branches))
    return _assemble_report(program, machine, run.counters, load_hits, hier, branch)


def oracle_entry(kernel: str, variant: str) -> dict:
    program, params, inputs = corpus.instance(kernel, variant)
    cp = CompiledProgram(program, trace=True)
    try:
        run = cp.run(params, inputs)
    except ExecutionError as exc:
        return {"error": type(exc).__name__}
    entry = corpus.run_observables(program, run)
    entry["report"] = oracle_report(program, run).as_dict()
    return entry


def main() -> None:
    bypass_memo()
    data = {
        "programs": registry_program_hashes(),
        "recipes": {
            corpus.label(k, v): oracle_entry(k, v) for k, v in corpus.RECIPES
        },
    }
    corpus.CORPUS.write_text(corpus.dumps(data))
    print(f"wrote {corpus.CORPUS.relative_to(ROOT)}: {len(data['programs'])} "
          f"program fingerprints, {len(data['recipes'])} recipe entries")


if __name__ == "__main__":
    main()
