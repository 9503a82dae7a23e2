"""Regenerate ``golden.json``, the benchmark's stored correct answers.

    python3 perfbench/golden.py

Stores, for every sweep workload, each grid point's ``PerfReport`` at the
default seed (``SweepConfig.seed``), the points whose report is the same
at two further seeds (checked against golden at any seed), and the
content hash of every program in ``registry_build_matrix()``. Regenerate
only when a change is meant to alter these answers, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Same pins as a benchmark pass: no ambient knob may change the answers.
for key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[key]
os.environ.update(REPRO_NO_CACHE="1", REPRO_JOBS="1")
sys.path.insert(0, str(ROOT / "src"))

from child import GOLDEN, sweep_config, sweep_grid, sweep_label  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.experiments.sweep import SweepConfig  # noqa: E402
from repro.kernels.recipes import registry_program_hashes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Extra seeds a report must be identical at to be checked at every seed.
INVARIANCE_SEEDS = (1, 2)


def grid_reports(workload: str, seed: int) -> dict[str, dict]:
    runner.clear_caches()
    grid = sweep_grid(workload)
    measured = runner.measure_points(grid, sweep_config(seed), jobs=1)
    return {sweep_label(*p): m.report.as_dict() for p, m in zip(grid, measured)}


def main() -> None:
    seed = SweepConfig.seed
    reports: dict[str, dict] = {}
    invariant: list[str] = []
    for workload, variants in WORKLOADS.items():
        if variants is None:
            continue
        reports[workload] = gold = grid_reports(workload, seed)
        others = [grid_reports(workload, s) for s in INVARIANCE_SEEDS]
        invariant += [p for p in gold if all(o[p] == gold[p] for o in others)]
    runner.clear_caches()
    golden = {
        "seed": seed,
        "reports": reports,
        "seed_invariant": invariant,
        "program_hashes": registry_program_hashes(),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {sum(map(len, reports.values()))} reports "
          f"({len(invariant)} seed-invariant), "
          f"{len(golden['program_hashes'])} program hashes")


if __name__ == "__main__":
    main()
