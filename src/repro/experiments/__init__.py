"""Experiment harness regenerating every table and figure of the paper.

- :mod:`repro.experiments.runner` — measure a grid of points (a
  registered variant or a recipe, at a size and optionally a tile edge)
  under the machine model, one perfex-style report each;
- :mod:`repro.experiments.sweep` — problem-size sweeps and scaling rules
  (paper sizes vs. scaled-machine sizes);
- :mod:`repro.experiments.figure5` … ``figure678`` — the paper's figures;
- :mod:`repro.experiments.table1` — the capability-comparison table;
- :mod:`repro.experiments.jacobi_stats` — the in-text Jacobi load /
  instruction reductions;
- :mod:`repro.experiments.paperpoint` — one measurement on the *true*
  Octane2 geometry at a paper problem size (the scaling anchor);
- :mod:`repro.experiments.crossover` — locating the break-even sizes;
- :mod:`repro.experiments.claims` — the paper's Sec. 4 claims as bounds
  over the rows above, each printed as ``holds`` or ``FAILS``;
- :mod:`repro.experiments.ablations` — design-choice studies beyond the
  paper (tile edge, skewing, copy widening, associativity, write-back
  traffic, guard cleanup), each with a checked claim;
- :mod:`repro.experiments.pipeline_report` — per-pass build evidence
  (wall time, IR sizes) for every registered variant recipe;
- :mod:`repro.experiments.report` — the one table from CLI target to
  its sections (printed text, CSV rows, checked claims), built from rows
  generated once per run, and the ``--output`` writer of those sections.

Run from the command line::

    python -m repro.experiments figure5
    python -m repro.experiments claims --full
    python -m repro.experiments all --full --output results/
"""

from repro.experiments.runner import (
    VariantMeasurement,
    build_program,
    clear_caches,
    measure_points,
)
from repro.experiments.sweep import SweepConfig, default_config, resolve_jobs

__all__ = [
    "VariantMeasurement",
    "build_program",
    "clear_caches",
    "measure_points",
    "SweepConfig",
    "default_config",
    "resolve_jobs",
]
