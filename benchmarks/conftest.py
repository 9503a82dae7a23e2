"""Benchmark-suite configuration.

The benchmarks time the machine model, the compile path, the ablation
studies and the traffic instruments, and attach the rows they measure to
the benchmark record via ``extra_info``, so ``--benchmark-json`` output
contains the numbers alongside the timings. The paper's own claims are
checked by ``python -m repro.experiments claims`` instead.

Measurements are disk-cached across processes (``.repro_cache``) because a
full sweep point costs seconds; delete the directory (or set
``REPRO_NO_CACHE=1``) to force clean re-measurement.
"""

from __future__ import annotations

import pytest

from repro.experiments.sweep import SweepConfig, default_config


@pytest.fixture(scope="session")
def sweep_config() -> SweepConfig:
    """The quick sweep (``REPRO_SIZES`` overrides its sizes)."""
    return default_config()
