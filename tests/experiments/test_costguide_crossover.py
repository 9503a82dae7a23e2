"""Unit tests for the crossover scan."""

import pytest

from repro.experiments.crossover import Crossover, find_crossover, render
from repro.experiments.sweep import SweepConfig
from repro.machine.configs import octane2, octane2_scaled


@pytest.fixture(scope="module")
def config() -> SweepConfig:
    return SweepConfig(
        machine=octane2_scaled(), sizes=(16, 24), jacobi_m=3
    )


class TestCrossover:
    def test_scan_structure(self, config):
        result = find_crossover("jacobi", config, lo=16, hi=32, step=8)
        assert isinstance(result, Crossover)
        assert [n for n, _ in result.probes] == [16, 24, 32]

    def test_jacobi_breaks_even_early(self, config):
        result = find_crossover("jacobi", config, lo=16, hi=24, step=8)
        assert result.break_even_n == 16

    def test_never_crossing_reports_none(self, config):
        # LU's sunk-guard code does not break even below the L2 transition.
        result = find_crossover("lu", config, lo=16, hi=24, step=8)
        assert result.break_even_n is None

    @pytest.mark.parametrize("machine,fills", [(octane2, 2.0), (octane2_scaled, 16.0)])
    def test_l2_fill_column_follows_machine(self, machine, fills):
        # N=1024 is twice the paper's 512 landmark and 16x the scaled 64.
        result = Crossover("lu", 1024, ((1024, 1.1),))
        row = next(
            line for line in render([result], machine()).splitlines()
            if line.lstrip().startswith("lu")
        )
        assert float(row.split()[2]) == fills
