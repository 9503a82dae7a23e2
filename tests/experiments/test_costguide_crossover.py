"""Unit tests for the cost-model guide and the crossover scan."""

import pytest

from repro.experiments.costguide import TileChoice, choose_tile, choose_variant
from repro.experiments.crossover import Crossover, find_crossover, render
from repro.experiments.sweep import SweepConfig
from repro.machine.configs import octane2, octane2_scaled


@pytest.fixture(scope="module")
def config() -> SweepConfig:
    return SweepConfig(
        machine=octane2_scaled(), sizes=(16, 24), jacobi_m=3, tile_policy="pdat"
    )


class TestChooseTile:
    def test_probe_in_target_regime(self, config):
        choice = choose_tile("cholesky", 200, config, candidates=(4, 8))
        assert choice.probe_n == 89  # 1.4 * 64, past the L2 transition
        assert choice.chosen_tile in choice.probe_cycles

    def test_probe_never_exceeds_target(self, config):
        choice = choose_tile("cholesky", 20, config, candidates=(4,))
        assert choice.probe_n <= 20

    def test_pdat_always_a_candidate(self, config):
        choice = choose_tile("cholesky", 32, config, candidates=(4,))
        assert 11 in choice.probe_cycles

    def test_ranking_sorted_by_cycles(self, config):
        choice = choose_tile("cholesky", 32, config, candidates=(4, 8))
        ranking = choice.ranking()
        cycles = [choice.probe_cycles[t] for t in ranking]
        assert cycles == sorted(cycles)
        assert ranking[0] == choice.chosen_tile
        assert isinstance(choice, TileChoice)


class TestChooseVariant:
    def test_small_size_prefers_winner(self, config):
        from repro.experiments.runner import measure_variant

        decision = choose_variant("cholesky", 16, config)
        seq = measure_variant("cholesky", "seq", 16, config).report.total_cycles
        tiled = measure_variant("cholesky", "tiled", 16, config).report.total_cycles
        assert decision == ("tiled" if tiled < seq else "seq")


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
