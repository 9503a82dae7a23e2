"""Tests for the experiment harness (tiny sizes to stay fast)."""

from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.experiments import default_config, runner
from repro.experiments.runner import measure_points
from repro.experiments.sweep import QUICK_SIZES, SCALED_SIZES, SweepConfig
from repro.kernels.registry import get_recipe
from repro.machine.configs import octane2_scaled


@pytest.fixture(scope="module")
def tiny_config() -> SweepConfig:
    return SweepConfig(
        machine=octane2_scaled(), sizes=(12, 16), jacobi_m=3
    )


class TestSweepConfig:
    def test_default_config_scaled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIZES", raising=False)
        cfg = default_config()
        assert cfg.machine.name == "octane2-scaled"
        assert cfg.sizes == QUICK_SIZES
        assert default_config(quick=False).sizes == SCALED_SIZES

    def test_env_sizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIZES", "10,20")
        assert default_config().sizes == (10, 20)

    def test_sweep_tile_is_pdat(self, tiny_config):
        assert tiny_config.tile == 11


class TestRunner:
    def test_measure_points_all_kernels(self, tiny_config):
        for m in measure_points([(k, "seq", 12) for k in ("cholesky", "jacobi")], tiny_config):
            assert m.report.accesses > 0
            assert m.report.total_cycles > 0

    def test_memoisation_returns_same_object(self, tiny_config):
        (a,) = measure_points([("cholesky", "seq", 12)], tiny_config)
        (b,) = measure_points([("cholesky", "seq", 12)], tiny_config)
        assert a is b

    def test_tiled_pair_speedup_positive(self, tiny_config):
        seq, tiled = measure_points([("jacobi", "seq", 16), ("jacobi", "tiled", 16)], tiny_config)
        assert seq.report.total_cycles / tiled.report.total_cycles > 0
        assert seq.tile is None and tiled.tile == 11

    def test_unknown_variant(self, tiny_config):
        with pytest.raises(ReproError):
            measure_points([("jacobi", "bogus", 12)], tiny_config)

    def test_explicit_tiles_reach_the_build(self, tiny_config):
        four, sixteen = measure_points(
            [("cholesky", "tiled", 12, 4), ("cholesky", "tiled", 12, 16)], tiny_config
        )
        assert (four.tile, sixteen.tile) == (4, 16)
        assert four.report != sixteen.report
        programs = [runner._point("cholesky", "tiled", 12, t, tiny_config).program
                    for t in (4, 16)]
        assert programs[0] != programs[1]
        assert programs[0] == runner.build_program("cholesky", "tiled", tile=4)[0]

    def test_tile_on_an_untiled_recipe_names_the_point(self, tiny_config):
        with pytest.raises(ReproError, match=r"kernel=cholesky, variant=seq, N=12, tile=4"):
            measure_points([("cholesky", "seq", 12, 4)], tiny_config)

    def test_recipe_of_another_kernel_names_the_point(self, tiny_config):
        recipe = get_recipe("lu", "seq")
        with pytest.raises(ReproError, match=r"kernel=cholesky, variant=seq.*lu/seq"):
            measure_points([("cholesky", recipe, 12)], tiny_config)


class TestTable1:
    def test_matches_paper(self):
        from repro.experiments import table1

        assert table1.generate() == table1.PAPER_TABLE1

    def test_predicates(self):
        from repro.experiments.table1 import (
            has_cross_nest_scalar_reduction,
            has_data_dependent_control,
            is_stencil,
            is_triangular_factorisation,
        )
        from repro.kernels import cholesky, jacobi, lu, qr

        assert is_stencil(jacobi.sequential())
        assert not is_stencil(cholesky.sequential())
        assert is_triangular_factorisation(cholesky.sequential())
        assert not is_triangular_factorisation(jacobi.sequential())
        assert has_data_dependent_control(lu.sequential())
        assert not has_data_dependent_control(cholesky.sequential())
        assert has_cross_nest_scalar_reduction(qr.sequential())
        assert not has_cross_nest_scalar_reduction(jacobi.sequential())

    def test_render_reports_agreement(self):
        from repro.experiments import table1

        assert "matches the paper" in table1.render()


class TestFigures:
    def test_figure5_rows(self, tiny_config):
        from repro.experiments import figure5

        rows = figure5.generate(replace(tiny_config, sizes=(12,)))
        assert len(rows) == 4  # four kernels
        text = figure5.render(rows)
        assert "speedup ranges" in text

    def test_figure678_rows(self, tiny_config):
        from repro.experiments import figure678

        rows = figure678.generate(replace(tiny_config, sizes=(12,)))
        assert len(rows) == 1
        assert rows[0].tiled_instructions > rows[0].seq_instructions
        assert "Figure 6" in figure678.render_figure6(rows)
        assert "Figure 7" in figure678.render_figure7(rows)
        assert "Figure 8" in figure678.render_figure8(rows)

    def test_jacobi_stats_direction(self, tiny_config):
        from repro.experiments import jacobi_stats

        rows = jacobi_stats.generate(replace(tiny_config, sizes=(16,)))
        # fusion reduces both memory ops and instructions (paper direction)
        assert rows[0].load_reduction > 0
        assert rows[0].instr_change > 0
