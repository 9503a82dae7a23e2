"""Ablation benchmarks: the design choices DESIGN.md calls out.

Beyond the paper's figures — each bench times one study of
:mod:`repro.experiments.ablations` and asserts on the rows it returns,
the same numbers ``python -m repro.experiments ablations`` prints, with
shape assertions where the outcome is predictable.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from repro.experiments import ablations
from repro.experiments.runner import measure_variant


def _study(benchmark, rows_fn, config):
    rows = benchmark.pedantic(rows_fn, args=(config,), rounds=1, iterations=1)
    benchmark.extra_info["rows"] = [asdict(r) for r in rows]
    return rows


def test_tile_policy_lrw_vs_pdat(benchmark, sweep_config):
    """Paper: LRW and PDAT 'almost always coincide'. Compare speedups."""
    rows = _study(benchmark, ablations.tile_policy_rows, sweep_config)
    # coincide within 20% on the scaled machine
    assert 0.8 < rows[-1].pdat / rows[-1].lrw < 1.25


def test_jacobi_skew_vs_space_only(benchmark, sweep_config):
    """How much of Jacobi's win is the skew + time-innermost tiling."""
    rows = _study(benchmark, ablations.skew_rows, sweep_config)
    # Time tiling must contribute: the full transform beats space-only.
    assert rows[-1].skew_time_tiled > rows[-1].space_only


def test_copy_widening_reduces_overhead(benchmark, sweep_config):
    """ElimRW's widened copies (paper Fig. 4d shape) vs exact guards."""
    rows = _study(benchmark, ablations.copy_widen_rows, sweep_config)
    branches = {(r.copies, r.n): r.branches for r in rows}
    for n in sweep_config.sizes[:2]:
        assert branches["widened", n] <= branches["exact", n]


def test_cache_associativity(benchmark, sweep_config):
    """Miss behaviour under 1/2/4-way caches of identical capacity.

    Measured at the largest sweep size: the study's own sizes leave L2
    unfilled, where seq and tiled take the same compulsory misses.
    """
    config = replace(sweep_config, sizes=sweep_config.sizes[-1:])
    rows = _study(benchmark, ablations.associativity_rows, config)
    for r in rows:
        assert r.tiled_l2 <= r.seq_l2


def test_undo_sinking_pays(benchmark, sweep_config):
    """Undoing code sinking never loses: fewer instructions, no less speedup."""
    rows = _study(benchmark, ablations.undo_sinking_rows, sweep_config)
    for r in rows:
        assert r.instr_ratio >= 1.0
        assert r.clean_speedup >= r.sunk_speedup


def test_instruction_cost_sensitivity(benchmark, sweep_config):
    """Fig. 5 sensitivity to the IPC assumption (4-issue vs scalar)."""
    from repro.machine.costmodel import CostModel

    def study():
        n = sweep_config.sizes[-1]
        seq = measure_variant("cholesky", "seq", n, sweep_config).report
        tiled = measure_variant("cholesky", "tiled", n, sweep_config).report
        out = {}
        for ic in (0.25, 1.0):
            costs = CostModel(instruction_cycles=ic)

            def cyc(r):
                return (
                    r.graduated_instructions * ic
                    + costs.memory_stall_cycles(r.l1_misses, r.l2_misses)
                    + r.branches_mispredicted * costs.branch_mispredict_cycles
                )

            out[f"ic={ic}"] = cyc(seq) / cyc(tiled)
        return out

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info["speedups"] = result
    # Superscalar issue amplifies the benefit (misses dominate).
    assert result["ic=0.25"] > result["ic=1.0"]
