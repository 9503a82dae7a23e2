"""Ablation benchmarks: the design choices DESIGN.md calls out.

Beyond the paper's figures — each bench varies one knob and records the
resulting series, with shape assertions where the outcome is predictable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.runner import measure_variant
from repro.kernels import jacobi
from repro.machine.cache import CacheConfig
from repro.machine.configs import MachineConfig


def test_tile_policy_lrw_vs_pdat(benchmark, sweep_config):
    """Paper: LRW and PDAT 'almost always coincide'. Compare speedups."""

    def study():
        out = {}
        n = sweep_config.sizes[-1]
        seq = measure_variant("cholesky", "seq", n, sweep_config).report
        for policy in ("pdat", "lrw"):
            cfg = replace(sweep_config, tile_policy=policy)
            tiled = measure_variant(
                "cholesky", "tiled", n, cfg, tile=cfg.tile_for(n)
            ).report
            out[policy] = seq.total_cycles / tiled.total_cycles
        return out

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info["speedups"] = result
    # coincide within 20% on the scaled machine
    ratio = result["pdat"] / result["lrw"]
    assert 0.8 < ratio < 1.25


def test_jacobi_skew_vs_space_only(benchmark, sweep_config):
    """How much of Jacobi's win is the skew + time-innermost tiling."""
    from repro.exec.compiled import CompiledProgram
    from repro.kernels.registry import get_kernel
    from repro.machine.perfcounters import measure_streaming
    from repro.trans.tiling import tile_program

    import numpy as np

    def study():
        n = sweep_config.sizes[-1]
        tile = sweep_config.tile_for(n)
        seq = measure_variant("jacobi", "seq", n, sweep_config).report
        full = measure_variant("jacobi", "tiled", n, sweep_config).report
        fixed = jacobi.fixed()
        from repro.ir.stmt import Loop

        nest_index = next(
            pos for pos, s in enumerate(fixed.body)
            if isinstance(s, Loop) and s.var == "t"
        )
        space_only = tile_program(
            fixed,
            {"i": tile, "j": tile},
            order=["t", "it", "jt", "i", "j"],
            nest_index=nest_index,
            name="jacobi_space_tiled",
        )
        params = {"N": n, "M": sweep_config.jacobi_m}
        rng = np.random.default_rng(sweep_config.seed)
        inputs = get_kernel("jacobi").make_inputs(params, rng)
        cp = CompiledProgram(space_only, trace=True)
        _, so = measure_streaming(cp, params, sweep_config.machine, inputs)
        return {
            "skew_time_tiled": seq.total_cycles / full.total_cycles,
            "space_only": seq.total_cycles / so.total_cycles,
        }

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info["speedups"] = result
    # Time tiling must contribute: the full transform beats space-only.
    assert result["skew_time_tiled"] > result["space_only"]


def test_copy_widening_reduces_overhead(benchmark, sweep_config):
    """ElimRW's widened copies (paper Fig. 4d shape) vs exact guards."""
    from repro.exec.compiled import CompiledProgram
    from repro.kernels.registry import get_kernel
    from repro.machine.perfcounters import measure_streaming
    from repro.trans.elim_rw import eliminate_rw
    from repro.trans.elim_ww_wr import eliminate_ww_wr

    import numpy as np

    def study():
        prepared = eliminate_ww_wr(jacobi.fused_nest()).nest
        n = sweep_config.sizes[0]
        params = {"N": n, "M": sweep_config.jacobi_m}
        out = {}
        for widen in (True, False):
            rw = eliminate_rw(prepared, widen_copies=widen, simplify=False)
            program = rw.nest.to_program(f"jacobi_w{widen}")
            rng = np.random.default_rng(sweep_config.seed)
            inputs = get_kernel("jacobi").make_inputs(params, rng)
            cp = CompiledProgram(program, trace=True)
            _, rep = measure_streaming(cp, params, sweep_config.machine, inputs)
            out["widened" if widen else "exact"] = rep.branches_resolved
        return out

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info["branches"] = result
    assert result["widened"] <= result["exact"]


@pytest.mark.parametrize("assoc", [1, 2, 4])
def test_cache_associativity(benchmark, sweep_config, assoc):
    """Miss behaviour under 1/2/4-way caches of identical capacity."""

    def study():
        machine = sweep_config.machine
        varied = MachineConfig(
            name=f"{machine.name}-a{assoc}",
            l1=CacheConfig("L1", machine.l1.size_bytes, machine.l1.line_bytes, assoc),
            l2=CacheConfig("L2", machine.l2.size_bytes, machine.l2.line_bytes, assoc),
            costs=machine.costs,
            registers=machine.registers,
        )
        cfg = replace(sweep_config, machine=varied)
        n = sweep_config.sizes[-1]
        seq = measure_variant("cholesky", "seq", n, cfg).report
        tiled = measure_variant("cholesky", "tiled", n, cfg).report
        return {
            "seq_l1": seq.l1_misses,
            "tiled_l1": tiled.l1_misses,
            "seq_l2": seq.l2_misses,
            "tiled_l2": tiled.l2_misses,
            "speedup": seq.total_cycles / tiled.total_cycles,
        }

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["tiled_l2"] <= result["seq_l2"]


def test_instruction_cost_sensitivity(benchmark, sweep_config):
    """Fig. 5 sensitivity to the IPC assumption (4-issue vs scalar)."""
    from dataclasses import replace as dc_replace

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
