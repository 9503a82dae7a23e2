"""Ablation studies beyond the paper's figures.

Each study varies one design choice DESIGN.md calls out:

- ``tile_policy``   — PDAT vs LRW vs fixed square tiles (the paper says
  LRW and PDAT "almost always coincide"; verify);
- ``skew``          — Jacobi tiled with vs without the skew + time-
  innermost permutation (how much of the win is the time tiling);
- ``copy_widen``    — ElimRW with exact violating-write guards vs widened
  whole-domain copies (guard complexity vs copy volume);
- ``associativity`` — cache associativity sweep (1/2/4-way) at fixed
  capacity, seq vs tiled Cholesky.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.exec.compiled import CompiledProgram
from repro.experiments.runner import measure_variant
from repro.experiments.sweep import SweepConfig, default_config
from repro.kernels import jacobi
from repro.kernels.registry import get_kernel
from repro.machine.cache import CacheConfig
from repro.machine.configs import MachineConfig
from repro.machine.perfcounters import measure_streaming
from repro.utils.tables import render_table


def tile_policy_study(config: SweepConfig | None = None, kernel: str = "cholesky") -> str:
    """Speedup under PDAT, LRW and two fixed tile sizes."""
    config = config or default_config()
    policies = ("pdat", "lrw", "fixed:4", "fixed:16")
    rows = []
    for n in config.sizes:
        row: list = [n]
        seq = measure_variant(kernel, "seq", n, config).report
        for policy in policies:
            cfg = replace(config, tile_policy=policy)
            tiled = measure_variant(kernel, "tiled", n, cfg, tile=cfg.tile_for(n)).report
            row.append(seq.total_cycles / tiled.total_cycles)
        rows.append(row)
    return render_table(
        ["N", *policies],
        rows,
        title=f"Ablation — tile-size policy ({kernel} speedup over seq)",
    )


def skew_study(config: SweepConfig | None = None) -> str:
    """Jacobi: full skewed+time-tiled vs space-only tiling of the fixed code."""
    config = config or default_config()
    rows = []
    for n in config.sizes:
        seq = measure_variant("jacobi", "seq", n, config).report
        tiled = measure_variant("jacobi", "tiled", n, config).report
        # Space-only tiling: tile (i, j) of the fixed program, no skewing.
        from repro.trans.tiling import tile_program

        tile = config.tile_for(n)
        fixed = jacobi.fixed()
        space_only = tile_program(
            fixed,
            {"i": tile, "j": tile},
            order=["t", "it", "jt", "i", "j"],
            nest_index=_time_nest_index(fixed),
            name="jacobi_space_tiled",
        )
        report = _measure_program(space_only, "jacobi", n, config)
        rows.append(
            [
                n,
                seq.total_cycles / tiled.total_cycles,
                seq.total_cycles / report.total_cycles,
            ]
        )
    return render_table(
        ["N", "skew+time-tiled speedup", "space-only speedup"],
        rows,
        title="Ablation — Jacobi skewing / time tiling",
    )


def copy_widen_study(config: SweepConfig | None = None) -> str:
    """ElimRW copy widening: guard complexity vs behaviour."""
    config = config or default_config()
    from repro.trans.elim_rw import eliminate_rw
    from repro.trans.elim_ww_wr import eliminate_ww_wr

    rows = []
    nest = jacobi.fused_nest()
    fixed_nest = eliminate_ww_wr(nest).nest
    for widen in (True, False):
        rw = eliminate_rw(fixed_nest, widen_copies=widen)
        program = rw.nest.to_program(f"jacobi_widen_{widen}")
        for n in config.sizes[:2]:
            report = _measure_program(program, "jacobi", n, config)
            rows.append(
                [
                    "widened" if widen else "exact",
                    n,
                    report.graduated_instructions,
                    report.branches_resolved,
                    report.total_cycles,
                ]
            )
    return render_table(
        ["copies", "N", "instructions", "branches", "cycles"],
        rows,
        title="Ablation — ElimRW copy widening (fixed, untiled Jacobi)",
        float_fmt=",.0f",
    )


def associativity_study(config: SweepConfig | None = None) -> str:
    """Cholesky misses under 1/2/4-way caches of the same capacity."""
    config = config or default_config()
    rows = []
    for assoc in (1, 2, 4):
        machine = MachineConfig(
            name=f"{config.machine.name}-a{assoc}",
            l1=_with_assoc(config.machine.l1, assoc),
            l2=_with_assoc(config.machine.l2, assoc),
            costs=config.machine.costs,
        )
        cfg = replace(config, machine=machine)
        for n in config.sizes[:2]:
            seq = measure_variant("cholesky", "seq", n, cfg).report
            tiled = measure_variant("cholesky", "tiled", n, cfg).report
            rows.append(
                [assoc, n, seq.l1_misses, tiled.l1_misses, seq.l2_misses,
                 tiled.l2_misses, seq.total_cycles / tiled.total_cycles]
            )
    return render_table(
        ["assoc", "N", "seq L1", "tiled L1", "seq L2", "tiled L2", "speedup"],
        rows,
        title="Ablation — cache associativity (Cholesky)",
    )


def _with_assoc(cache: CacheConfig, assoc: int) -> CacheConfig:
    return CacheConfig(cache.name, cache.size_bytes, cache.line_bytes, assoc)


def undo_sinking_study(config: SweepConfig | None = None) -> str:
    """How much of the speedup the guard cleanup contributes, per kernel.

    Compares the fully cleaned tiled codes (unswitch + fact propagation +
    index-set splitting — the paper's "code sinking undone") against the
    sunk-guard tiled codes at the largest sweep size.
    """
    config = config or default_config()
    n = config.sizes[-1]
    rows = []
    for kernel in ("lu", "qr", "cholesky", "jacobi"):
        seq = measure_variant(kernel, "seq", n, config).report
        clean = measure_variant(kernel, "tiled", n, config).report
        sunk = measure_variant(kernel, "tiled_sunk", n, config).report
        rows.append(
            [
                kernel,
                seq.total_cycles / sunk.total_cycles,
                seq.total_cycles / clean.total_cycles,
                sunk.graduated_instructions / clean.graduated_instructions,
            ]
        )
    return render_table(
        ["kernel", "sunk speedup", "clean speedup", "instr ratio sunk/clean"],
        rows,
        title=f"Ablation — undoing code sinking (N = {n})",
    )


def _time_nest_index(program) -> int:
    from repro.ir.stmt import Loop

    for pos, stmt in enumerate(program.body):
        if isinstance(stmt, Loop) and stmt.var == "t":
            return pos
    raise ValueError("no time loop")


def _measure_program(program, kernel: str, n: int, config: SweepConfig):
    mod = get_kernel(kernel)
    params = {"N": n}
    if "M" in mod.PARAMS:
        params["M"] = config.jacobi_m
    rng = np.random.default_rng(config.seed)
    inputs = mod.make_inputs(params, rng)
    cp = CompiledProgram(program, trace=True)
    _, report = measure_streaming(cp, params, config.machine, inputs)
    return report


def main(config: SweepConfig | None = None) -> str:
    """All ablations."""
    config = config or default_config(quick=True)
    return "\n\n".join(
        [
            tile_policy_study(config),
            skew_study(config),
            copy_widen_study(config),
            associativity_study(config),
            undo_sinking_study(config),
        ]
    )
