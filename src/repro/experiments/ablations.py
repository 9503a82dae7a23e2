"""Ablation studies beyond the paper's figures.

Each study varies one design choice DESIGN.md calls out:

- ``tile_policy``   — PDAT vs LRW vs fixed square tiles (the paper says
  LRW and PDAT "almost always coincide"; verify);
- ``skew``          — Jacobi tiled with vs without the skew + time-
  innermost permutation (how much of the win is the time tiling);
- ``copy_widen``    — ElimRW with exact violating-write guards vs widened
  whole-domain copies (guard complexity vs copy volume);
- ``associativity`` — cache associativity sweep (1/2/4-way) at fixed
  capacity, seq vs tiled Cholesky;
- ``undo_sinking``  — sunk-guard vs cleaned tiled codes, per kernel.

Each study is a ``*_rows`` function (the measured numbers) plus a
``render_*`` function (the printed table), like :mod:`figure5`. Every
number is a :func:`~repro.experiments.runner.measure_recipe` point: the
variants outside the registry are the local recipes below, so they share
the runner's memo, disk cache and ``sweep.point`` telemetry.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

from repro.experiments.runner import measure_recipe, measure_variant
from repro.experiments.sweep import SweepConfig, default_config
from repro.kernels import jacobi
from repro.kernels.registry import get_recipe
from repro.machine.cache import CacheConfig
from repro.machine.configs import MachineConfig
from repro.pipeline.passes import TILE, FixDeps, Fuse, Source, Tile
from repro.pipeline.recipe import VariantRecipe
from repro.utils.tables import render_table

TILE_POLICIES = ("pdat", "lrw", "fixed:4", "fixed:16")

#: Jacobi's fixed program with only the space loops tiled: no skew, time
#: stays outermost.
JACOBI_SPACE_TILED = VariantRecipe(
    "jacobi",
    "space_tiled",
    (
        *get_recipe("jacobi", "fixed").passes,
        Tile({"i": TILE, "j": TILE}, order=("t", "it", "jt", "i", "j"),
             rename="jacobi_space_tiled", nest="t"),
    ),
    "fixed, i/j tiled without skewing",
)


def _jacobi_copies(widen: bool) -> VariantRecipe:
    """FixDeps on the fused Jacobi with widened or exact ElimRW copies."""
    label = "widened" if widen else "exact"
    return VariantRecipe(
        "jacobi",
        label,
        (
            Source("sequential"),
            Fuse(jacobi.FUSION),
            FixDeps(rename=f"jacobi_{label}", widen_copies=widen),
        ),
        f"fixed, untiled, {label} ElimRW copies",
    )


#: The copy-widening pair, widened (the default FixDeps) first.
JACOBI_COPIES = (_jacobi_copies(True), _jacobi_copies(False))


def _speedup(seq, tiled) -> float:
    return seq.report.total_cycles / tiled.report.total_cycles


def _table(headers, rows, title: str, **kwargs) -> str:
    """One row per dataclass row, its fields in column order."""
    return render_table(headers, [astuple(r) for r in rows], title=title, **kwargs)


@dataclass(frozen=True)
class TilePolicyRow:
    """Cholesky speedup over seq under each of :data:`TILE_POLICIES`."""

    n: int
    pdat: float
    lrw: float
    fixed4: float
    fixed16: float


def tile_policy_rows(config: SweepConfig | None = None) -> list[TilePolicyRow]:
    """Cholesky speedup under PDAT, LRW and two fixed tile sizes."""
    config = config or default_config()
    rows = []
    for n in config.sizes:
        seq = measure_variant("cholesky", "seq", n, config)
        speedups = [
            _speedup(seq, measure_variant(
                "cholesky", "tiled", n, replace(config, tile_policy=policy)))
            for policy in TILE_POLICIES
        ]
        rows.append(TilePolicyRow(n, *speedups))
    return rows


def render_tile_policy(rows: list[TilePolicyRow]) -> str:
    return _table(["N", *TILE_POLICIES], rows,
                  "Ablation — tile-size policy (cholesky speedup over seq)")


@dataclass(frozen=True)
class SkewRow:
    """Jacobi speedups over seq with and without the skew."""

    n: int
    skew_time_tiled: float
    space_only: float


def skew_rows(config: SweepConfig | None = None) -> list[SkewRow]:
    """Jacobi: full skewed+time-tiled vs space-only tiling of the fixed code."""
    config = config or default_config()
    rows = []
    for n in config.sizes:
        seq = measure_variant("jacobi", "seq", n, config)
        tiled = measure_variant("jacobi", "tiled", n, config)
        space_only = measure_recipe(JACOBI_SPACE_TILED, n, config)
        rows.append(SkewRow(n, _speedup(seq, tiled), _speedup(seq, space_only)))
    return rows


def render_skew(rows: list[SkewRow]) -> str:
    return _table(["N", "skew+time-tiled speedup", "space-only speedup"], rows,
                  "Ablation — Jacobi skewing / time tiling")


@dataclass(frozen=True)
class CopyWidenRow:
    """Fixed, untiled Jacobi with one copy shape at one size."""

    copies: str
    n: int
    instructions: int
    branches: int
    cycles: float


def copy_widen_rows(config: SweepConfig | None = None) -> list[CopyWidenRow]:
    """ElimRW copy widening: guard complexity vs behaviour."""
    config = config or default_config()
    rows = []
    for recipe in JACOBI_COPIES:
        for n in config.sizes[:2]:
            r = measure_recipe(recipe, n, config).report
            rows.append(CopyWidenRow(recipe.variant, n, r.graduated_instructions,
                                     r.branches_resolved, r.total_cycles))
    return rows


def render_copy_widen(rows: list[CopyWidenRow]) -> str:
    return _table(["copies", "N", "instructions", "branches", "cycles"], rows,
                  "Ablation — ElimRW copy widening (fixed, untiled Jacobi)",
                  float_fmt=",.0f")


@dataclass(frozen=True)
class AssociativityRow:
    """Cholesky misses and speedup under one associativity."""

    assoc: int
    n: int
    seq_l1: int
    tiled_l1: int
    seq_l2: int
    tiled_l2: int
    speedup: float


def associativity_rows(config: SweepConfig | None = None) -> list[AssociativityRow]:
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
            seq = measure_variant("cholesky", "seq", n, cfg)
            tiled = measure_variant("cholesky", "tiled", n, cfg)
            rows.append(AssociativityRow(
                assoc, n, seq.report.l1_misses, tiled.report.l1_misses,
                seq.report.l2_misses, tiled.report.l2_misses, _speedup(seq, tiled),
            ))
    return rows


def render_associativity(rows: list[AssociativityRow]) -> str:
    return _table(["assoc", "N", "seq L1", "tiled L1", "seq L2", "tiled L2", "speedup"],
                  rows, "Ablation — cache associativity (Cholesky)")


def _with_assoc(cache: CacheConfig, assoc: int) -> CacheConfig:
    return CacheConfig(cache.name, cache.size_bytes, cache.line_bytes, assoc)


@dataclass(frozen=True)
class UndoSinkingRow:
    """Sunk-guard vs cleaned tiled code of one kernel."""

    kernel: str
    sunk_speedup: float
    clean_speedup: float
    instr_ratio: float


def undo_sinking_rows(config: SweepConfig | None = None) -> list[UndoSinkingRow]:
    """How much of the speedup the guard cleanup contributes, per kernel.

    Compares the fully cleaned tiled codes (unswitch + fact propagation +
    index-set splitting — the paper's "code sinking undone") against the
    sunk-guard tiled codes at the largest sweep size.
    """
    config = config or default_config()
    n = config.sizes[-1]
    rows = []
    for kernel in ("lu", "qr", "cholesky", "jacobi"):
        seq = measure_variant(kernel, "seq", n, config)
        clean = measure_variant(kernel, "tiled", n, config)
        sunk = measure_variant(kernel, "tiled_sunk", n, config)
        instr_ratio = (sunk.report.graduated_instructions
                       / clean.report.graduated_instructions)
        rows.append(UndoSinkingRow(kernel, _speedup(seq, sunk), _speedup(seq, clean),
                                   instr_ratio))
    return rows


def render_undo_sinking(rows: list[UndoSinkingRow], n: int) -> str:
    return _table(["kernel", "sunk speedup", "clean speedup", "instr ratio sunk/clean"],
                  rows, f"Ablation — undoing code sinking (N = {n})")


def main(config: SweepConfig | None = None) -> str:
    """All ablations, in report order."""
    config = config or default_config(quick=True)
    return "\n\n".join((
        render_tile_policy(tile_policy_rows(config)),
        render_skew(skew_rows(config)),
        render_copy_widen(copy_widen_rows(config)),
        render_associativity(associativity_rows(config)),
        render_undo_sinking(undo_sinking_rows(config), config.sizes[-1]),
    ))
