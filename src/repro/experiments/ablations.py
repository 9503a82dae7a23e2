"""Ablation studies beyond the paper's figures.

Each study varies one design choice DESIGN.md calls out:

- ``tile``          — PDAT vs LRW vs fixed square tile edges (the paper
  says LRW and PDAT "almost always coincide"; verify);
- ``skew``          — Jacobi tiled with vs without the skew + time-
  innermost permutation (how much of the win is the time tiling);
- ``copy_widen``    — ElimRW with exact violating-write guards vs widened
  whole-domain copies (guard complexity vs copy volume);
- ``associativity`` — cache associativity sweep (1/2/4-way) at fixed
  capacity, seq vs tiled Cholesky;
- ``writeback``     — dirty L2 write-back lines of seq vs tiled Cholesky
  past the L2 fill (traffic beyond the paper's miss counters);
- ``undo_sinking``  — sunk-guard vs cleaned tiled codes, per kernel, and
  the Cholesky speedup with scalar instead of 4-wide retirement.

Each study is a ``*_rows`` function (the measured numbers) plus a
``render_*`` function (the printed table), like :mod:`figure5`;
:func:`generate` runs them all once, :func:`check` makes one
:class:`~repro.experiments.claims.Claim` per study from its rows alone,
and :func:`render` prints the tables and then the claims; the
``ablations`` and ``all`` targets exit 1 when one FAILS. Every number
but the write-back lines (a ``PerfReport`` holds none) comes from one
:func:`~repro.experiments.runner.measure_points` call per study (per
machine for associativity), so a study's programs build in one ``cc``
call. Its points name the variants outside the registry by the local
recipes below and the tile study's edges explicitly; they share the
runner's memo, disk cache and ``sweep.point`` telemetry.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

from repro.exec.compiled import CompiledProgram
from repro.experiments import claims
from repro.experiments.claims import Claim
from repro.experiments.runner import build_program, measure_points, point_inputs
from repro.experiments.sweep import SweepConfig, default_config
from repro.kernels import jacobi
from repro.kernels.registry import get_recipe
from repro.machine.writeback import WritebackResult, WritebackSink
from repro.pipeline.passes import TILE, FixDeps, Fuse, Source, Tile
from repro.pipeline.recipe import VariantRecipe
from repro.tilesize.lrw import lrw_tile
from repro.utils.tables import render_table

#: The tile study's columns: the sweep's PDAT edge, LRW's at each N and
#: two fixed edges (:func:`_tile_edges`).
TILE_COLUMNS = ("pdat", "lrw", "fixed:4", "fixed:16")

#: Heading of the ablations' claim table.
TITLE = "Claims — the ablations, checked on the rows above"

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


def _span(values, fmt: str = ".2f") -> str:
    lo, hi = (f"{min(values):{fmt}}", f"{max(values):{fmt}}") if values else ("none",) * 2
    return lo if lo == hi else f"{lo}-{hi}"


def _measure_groups(groups: list[list[tuple]], config: SweepConfig) -> list[list]:
    """The measurements of every group of points, grouped alike, from one
    :func:`~repro.experiments.runner.measure_points` call."""
    measured = iter(measure_points([p for group in groups for p in group], config))
    return [[next(measured) for _ in group] for group in groups]


@dataclass(frozen=True)
class TileRow:
    """Cholesky speedup over seq at each of :data:`TILE_COLUMNS`' edges."""

    n: int
    pdat: float
    lrw: float
    fixed4: float
    fixed16: float


def _tile_edges(config: SweepConfig, n: int) -> tuple[int, ...]:
    return config.tile, lrw_tile(config.machine.l1, n), 4, 16


def tile_rows(config: SweepConfig | None = None) -> list[TileRow]:
    """Cholesky speedup under PDAT, LRW and two fixed tile edges."""
    config = config or default_config()
    groups = _measure_groups([
        [("cholesky", "seq", n), *(("cholesky", "tiled", n, t) for t in _tile_edges(config, n))]
        for n in config.sizes
    ], config)
    return [TileRow(n, *(_speedup(seq, t) for t in tiled))
            for n, (seq, *tiled) in zip(config.sizes, groups)]


def render_tile(rows: list[TileRow]) -> str:
    return _table(["N", *TILE_COLUMNS], rows,
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
    groups = _measure_groups([
        [("jacobi", "seq", n), ("jacobi", "tiled", n), ("jacobi", JACOBI_SPACE_TILED, n)]
        for n in config.sizes
    ], config)
    return [SkewRow(n, _speedup(seq, tiled), _speedup(seq, space_only))
            for n, (seq, tiled, space_only) in zip(config.sizes, groups)]


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
    measured = measure_points(
        [("jacobi", recipe, n) for recipe in JACOBI_COPIES for n in config.sizes[:2]], config)
    return [CopyWidenRow(m.variant, m.n, m.report.graduated_instructions,
                         m.report.branches_resolved, m.report.total_cycles) for m in measured]


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
    """Cholesky misses under 1/2/4-way caches of the same capacity, tiled
    at the base machine's PDAT edge on every machine, so only the
    associativity varies."""
    config = config or default_config()
    rows = []
    for assoc in (1, 2, 4):
        machine = replace(config.machine, name=f"{config.machine.name}-a{assoc}",
                          l1=replace(config.machine.l1, assoc=assoc),
                          l2=replace(config.machine.l2, assoc=assoc))
        groups = _measure_groups([[("cholesky", "seq", n), ("cholesky", "tiled", n, config.tile)]
                                  for n in config.sizes[:2]], replace(config, machine=machine))
        for n, (seq, tiled) in zip(config.sizes[:2], groups):
            rows.append(AssociativityRow(
                assoc, n, seq.report.l1_misses, tiled.report.l1_misses,
                seq.report.l2_misses, tiled.report.l2_misses, _speedup(seq, tiled),
            ))
    return rows


def render_associativity(rows: list[AssociativityRow]) -> str:
    return _table(["assoc", "N", "seq L1", "tiled L1", "seq L2", "tiled L2", "speedup"],
                  rows, "Ablation — cache associativity (Cholesky)")


@dataclass(frozen=True)
class WritebackRow:
    """Seq vs tiled Cholesky on a write-back cache of the L2's geometry,
    fed every access (no register filter, no L1), at one size."""

    n: int
    seq_misses: int
    tiled_misses: int
    seq_lines: int
    tiled_lines: int


def _writeback(variant: str, n: int, config: SweepConfig) -> WritebackResult:
    """One run streamed into the sink."""
    tile = None if variant == "seq" else config.tile
    program, _, _ = build_program("cholesky", variant, tile=tile)
    params, inputs = point_inputs("cholesky", n, config)
    sink = WritebackSink(config.machine.l2)
    CompiledProgram(program, trace=True).run_streaming(params, inputs, memory_sink=sink)
    return sink.finish()


def writeback_rows(config: SweepConfig | None = None) -> list[WritebackRow]:
    """Dirty L2 write-back lines (evictions plus the final flush) of seq vs
    tiled Cholesky at every sweep size past the L2 fill."""
    config = config or default_config()
    rows = []
    for n in config.sizes:
        if n > config.machine.l2_fill_order():
            seq, tiled = (_writeback(v, n, config) for v in ("seq", "tiled"))
            rows.append(WritebackRow(n, seq.miss_count, tiled.miss_count,
                                     seq.total_writeback_lines, tiled.total_writeback_lines))
    return rows


def render_writeback(rows: list[WritebackRow]) -> str:
    return _table(["N", "seq misses", "tiled misses", "seq write-backs",
                   "tiled write-backs"], rows,
                  "Ablation — dirty L2 write-back lines (Cholesky, every access, no L1)")


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
    kernels = ("lu", "qr", "cholesky", "jacobi")
    groups = _measure_groups([[(k, v, n) for v in ("seq", "tiled", "tiled_sunk")]
                              for k in kernels], config)
    return [UndoSinkingRow(kernel, _speedup(seq, sunk), _speedup(seq, clean),
                           sunk.report.graduated_instructions
                           / clean.report.graduated_instructions)
            for kernel, (seq, clean, sunk) in zip(kernels, groups)]


def render_undo_sinking(rows: list[UndoSinkingRow], n: int) -> str:
    return _table(["kernel", "sunk speedup", "clean speedup", "instr ratio sunk/clean"],
                  rows, f"Ablation — undoing code sinking (N = {n})")


@dataclass(frozen=True)
class IpcRow:
    """Cholesky's speedup at one size, 4-wide (the model's) and scalar."""

    n: int
    four_wide: float
    scalar: float


def ipc_row(config: SweepConfig, n: int) -> IpcRow:
    """The IPC sensitivity, from the Cholesky points the undo-sinking study
    measures (memo hits): only the cost of an instruction changes."""
    seq, tiled = (m.report for m in measure_points(
        [("cholesky", "seq", n), ("cholesky", "tiled", n)], config))
    extra = 1.0 - config.machine.costs.instruction_cycles
    scalar = [r.total_cycles + r.graduated_instructions * extra for r in (seq, tiled)]
    return IpcRow(n, seq.total_cycles / tiled.total_cycles, scalar[0] / scalar[1])


def check(tile: list[TileRow], skew: list[SkewRow],
          copy_widen: list[CopyWidenRow], associativity: list[AssociativityRow],
          writeback: list[WritebackRow], undo_sinking: list[UndoSinkingRow],
          ipc: IpcRow, fill: int) -> list[Claim]:
    """One claim per study, each decided by that study's rows alone."""
    ratios = [r.pdat / r.lrw for r in tile]
    past = [r for r in skew if r.n > fill]
    widened = {r.n: r.branches for r in copy_widen if r.copies == "widened"}
    exact = {r.n: r.branches for r in copy_widen if r.copies == "exact"}
    l2_equal = all(r.tiled_l2 == r.seq_l2 for r in associativity)
    return [
        Claim('LRW and PDAT tiles "almost always coincide"', "tile policy",
              f"PDAT / LRW speedup {_span(ratios, '.3f')}",
              "0.8 < PDAT / LRW speedup < 1.25 at every N",
              bool(ratios) and all(0.8 < x < 1.25 for x in ratios)),
        Claim("The time tiling carries Jacobi's win past the L2 fill", "skew",
              ", ".join(f"N={r.n} {r.skew_time_tiled:.2f} vs {r.space_only:.2f}"
                        for r in past) or "no N past the fill",
              f"skew+time-tiled > space-only speedup at every N > {fill}",
              bool(past) and all(r.skew_time_tiled > r.space_only for r in past)),
        Claim("Widened ElimRW copies (Fig. 4d) resolve no branches; exact ones do",
              "copy widening", f"widened {_span(list(widened.values()), ',')}, "
              f"exact {_span(list(exact.values()), ',')}",
              "widened = 0 < exact branches at every N",
              bool(exact) and widened.keys() == exact.keys()
              and all(widened[n] == 0 < exact[n] for n in exact)),
        # The study's sizes stay below the L2 fill, where seq and tiled take
        # the same compulsory L2 misses: its rows decide the L1 effect.
        Claim("Tiling's L1 benefit persists at 1-, 2- and 4-way", "associativity",
              f"tiled / seq L1 misses "
              f"{_span([r.tiled_l1 / r.seq_l1 for r in associativity if r.seq_l1])}; "
              f"L2 {'equal' if l2_equal else 'differs'}",
              "tiled < seq L1 and tiled <= seq L2 misses at every assoc and N",
              bool(associativity) and all(r.tiled_l1 < r.seq_l1 and r.tiled_l2 <= r.seq_l2
                                          for r in associativity)),
        Claim("Tiling cuts Cholesky's dirty L2 write-backs past the L2 fill", "write-back",
              ", ".join(f"N={r.n} {r.seq_lines:,} -> {r.tiled_lines:,}" for r in writeback)
              or "no N past the fill",
              f"tiled < seq write-back lines and misses at every N > {fill}",
              bool(writeback) and all(r.n > fill and r.tiled_lines < r.seq_lines
                                      and r.tiled_misses < r.seq_misses for r in writeback)),
        Claim("Undoing code sinking never loses", "undo sinking",
              "clean - sunk speedup "
              f"{_span([r.clean_speedup - r.sunk_speedup for r in undo_sinking])}; "
              f"sunk / clean instructions {_span([r.instr_ratio for r in undo_sinking])}",
              "clean >= sunk speedup and sunk / clean instructions >= 1 per kernel",
              bool(undo_sinking) and all(r.clean_speedup >= r.sunk_speedup
                                         and r.instr_ratio >= 1.0 for r in undo_sinking)),
        Claim("4-wide retirement amplifies the speedup; scalar retirement still wins",
              f"IPC (Cholesky, N = {ipc.n})",
              f"4-wide {ipc.four_wide:.2f}x, scalar {ipc.scalar:.2f}x",
              "4-wide speedup > scalar speedup > 1", ipc.four_wide > ipc.scalar > 1.0),
    ]


def generate(config: SweepConfig | None = None) -> dict:
    """Every study's rows, keyed by :func:`check`'s parameter names."""
    config = config or default_config()
    return {
        "tile": tile_rows(config),
        "skew": skew_rows(config),
        "copy_widen": copy_widen_rows(config),
        "associativity": associativity_rows(config),
        "writeback": writeback_rows(config),
        "undo_sinking": undo_sinking_rows(config),
        "ipc": ipc_row(config, config.sizes[-1]),
    }


def render(studies: dict, checked: list[Claim]) -> str:
    """All ablations in report order, then their claim table."""
    return "\n\n".join((
        render_tile(studies["tile"]),
        render_skew(studies["skew"]),
        render_copy_widen(studies["copy_widen"]),
        render_associativity(studies["associativity"]),
        render_undo_sinking(studies["undo_sinking"], studies["ipc"].n),
        render_writeback(studies["writeback"]),
        claims.render(checked, TITLE, place="study"),
    ))
