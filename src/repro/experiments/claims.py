"""The paper's Sec. 4 claims, checked on the measured rows.

The reproduction's targets are shapes, not absolute numbers: who wins, by
roughly how much, and where. A :class:`Claim` is one statement of the
paper's evaluation (or of EXPERIMENTS.md's reading of a figure) with the
bound that decides it. Each check is a pure function of the rows the
generators return: ``figure5.generate``, ``figure678.generate``,
``table1.generate``, ``jacobi_stats.generate``, ``paperpoint.measure`` and
``crossover.generate``.

``python -m repro.experiments claims`` prints the sweep's table, ``all``
prints it too (``--output`` writes it to ``claims.md`` beside the figures),
and ``paperpoint`` and ``crossover`` print their own rows; each of these
targets exits 1 when a row FAILS. The ablation studies check their own
claims with the same :class:`Claim` (:mod:`repro.experiments.ablations`).
"Past the L2 fill" means N above the machine's L2-fill order (the order
of a square double array that fills L2: 64 on the scaled machine, the
paper's 512 on the real one).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import figure5, figure678, jacobi_stats, table1
from repro.experiments.crossover import Crossover
from repro.experiments.figure5 import Figure5Row
from repro.experiments.figure678 import CholRow
from repro.experiments.jacobi_stats import JacobiStatsRow
from repro.experiments.paperpoint import PaperPoint
from repro.experiments.sweep import SweepConfig, default_config
from repro.machine.configs import MachineConfig

#: Heading of the sweep's claim table (the ``claims`` target, ``claims.md``).
TITLE = "Claims — the paper's Sec. 4 shapes, checked on the sweep"


@dataclass(frozen=True)
class Claim:
    """One statement, where the paper (or the ablation study) makes it, what
    was measured, the bound checked and whether the bound holds."""

    claim: str
    place: str
    measured: str
    bound: str
    holds: bool

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "FAILS"


def _span(values: list[float], fmt: str = ".2f", unit: str = "x") -> str:
    return f"{min(values):{fmt}}{unit}-{max(values):{fmt}}{unit}" if values else "none"


def figure5_claims(rows: list[Figure5Row], fill: int) -> list[Claim]:
    """Tiling wins everywhere, more at large N and past the L2 fill; Jacobi
    leads."""
    sizes = sorted({r.n for r in rows})
    s = {(r.kernel, r.n): r.speedup for r in rows}
    kernels = list(dict.fromkeys(r.kernel for r in rows))
    series = {k: [s[k, n] for n in sizes if (k, n) in s] for k in kernels}
    facts = [k for k in kernels if k != "jacobi"]
    below = {k: [s[k, n] for n in sizes if n < fill and (k, n) in s] for k in facts}
    past = {k: [s[k, n] for n in sizes if n > fill and (k, n) in s] for k in facts}
    leads = [(s["jacobi", n] - max(s[k, n] for k in facts), n) for n in sizes
             if all((k, n) in s for k in (*facts, "jacobi"))]
    return [
        Claim("Tiling speeds up every kernel at every N", "Fig. 5",
              f"{len(rows)} points; lowest "
              + ", ".join(f"{k} {min(v):.2f}" for k, v in series.items()),
              f"all {len(kernels)} kernels x {len(sizes)} N measured, every speedup > 1",
              all(len(v) == len(sizes) and min(v) > 1.0 for v in series.values())),
        Claim("Each kernel gains more at the largest N than at the smallest", "Fig. 5",
              ", ".join(f"{k} {v[0]:.2f} -> {v[-1]:.2f}" for k, v in series.items()),
              f"speedup at N={sizes[-1]} > speedup at N={sizes[0]}",
              all(len(v) > 1 and v[-1] > v[0] for v in series.values())),
        Claim("The factorisations gain past the L2 fill", "Fig. 5",
              "; ".join(f"{k} {_span(below[k])} below, {_span(past[k])} past"
                        for k in facts),
              f"LU, QR, Cholesky: every speedup at N > {fill} > every one at N < {fill}",
              all(below[k] and past[k] and min(past[k]) > max(below[k]) for k in facts)),
        Claim('Jacobi\'s speedups are "the most impressive"', "Fig. 5",
              f"smallest lead {min(leads)[0]:.2f} (N={min(leads)[1]})" if leads else "none",
              "Jacobi's speedup > every other kernel's at every N",
              bool(leads) and min(leads)[0] > 0.0),
    ]


def figure678_claims(rows: list[CholRow], fill: int) -> list[Claim]:
    """Cholesky's miss-cycle, branch and instruction shapes (tiled_sunk)."""
    past = [r for r in rows if r.n > fill]
    l2 = {r.n: r.seq_l2_cycles / max(r.tiled_l2_cycles, 1.0) for r in past}
    l1 = {r.n: r.seq_l1_cycles / max(r.tiled_l1_cycles, 1.0) for r in past}
    saved = {r.n: (r.seq_l2_cycles - r.tiled_l2_cycles) / max(r.tiled_branch_cycles, 1.0)
             for r in past}
    instr = [r.tiled_instructions / r.seq_instructions for r in rows]
    tiled = [r.tiled_branch_resolved for r in rows]
    return [
        Claim("Tiling cuts Cholesky's L2 miss cycles ~6-10x past the L2 fill", "Fig. 6",
              ", ".join(f"N={n} {x:.2f}x" for n, x in l2.items()) or "no N past the fill",
              f"6x <= seq / tiled L2 cycles <= 10x at every N > {fill}",
              bool(past) and all(6.0 <= x <= 10.0 for x in l2.values())),
        Claim('"Far more effective in reducing L2 misses": L1 miss cycles fall less',
              "Fig. 6", f"L1 {_span(list(l1.values()))}, L2 {_span(list(l2.values()))}",
              f"L2 reduction > L1 reduction at every N > {fill}",
              bool(past) and all(l2[n] > l1[n] for n in l2)),
        Claim("Code sinking adds the conditionals: sequential Cholesky has none", "Fig. 7",
              f"seq {max(r.seq_branch_resolved for r in rows):,} resolved; "
              f"tiled {min(tiled):,}-{max(tiled):,}",
              "seq resolved = 0 < tiled resolved at every N",
              all(r.seq_branch_resolved == 0 < r.tiled_branch_resolved for r in rows)),
        Claim('"The branching overhead is small": below the L2 miss cycles saved', "Fig. 7",
              f"saved / branch cycles {_span(list(saved.values()), '.1f')}",
              f"tiled branch cycles < seq - tiled L2 cycles at every N > {fill}",
              bool(past) and all(x > 1.0 for x in saved.values())),
        Claim('"Relatively large increases in dynamic instruction counts": ~1.5x',
              "Fig. 8", f"tiled / seq {_span(instr)}",
              "1.4x <= tiled / seq instructions <= 1.6x at every N",
              all(1.4 <= x <= 1.6 for x in instr)),
    ]


def table1_claims(table: dict[str, dict[str, bool]]) -> list[Claim]:
    """Every cell of the capability matrix equals the paper's."""
    cells = [(m, k) for m, cols in table1.PAPER_TABLE1.items() for k in cols]
    wrong = [f"{m}/{k}" for m, k in cells
             if table.get(m, {}).get(k) != table1.PAPER_TABLE1[m][k]]
    return [
        Claim("Only this work handles all four kernels; the prior methods' rows match",
              "Table 1", f"{len(cells) - len(wrong)} of {len(cells)} cells match"
              + "".join(f"; differs: {w}" for w in wrong),
              "every cell equals the paper's", not wrong),
    ]


def jacobi_claims(rows: list[JacobiStatsRow]) -> list[Claim]:
    """Fusion cuts Jacobi's memory operations and instructions."""
    loads = [r.load_reduction for r in rows]
    instr = [r.instr_change for r in rows]
    return [
        Claim("Fusing Jacobi's nests cuts its memory operations (paper: loads -40.9%)",
              "Sec. 4", f"{_span(loads, '.1%', '')} fewer", "reduction > 5% at every N",
              all(x > 0.05 for x in loads)),
        Claim("Fusing Jacobi's nests cuts its instructions (paper: -3.4%)",
              "Sec. 4", f"{_span(instr, '.1%', '')} fewer", "reduction > 0 at every N",
              all(x > 0.0 for x in instr)),
    ]


def paperpoint_claims(point: PaperPoint) -> list[Claim]:
    """Cholesky at the paper's N = 238 on the true Octane2 geometry."""
    place = f"Fig. 5 (Cholesky, N = {point.n})"
    return [
        Claim("A modest small-end speedup (paper: 1.11)", place, f"{point.speedup:.2f}",
              "1.0 < speedup < 1.6", 1.0 < point.speedup < 1.6),
        Claim("The win comes from L1: its misses drop", place,
              f"{point.seq_l1:,} -> {point.tiled_l1:,}", "tiled < 0.75 x seq L1 misses",
              point.tiled_l1 < point.seq_l1 * 0.75),
        Claim("The matrix fits L2: only cold misses there", place,
              f"{point.seq_l2:,} -> {point.tiled_l2:,}", "tiled = seq L2 misses",
              point.tiled_l2 == point.seq_l2),
        Claim("PDAT picks the tile for the real 32 KB L1", place, f"tile {point.tile}",
              "tile = 45", point.tile == 45),
    ]


def crossover_claims(results: list[Crossover], machine: MachineConfig) -> list[Claim]:
    """Where the sunk-guard tiled codes break even against sequential."""
    fill = machine.l2_fill_order()
    facts = [r for r in results if r.kernel != "jacobi"]
    jacobi = next(r for r in results if r.kernel == "jacobi")
    first = jacobi.probes[0][0]
    return [
        Claim("The factorisations' sunk-tiled codes break even just past the L2 fill",
              "Fig. 5 (small end)",
              ", ".join(f"{r.kernel} N={r.break_even_n} ({r.break_even_n / fill:.2f}x)"
                        if r.break_even_n else f"{r.kernel} none" for r in facts),
              f"1.1 <= break-even N / {fill} <= 1.4 for each",
              all(r.break_even_n and 1.1 <= r.break_even_n / fill <= 1.4 for r in facts)),
        Claim("Jacobi's sunk-tiled code breaks even at the smallest probe",
              "Fig. 5 (small end)", f"N={jacobi.break_even_n}", f"break-even N = {first}",
              jacobi.break_even_n == first),
    ]


def check(
    f5_rows: list[Figure5Row],
    chol_rows: list[CholRow],
    table: dict[str, dict[str, bool]],
    js_rows: list[JacobiStatsRow],
    machine: MachineConfig,
) -> list[Claim]:
    """Every claim of the sweep's figures, Table 1 and Jacobi statistics."""
    fill = machine.l2_fill_order()
    return [*figure5_claims(f5_rows, fill), *figure678_claims(chol_rows, fill),
            *table1_claims(table), *jacobi_claims(js_rows)]


def generate(config: SweepConfig | None = None) -> list[Claim]:
    """Measure (or reuse) the sweep's rows and check their claims."""
    config = config or default_config()
    return check(figure5.generate(config), figure678.generate(config), table1.generate(),
                 jacobi_stats.generate(config), config.machine)


def render(claims: list[Claim], title: str = TITLE, place: str = "paper") -> str:
    """A markdown table, one row per claim, and a count of those that hold;
    *place* heads the column of :attr:`Claim.place`."""
    bad = sum(not c.holds for c in claims)
    return "\n".join([
        title, "",
        f"| claim | {place} | measured | bound | verdict |",
        "|---|---|---|---|---|",
        *(f"| {c.claim} | {c.place} | {c.measured} | {c.bound} | {c.verdict} |"
          for c in claims),
        "",
        f"{bad} of {len(claims)} claims FAIL" if bad
        else f"{len(claims)} of {len(claims)} claims hold",
    ])
