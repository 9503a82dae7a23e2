"""The experiment targets: one table from CLI target to its sections.

Each entry of :data:`TARGETS` is a function of one run's :class:`Rows`
that returns the target's :class:`Section`\\ s: the printed text, the
optional CSV rows and the claims that text checks. :class:`Rows`
generates each table the paper reports (Figs. 5-8, Table 1, the Jacobi
statistics) once per run, on first use, so ``all`` measures every point
once and checks the claims on the very rows it prints.

``python -m repro.experiments <target>`` prints the sections and exits 1
when one of their claims FAILS; with ``--output DIR`` it also writes them
(:func:`write`): ``<name>.md`` per section, ``<name>.csv`` beside it when
the section has rows, and ``config.md`` when a section was measured on a
sweep configuration. So ``all --output results/``
writes the figures, Table 1, the Jacobi statistics, ``claims.md`` and
``ablations.md``, and ``pipeline --output results/`` the per-pass build
evidence.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

from repro.experiments import (
    ablations,
    claims,
    crossover,
    figure5,
    figure678,
    jacobi_stats,
    paperpoint,
    pipeline_report,
    table1,
)
from repro.experiments.claims import Claim
from repro.experiments.sweep import SweepConfig


@dataclass(frozen=True)
class Section:
    """One artefact of a target: printed, and written to ``<name>.md``
    (plus ``<name>.csv`` when *csv* is not ``None``) under ``--output``."""

    name: str
    text: str
    #: The configuration *text* was measured on; ``--output`` writes it
    #: to ``config.md``. ``None`` for a section that measures nothing on
    #: a sweep configuration (the pipeline builds).
    config: SweepConfig | None
    csv: list[dict] | None = None
    #: The claim rows *text* prints; one that FAILS sets the exit code.
    claims: tuple[Claim, ...] = ()


class Rows:
    """The rows of one run, each table generated once, on first use."""

    def __init__(self, config: SweepConfig):
        self.config = config

    @cached_property
    def figure5(self) -> list[figure5.Figure5Row]:
        return figure5.generate(self.config)

    @cached_property
    def figure678(self) -> list[figure678.CholRow]:
        return figure678.generate(self.config)

    @cached_property
    def table1(self) -> dict[str, dict[str, bool]]:
        return table1.generate()

    @cached_property
    def jacobi(self) -> list[jacobi_stats.JacobiStatsRow]:
        return jacobi_stats.generate(self.config)


def _figure5(rows: Rows) -> list[Section]:
    return [Section("figure5", figure5.render(rows.figure5), rows.config,
                    [asdict(r) for r in rows.figure5])]


def _figure(which: str) -> Callable[[Rows], list[Section]]:
    render = getattr(figure678, f"render_{which}")
    return lambda rows: [Section(which, render(rows.figure678), rows.config,
                                 [asdict(r) for r in rows.figure678])]


def _figure678(rows: Rows) -> list[Section]:
    text = "\n\n".join(
        render(rows.figure678)
        for render in (figure678.render_figure6, figure678.render_figure7,
                       figure678.render_figure8)
    )
    return [Section("figure678", text, rows.config,
                    [asdict(r) for r in rows.figure678])]


def _table1(rows: Rows) -> list[Section]:
    return [Section("table1", table1.render(rows.table1), rows.config,
                    [{"method": m, **cols} for m, cols in rows.table1.items()])]


def _jacobi(rows: Rows) -> list[Section]:
    return [Section("jacobi_stats", jacobi_stats.render(rows.jacobi), rows.config,
                    [asdict(r) for r in rows.jacobi])]


def _claims(rows: Rows) -> list[Section]:
    checked = claims.check(rows.figure5, rows.figure678, rows.table1, rows.jacobi,
                           rows.config.machine)
    return [Section("claims", claims.render(checked), rows.config,
                    claims=tuple(checked))]


def _ablations(rows: Rows) -> list[Section]:
    studies = ablations.generate(rows.config)
    checked = ablations.check(**studies, fill=rows.config.machine.l2_fill_order())
    return [Section("ablations", ablations.render(studies, checked), rows.config,
                    claims=tuple(checked))]


def _paperpoint(rows: Rows) -> list[Section]:
    point = paperpoint.measure()
    checked = claims.paperpoint_claims(point)
    text = "\n\n".join([paperpoint.render(point),
                        claims.render(checked, "Claims — anchor point")])
    return [Section("paperpoint", text, paperpoint.paper_config(point.n),
                    claims=tuple(checked))]


def _crossover(rows: Rows) -> list[Section]:
    results = crossover.generate(rows.config)
    checked = claims.crossover_claims(results, rows.config.machine)
    text = "\n\n".join([crossover.render(results, rows.config.machine),
                        claims.render(checked, "Claims — crossover")])
    # The scan fixes its own sizes; the rest of the config is the run's.
    scanned = replace(rows.config, sizes=tuple(n for n, _ in results[0].probes))
    return [Section("crossover", text, scanned, claims=tuple(checked))]


def _pipeline(rows: Rows) -> list[Section]:
    reports = pipeline_report.generate()
    return [Section("pipeline", pipeline_report.render(reports), None,
                    pipeline_report.rows(reports))]


def _all(rows: Rows) -> list[Section]:
    return [*_figure5(rows), *_figure678(rows), *_table1(rows), *_jacobi(rows),
            *_claims(rows), *_ablations(rows)]


#: CLI target -> its sections.
TARGETS: dict[str, Callable[[Rows], list[Section]]] = {
    "figure5": _figure5,
    "figure6": _figure("figure6"),
    "figure7": _figure("figure7"),
    "figure8": _figure("figure8"),
    "table1": _table1,
    "jacobi": _jacobi,
    "claims": _claims,
    "ablations": _ablations,
    "paperpoint": _paperpoint,
    "crossover": _crossover,
    "pipeline": _pipeline,
    "all": _all,
}


def sections(target: str, config: SweepConfig) -> list[Section]:
    """The sections of one *target*, from rows generated once."""
    return TARGETS[target](Rows(config))


def _write_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def _config_lines(config: SweepConfig) -> list[str]:
    m = config.machine
    return [
        f"- machine: {m.name}",
        *(f"- {level}: {c.size_bytes} B, {c.line_bytes} B lines, {c.assoc}-way"
          for level, c in (("L1", m.l1), ("L2", m.l2))),
        f"- registers: {m.registers}",
        f"- instruction cycles: {m.costs.instruction_cycles}",
        f"- sizes: {list(config.sizes)}",
        f"- jacobi M: {config.jacobi_m}",
        f"- tile: pdat ({config.tile})",
        f"- seed: {config.seed}",
    ]


def write(to_write: list[Section], directory: str | Path) -> dict[str, Path]:
    """Write each section (``<name>.md``, and ``<name>.csv`` when it has
    rows) under *directory*, and ``config.md``: the configuration the
    sections were measured on, one block per distinct configuration
    (naming its sections) when they differ; sections without one add no
    block, and none at all leave ``config.md`` as it was. Returns section
    name -> markdown file."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    by_config: dict[SweepConfig, list[str]] = {}
    for section in to_write:
        if section.csv is not None:
            _write_csv(out / f"{section.name}.csv", section.csv)
        paths[section.name] = out / f"{section.name}.md"
        paths[section.name].write_text(section.text + "\n")
        if section.config is not None:
            by_config.setdefault(section.config, []).append(section.name)
    if not by_config:
        return paths
    blocks = [
        "\n".join([
            "# sweep configuration"
            + ("" if len(by_config) == 1 else f" ({', '.join(names)})"),
            *_config_lines(config),
        ])
        for config, names in by_config.items()
    ]
    (out / "config.md").write_text("\n\n".join(blocks) + "\n")
    return paths
