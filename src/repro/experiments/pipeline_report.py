"""Per-pass pipeline evidence for every registered (kernel, variant).

Not a paper figure — build provenance: for each registered
:class:`~repro.pipeline.recipe.VariantRecipe` this experiment runs the
:class:`~repro.pipeline.manager.PassManager` and renders the per-pass wall
time, IR-size trajectory, and FixDeps audit notes. Useful both as a sanity
check (which pass dominates build time, where statements appear or
collapse) and as documentation of exactly how each measured program was
derived.
"""

from __future__ import annotations

from repro.experiments.runner import build_program
from repro.kernels.registry import ALL_KERNELS, variants_for
from repro.pipeline.manager import PipelineReport, clear_memo


def generate() -> list[PipelineReport]:
    """One :class:`PipelineReport` per registered (kernel, variant); the
    builds use no sweep configuration. The build memo is cleared first, so
    the report shows a cold build of the registry whatever this process
    built before: which records are reused, and the total of the passes
    that ran."""
    clear_memo()
    reports: list[PipelineReport] = []
    for kernel in ALL_KERNELS:
        for variant in variants_for(kernel):
            _, report, _ = build_program(kernel, variant)
            reports.append(report)
    return reports


def rows(reports: list[PipelineReport]) -> list[dict]:
    """Flat per-pass rows across all reports (CSV-friendly)."""
    return [row for report in reports for row in report.as_rows()]


def render(reports: list[PipelineReport]) -> str:
    """All per-pass tables, one per recipe."""
    return "\n\n".join(report.render() for report in reports)
