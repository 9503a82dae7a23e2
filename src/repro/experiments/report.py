"""Writing experiment results to disk (markdown + CSV).

``python -m repro.experiments all --output results/`` drops one markdown
report plus machine-readable CSV series per experiment, so plots and
paper-comparison tables can be rebuilt without re-running the sweeps, and
``claims.md``: the paper's claims checked on those same rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict
from pathlib import Path

from repro.experiments import (
    ablations,
    claims,
    figure5,
    figure678,
    jacobi_stats,
    pipeline_report,
    table1,
)
from repro.experiments.sweep import SweepConfig, default_config


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def write_all(
    output_dir: str | Path, config: SweepConfig | None = None
) -> dict[str, Path]:
    """Run every experiment and write its artefacts under *output_dir*.

    Returns a mapping of experiment name to the markdown file written.
    """
    config = config or default_config()
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    # Figure 5
    f5_rows = figure5.generate(config)
    _write_csv(out / "figure5.csv", [asdict(r) for r in f5_rows])
    md = out / "figure5.md"
    md.write_text(figure5.render(f5_rows) + "\n")
    written["figure5"] = md

    # Figures 6-8
    chol_rows = figure678.generate(config)
    _write_csv(out / "figure678.csv", [asdict(r) for r in chol_rows])
    md = out / "figure678.md"
    md.write_text(
        "\n\n".join(
            [
                figure678.render_figure6(chol_rows),
                figure678.render_figure7(chol_rows),
                figure678.render_figure8(chol_rows),
            ]
        )
        + "\n"
    )
    written["figure678"] = md

    # Table 1
    table = table1.generate()
    md = out / "table1.md"
    md.write_text(table1.render(table) + "\n")
    _write_csv(
        out / "table1.csv",
        [{"method": m, **cols} for m, cols in table.items()],
    )
    written["table1"] = md

    # Jacobi stats
    js_rows = jacobi_stats.generate(config)
    _write_csv(out / "jacobi_stats.csv", [asdict(r) for r in js_rows])
    md = out / "jacobi_stats.md"
    md.write_text(jacobi_stats.render(js_rows) + "\n")
    written["jacobi_stats"] = md

    # The paper's claims, checked on the rows above (the `claims` target).
    md = out / "claims.md"
    md.write_text(
        claims.render(claims.check(f5_rows, chol_rows, table, js_rows, config.machine))
        + "\n"
    )
    written["claims"] = md

    # Ablations (design-choice studies beyond the paper's figures).
    md = out / "ablations.md"
    md.write_text(ablations.main(config) + "\n")
    written["ablations"] = md

    # Per-pass pipeline evidence (build provenance for every variant).
    pl_reports = pipeline_report.generate(config)
    _write_csv(out / "pipeline.csv", pipeline_report.rows(pl_reports))
    md = out / "pipeline.md"
    md.write_text(pipeline_report.render(pl_reports) + "\n")
    written["pipeline"] = md

    # Configuration provenance.
    (out / "config.md").write_text(
        "\n".join(
            [
                "# sweep configuration",
                f"- machine: {config.machine.name}",
                f"- L1: {config.machine.l1.size_bytes} B, "
                f"{config.machine.l1.line_bytes} B lines, "
                f"{config.machine.l1.assoc}-way",
                f"- L2: {config.machine.l2.size_bytes} B, "
                f"{config.machine.l2.line_bytes} B lines, "
                f"{config.machine.l2.assoc}-way",
                f"- registers: {config.machine.registers}",
                f"- instruction cycles: {config.machine.costs.instruction_cycles}",
                f"- sizes: {list(config.sizes)}",
                f"- jacobi M: {config.jacobi_m}",
                f"- tile policy: {config.tile_policy}",
                f"- seed: {config.seed}",
                "",
            ]
        )
    )
    return written
