"""Command-line entry point: ``python -m repro.experiments <target>``.

Targets: figure5, figure6, figure7, figure8, table1, jacobi, claims,
ablations, paperpoint, crossover, pipeline, telemetry_report, all. Flags:
``--quick`` (4-point sweep, the default), ``--full`` (6-point scaled
sweep), ``--output DIR`` (write markdown + CSV artefacts), ``--telemetry
DIR`` (write span/metric run artefacts), ``--diff BASE NEW`` (directories
for ``telemetry_report``).

``crossover`` scans a fixed N = 16..120 and rejects ``--quick`` and
``--full``. ``claims``, ``ablations``, ``all``, ``paperpoint`` and
``crossover`` print their claim rows (:mod:`repro.experiments.claims`) and
exit 1 when any row FAILS.
"""

from __future__ import annotations

import argparse
import sys

from repro import telemetry
from repro.experiments import (
    claims, crossover, figure5, figure678, jacobi_stats, paperpoint, table1,
)
from repro.experiments.sweep import default_config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument(
        "target",
        choices=[
            "figure5", "figure6", "figure7", "figure8", "table1", "jacobi",
            "claims", "ablations", "paperpoint", "crossover", "pipeline",
            "telemetry_report", "all",
        ],
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="4-point sweep (default)")
    mode.add_argument("--full", action="store_true", help="full scaled sweep")
    parser.add_argument(
        "--output", metavar="DIR", help="also write markdown + CSV artefacts"
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help="record spans/metrics and write trace.jsonl, metrics.json, "
        "summary.txt, trace_chrome.json to DIR",
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("BASELINE", "CURRENT"),
        help="two --telemetry run directories to compare "
        "(required by the telemetry_report target)",
    )
    args = parser.parse_args(argv)
    if args.target == "crossover" and (args.quick or args.full):
        parser.error(
            "crossover always scans N = 16..120 in steps of 8; "
            "it takes no --quick or --full"
        )

    if args.telemetry:
        telemetry.enable()

    config = default_config(quick=not args.full)

    if args.target == "telemetry_report":
        if not args.diff:
            parser.error("telemetry_report needs --diff BASELINE CURRENT")
        from repro.experiments import telemetry_report

        print(telemetry_report.main(args.diff[0], args.diff[1]))
        return 0

    if args.output:
        from repro.experiments.report import write_all

        written = write_all(args.output, config)
        for name, path in written.items():
            print(f"wrote {name}: {path}")

    def fig678(which: str) -> str:
        rows = figure678.generate(config)
        renderer = getattr(figure678, f"render_{which}")
        return renderer(rows)

    outputs: list[str] = []
    checked: list[claims.Claim] = []

    def check(rows: list[claims.Claim], title: str = claims.TITLE) -> str:
        checked.extend(rows)
        return claims.render(rows, title)

    if args.target in ("figure5", "all"):
        outputs.append(figure5.main(config))
    if args.target == "figure6":
        outputs.append(fig678("figure6"))
    if args.target == "figure7":
        outputs.append(fig678("figure7"))
    if args.target == "figure8":
        outputs.append(fig678("figure8"))
    if args.target == "all":
        outputs.append(figure678.main(config))
    if args.target in ("table1", "all"):
        outputs.append(table1.main(config))
    if args.target in ("jacobi", "all"):
        outputs.append(jacobi_stats.main(config))
    if args.target in ("claims", "all"):
        outputs.append(check(claims.generate(config)))
    if args.target in ("ablations", "all"):
        from repro.experiments import ablations

        text, rows = ablations.main(config)
        outputs.append(text)
        checked.extend(rows)
    if args.target == "paperpoint":
        outputs.append(paperpoint.main(config))
        outputs.append(
            check(claims.paperpoint_claims(paperpoint.measure()), "Claims — anchor point")
        )
    if args.target == "crossover":
        outputs.append(crossover.main(config))
        outputs.append(
            check(
                claims.crossover_claims(crossover.generate(config), config.machine),
                "Claims — crossover",
            )
        )
    if args.target == "pipeline":
        from repro.experiments import pipeline_report

        outputs.append(pipeline_report.main(config))
    print("\n\n".join(outputs))
    if args.telemetry:
        for name, path in sorted(telemetry.write_run(args.telemetry).items()):
            print(f"telemetry {name}: {path}")
    return 1 if any(not c.holds for c in checked) else 0


if __name__ == "__main__":
    sys.exit(main())
