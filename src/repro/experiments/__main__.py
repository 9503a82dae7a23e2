"""Command-line entry point: ``python -m repro.experiments <target>``.

Targets: the keys of :data:`repro.experiments.report.TARGETS` (figure5,
figure6, figure7, figure8, table1, jacobi, claims, ablations, paperpoint,
crossover, pipeline, all). Flags: ``--quick`` (4-point sweep, the
default), ``--full`` (6-point scaled sweep), ``--output DIR`` (also write
the printed sections as markdown + CSV, and ``config.md``),
``--telemetry DIR`` (write span/metric run artefacts).

``crossover`` scans a fixed N = 16..120 and rejects ``--quick`` and
``--full``. The exit code is 1 when a claim row the target prints FAILS
(``claims``, ``ablations``, ``all``, ``paperpoint`` and ``crossover``
print claim rows), else 0.
"""

from __future__ import annotations

import argparse
import sys

from repro import telemetry
from repro.experiments import report
from repro.experiments.sweep import default_config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("target", choices=list(report.TARGETS))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="4-point sweep (default)")
    mode.add_argument("--full", action="store_true", help="full scaled sweep")
    parser.add_argument(
        "--output", metavar="DIR",
        help="also write the target's sections as markdown + CSV artefacts",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help="record spans/metrics and write trace.jsonl, metrics.json, "
        "summary.txt, trace_chrome.json to DIR",
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

    sections = report.sections(args.target, config)
    if args.output:
        for name, path in report.write(sections, args.output).items():
            print(f"wrote {name}: {path}")
    print("\n\n".join(section.text for section in sections))
    if args.telemetry:
        for name, path in sorted(telemetry.write_run(args.telemetry).items()):
            print(f"telemetry {name}: {path}")
    return 1 if any(not c.holds for s in sections for c in s.claims) else 0


if __name__ == "__main__":
    sys.exit(main())
