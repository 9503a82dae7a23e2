"""Diff two telemetry runs to flag performance regressions.

``python -m repro.experiments telemetry_report --diff BASE NEW`` loads
the ``trace.jsonl`` and ``metrics.json`` written by two ``--telemetry``
runs and renders:

- **time per layer** — the *self* seconds of each span name path
  (:func:`~repro.telemetry.export.aggregate`, the aggregation the
  summary's span tree prints), flagged when the new run is slower than
  the baseline by more than :data:`TIME_REGRESSION_RATIO` (and by more
  than measurement noise, :data:`MIN_REGRESSION_SECONDS`). Self time
  leaves out the children, so one slower stage flags its own path only,
  not every span that encloses it: a slower L1/L2 flags
  ``.../exec.run/machine.memory.l1l2``, slower trace production
  ``.../exec.run``;
- **cache behaviour** — disk-cache hit rate, flagged when it drops by
  more than :data:`HIT_RATE_DROP`; corrupt-entry count, flagged on any
  increase;
- **other counters** — every remaining counter, side by side, never
  flagged.

The function layer (:func:`diff_runs`) is pure — it takes two
:class:`Run`\\ s and returns structured rows — so tests and other tooling
can drive it without touching the filesystem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from repro.telemetry.export import aggregate, read_jsonl
from repro.telemetry.spans import Span
from repro.utils.tables import render_table

#: New/base self-seconds ratio above which a span path is flagged.
TIME_REGRESSION_RATIO = 1.10
#: Absolute floor below which time deltas are considered noise.
MIN_REGRESSION_SECONDS = 1e-3
#: Hit-rate percentage-point drop (0..1) that flags the cache section.
HIT_RATE_DROP = 0.05


class Run(NamedTuple):
    """One telemetry run: its spans and its counters."""

    spans: list[Span]
    counters: dict[str, float]


@dataclass(frozen=True)
class DiffRow:
    """One compared metric."""

    section: str  # "time" | "cache" | "counter"
    name: str
    base: float
    new: float
    flagged: bool
    note: str = ""


def load_run(directory: str | Path) -> Run:
    """Read a telemetry run's ``trace.jsonl`` and ``metrics.json``."""
    directory = Path(directory)
    metrics = json.loads((directory / "metrics.json").read_text())
    return Run(read_jsonl(directory / "trace.jsonl"), metrics.get("counters", {}))


def _self_times(spans: list[Span]) -> dict[str, float]:
    return {"/".join(path): node.self_time for path, node in aggregate(spans).items()}


def _hit_rate(counters: dict[str, float]) -> float | None:
    hits = counters.get("sweep.cache.hit", 0)
    misses = counters.get("sweep.cache.miss", 0)
    return hits / (hits + misses) if hits + misses else None


def diff_runs(base: Run, new: Run) -> list[DiffRow]:
    """Structured comparison of two runs."""
    rows: list[DiffRow] = []

    # -- self time per span path ------------------------------------------
    base_t, new_t = _self_times(base.spans), _self_times(new.spans)
    for name in sorted(set(base_t) | set(new_t)):
        b, n = base_t.get(name, 0.0), new_t.get(name, 0.0)
        flagged = (
            b > 0
            and n - b > MIN_REGRESSION_SECONDS
            and n / b > TIME_REGRESSION_RATIO
        )
        if b > 0:
            note = f"{n / b:.2f}x" if n > 0 else "gone"
        else:
            note = "new" if n > 0 else ""
        rows.append(DiffRow("time", name, b, n, flagged, note))

    base_c, new_c = base.counters, new.counters

    # -- cache behaviour ---------------------------------------------------
    base_rate, new_rate = _hit_rate(base_c), _hit_rate(new_c)
    if base_rate is not None or new_rate is not None:
        b, n = base_rate or 0.0, new_rate or 0.0
        rows.append(
            DiffRow(
                "cache",
                "sweep.cache hit rate",
                b,
                n,
                base_rate is not None and b - n > HIT_RATE_DROP,
                f"{b:.1%} -> {n:.1%}",
            )
        )
    b_corrupt = base_c.get("sweep.cache.corrupt", 0)
    n_corrupt = new_c.get("sweep.cache.corrupt", 0)
    if b_corrupt or n_corrupt:
        rows.append(
            DiffRow(
                "cache",
                "sweep.cache.corrupt",
                b_corrupt,
                n_corrupt,
                n_corrupt > b_corrupt,
                "corrupt entries discarded",
            )
        )

    # -- remaining counters (informational, never flagged) ----------------
    other = sorted(
        k for k in set(base_c) | set(new_c) if not k.startswith("sweep.cache.")
    )
    for name in other:
        rows.append(
            DiffRow("counter", name, base_c.get(name, 0), new_c.get(name, 0), False)
        )
    return rows


def regressions(rows: list[DiffRow]) -> list[DiffRow]:
    return [r for r in rows if r.flagged]


def render(rows: list[DiffRow], base_label: str, new_label: str) -> str:
    """Aligned diff tables plus a verdict line."""
    sections = (
        ("time", "Time per layer (self seconds per span path)"),
        ("cache", "Sweep cache"),
        ("counter", "Other counters"),
    )
    parts: list[str] = [f"Telemetry diff — base: {base_label}  new: {new_label}"]
    for key, title in sections:
        section_rows = [r for r in rows if r.section == key]
        if not section_rows:
            continue
        parts.append(
            render_table(
                ["metric", "base", "new", "flag", "note"],
                [
                    [
                        r.name,
                        round(r.base, 6),
                        round(r.new, 6),
                        "REGRESSION" if r.flagged else "-",
                        r.note,
                    ]
                    for r in section_rows
                ],
                title=title,
                float_fmt=",.6g",
            )
        )
    flagged = regressions(rows)
    if flagged:
        parts.append(
            f"{len(flagged)} regression(s) flagged: "
            + ", ".join(r.name for r in flagged)
        )
    else:
        parts.append("No regressions flagged.")
    return "\n\n".join(parts)


def main(baseline_dir: str, current_dir: str) -> str:
    rows = diff_runs(load_run(baseline_dir), load_run(current_dir))
    return render(rows, baseline_dir, current_dir)
