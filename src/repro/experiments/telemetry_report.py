"""Diff two telemetry runs' metrics to flag performance regressions.

``python -m repro.experiments telemetry_report --diff BASE NEW`` loads
the ``metrics.json`` written by two ``--telemetry`` runs and renders:

- **time per layer** — total seconds per span-name histogram
  (``span.pipeline.pass``, ``span.exec.run``,
  ``span.machine.measure_streaming``, ``span.sweep.point``, ...), with
  the ratio flagged when the new run is slower than the baseline by more
  than :data:`TIME_REGRESSION_RATIO` (and by more than measurement
  noise, :data:`MIN_REGRESSION_SECONDS`);
- **cache behaviour** — disk-cache hit rate, flagged when it drops by
  more than :data:`HIT_RATE_DROP`; corrupt-entry count, flagged on any
  increase;
- **other counters** — every remaining counter, side by side, never
  flagged.

The function layer (:func:`diff_metrics`) is pure — it takes two
snapshot dicts and returns structured rows — so tests and other tooling
can drive it without touching the filesystem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.utils.tables import render_table

#: New/base total-seconds ratio above which a layer's time is flagged.
TIME_REGRESSION_RATIO = 1.10
#: Absolute floor below which time deltas are considered noise.
MIN_REGRESSION_SECONDS = 1e-3
#: Hit-rate percentage-point drop (0..1) that flags the cache section.
HIT_RATE_DROP = 0.05


@dataclass(frozen=True)
class DiffRow:
    """One compared metric."""

    section: str  # "time" | "cache" | "counter"
    name: str
    base: float
    new: float
    flagged: bool
    note: str = ""


def load_metrics(directory: str | Path) -> dict[str, Any]:
    """Read a telemetry run's ``metrics.json``."""
    path = Path(directory) / "metrics.json"
    return json.loads(path.read_text())


def _hist_totals(metrics: dict[str, Any]) -> dict[str, float]:
    return {
        name: float(h.get("total", 0.0))
        for name, h in metrics.get("histograms", {}).items()
        if name.startswith("span.")
    }


def _hit_rate(counters: dict[str, float]) -> float | None:
    hits = counters.get("sweep.cache.hit", 0)
    misses = counters.get("sweep.cache.miss", 0)
    return hits / (hits + misses) if hits + misses else None


def diff_metrics(base: dict[str, Any], new: dict[str, Any]) -> list[DiffRow]:
    """Structured comparison of two metrics snapshots."""
    rows: list[DiffRow] = []

    # -- time per layer (span-duration histogram totals) ------------------
    base_t, new_t = _hist_totals(base), _hist_totals(new)
    for name in sorted(set(base_t) | set(new_t)):
        b, n = base_t.get(name, 0.0), new_t.get(name, 0.0)
        flagged = (
            b > 0
            and n - b > MIN_REGRESSION_SECONDS
            and n / b > TIME_REGRESSION_RATIO
        )
        note = f"{n / b:.2f}x" if b > 0 else ("new" if n > 0 else "")
        rows.append(DiffRow("time", name, b, n, flagged, note))

    base_c = base.get("counters", {})
    new_c = new.get("counters", {})

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
        ("time", "Time per layer (span seconds)"),
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
    rows = diff_metrics(load_metrics(baseline_dir), load_metrics(current_dir))
    return render(rows, baseline_dir, current_dir)
