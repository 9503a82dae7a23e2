"""Exporters: JSONL spans, Chrome ``trace_event`` JSON, text renderers.

Four consumers of the same span/metric data:

- :func:`write_jsonl` — one span per line, lossless (each line is a
  :meth:`Span.from_dict` input; the durable raw format, ``trace.jsonl``);
- :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome
  ``trace_event`` "complete" (``ph: "X"``) events, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev for flamegraph viewing
  (``trace_chrome.json``);
- :func:`aggregate` — spans grouped by name path (count, total and self
  seconds, events), the one aggregation the text views read;
- :func:`render_tree` — that aggregation as a tree (count, total/self/mean
  milliseconds), the "where did the time go" view;
- :func:`render_point_table` — one row per measured sweep point: its
  events, and seconds and events/s per layer;
- :func:`render_summary` — the tree, the point table and the counters,
  with the sweep-cache and polyhedral-analysis sections broken out
  (``summary.txt``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.telemetry.spans import Span
from repro.utils.tables import render_table

__all__ = [
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "PathStats",
    "aggregate",
    "render_tree",
    "render_point_table",
    "render_summary",
]


def write_jsonl(spans: list[Span], path: str | Path) -> Path:
    """One JSON object per line (:meth:`Span.as_dict`); lossless."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for span in spans:
            f.write(json.dumps(span.as_dict()) + "\n")
    return path


def chrome_trace(spans: list[Span]) -> list[dict[str, Any]]:
    """Spans as Chrome ``trace_event`` complete events.

    Timestamps are each process's ``perf_counter`` microseconds — origins
    differ between processes, which trace viewers handle per-pid lane.
    """
    events = []
    for s in spans:
        args = dict(s.attrs)
        if s.error is not None:
            args["error"] = s.error
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": s.pid,
                "tid": s.tid,
                "args": args,
            }
        )
    return events


def write_chrome_trace(spans: list[Span], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": chrome_trace(spans)}))
    return path


# -- text rendering -------------------------------------------------------


def _span_paths(spans: list[Span]) -> list[tuple[tuple[str, ...], Span]]:
    """Each span's name path from its root ancestor, via parent links."""
    by_id = {(s.pid, s.span_id): s for s in spans}
    out = []
    for s in spans:
        path = [s.name]
        cur = s
        while cur.parent_id is not None:
            parent = by_id.get((cur.pid, cur.parent_id))
            if parent is None:
                break  # parent not exported (e.g. still open): treat as root
            path.append(parent.name)
            cur = parent
        out.append((tuple(reversed(path)), s))
    return out


@dataclass
class PathStats:
    """The spans that share one name path."""

    count: int = 0
    total: float = 0.0  #: seconds
    #: seconds: the total minus the totals of the paths one level below
    self_time: float = 0.0
    #: the spans' ``events`` attributes, summed
    events: int = 0


def aggregate(spans: list[Span]) -> dict[tuple[str, ...], PathStats]:
    """Group *spans* by name path from their root ancestor.

    A path's self time is its total minus its children's totals: for
    ``exec.run`` that is trace production without the sinks it feeds.
    """
    stats: dict[tuple[str, ...], PathStats] = defaultdict(PathStats)
    for path, span in _span_paths(spans):
        node = stats[path]
        node.count += 1
        node.total += span.duration
        node.self_time += span.duration
        node.events += int(span.attrs.get("events", 0))
        if len(path) > 1:
            stats[path[:-1]].self_time -= span.duration
    return dict(stats)


def render_tree(spans: list[Span]) -> str:
    """The :func:`aggregate` of *spans*, one line per name path, children
    indented under their parent in name order."""
    lines: list[str] = []
    # Sorted name tuples are the tree's preorder, children by name.
    for path, node in sorted(aggregate(spans).items()):
        depth = len(path) - 1
        mean_ms = node.total * 1e3 / node.count
        lines.append(
            f"{'  ' * depth}{path[-1]:<{max(40 - 2 * depth, 8)}} "
            f"x{node.count:<6} total {node.total * 1e3:10.2f} ms  "
            f"self {node.self_time * 1e3:10.2f} ms  mean {mean_ms:8.3f} ms"
        )
    return "\n".join(lines) if lines else "(no spans recorded)"


#: The point table's layers: column name -> the span that times it. A
#: layer's seconds are its span's self time: for ``produce`` that is
#: ``exec.run`` without the sinks it feeds, rated by the point's memory
#: events.
POINT_LAYERS = {
    "produce": "exec.run",
    "regfilter": "machine.memory.regfilter",
    "l1l2": "machine.memory.l1l2",
    "branch": "machine.branch",
}


def render_point_table(spans: list[Span]) -> str:
    """One row per ``sweep.point`` that ran the machine model: kernel,
    variant, N and memory events, then seconds and events/s per layer
    (:data:`POINT_LAYERS`; a layer's events are those its span counts),
    from the :func:`aggregate` of the point's subtree. Points served from
    the disk cache have no row.
    """
    children: dict[tuple, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.pid, s.parent_id].append(s)
    headers = ["kernel", "variant", "N", "events"]
    for column in POINT_LAYERS:
        headers += [f"{column} s", f"{column} ev/s"]
    rows = []
    for point in spans:
        if point.name != "sweep.point":
            continue
        subtree, stack = [], [point]
        while stack:
            s = stack.pop()
            subtree.append(s)
            stack.extend(children[s.pid, s.span_id])
        seconds: dict[str, float] = defaultdict(float)
        events: dict[str, int] = defaultdict(int)
        for path, node in aggregate(subtree).items():
            seconds[path[-1]] += node.self_time
            events[path[-1]] += node.events
        if "exec.run" not in seconds:
            continue
        events["exec.run"] = events["machine.memory.regfilter"]
        row = [point.attrs.get("kernel"), point.attrs.get("variant"), point.attrs.get("n"),
               events["exec.run"]]
        for name in POINT_LAYERS.values():
            row += [seconds[name], round(events[name] / seconds[name]) if seconds[name] > 0 else 0]
        rows.append(row)
    if not rows:
        return "(no measured points)"
    return render_table(headers, rows)


def _counter_section(title: str, items: list[tuple[str, float]]) -> list[str]:
    lines = [title]
    if not items:
        lines.append("  (none)")
        return lines
    width = max(len(k) for k, _ in items)
    for k, v in items:
        lines.append(f"  {k:<{width}}  {v:g}")
    return lines


def render_summary(spans: list[Span], metrics: dict[str, Any]) -> str:
    """Human-readable run summary: span tree, per-point layer table and
    counters.

    Sweep cache behaviour (``sweep.cache.*`` with the derived hit rate)
    and the polyhedral-analysis memo get their own sections so
    regressions are visible at a glance.
    """
    counters = dict(metrics.get("counters", {}))
    cache = sorted((k, v) for k, v in counters.items() if k.startswith("sweep."))
    poly = sorted((k, v) for k, v in counters.items() if k.startswith("poly."))
    other = sorted(
        (k, v)
        for k, v in counters.items()
        if not k.startswith(("sweep.", "poly."))
    )

    lines: list[str] = ["== span tree =="]
    lines.append(render_tree(spans))
    lines.append("")
    lines.append("== per-point layers ==")
    lines.append(render_point_table(spans))
    lines.append("")
    lines.extend(_counter_section("== sweep cache ==", cache))
    hits = counters.get("sweep.cache.hit", 0)
    misses = counters.get("sweep.cache.miss", 0)
    if hits + misses:
        lines.append(f"  disk-cache hit rate: {hits / (hits + misses):.1%}")
    corrupt = counters.get("sweep.cache.corrupt", 0)
    if corrupt:
        lines.append(f"  WARNING: {corrupt:g} corrupt cache entries discarded")
    lines.append("")
    lines.extend(_counter_section("== polyhedral analysis ==", poly))
    p_hits = counters.get("poly.memo.hit", 0)
    p_misses = counters.get("poly.memo.miss", 0)
    if p_hits + p_misses:
        lines.append(f"  poly-memo hit rate: {p_hits / (p_hits + p_misses):.1%}")
    lines.append("")
    lines.extend(_counter_section("== other counters ==", other))
    return "\n".join(lines) + "\n"
