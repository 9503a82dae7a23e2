"""Exporters: JSONL spans, Chrome ``trace_event`` JSON, text renderers.

Four consumers of the same span/metric data:

- :func:`write_jsonl` / :func:`read_jsonl` — one span per line, lossless
  round-trip (the durable raw format; ``trace.jsonl``);
- :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome
  ``trace_event`` "complete" (``ph: "X"``) events, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev for flamegraph viewing
  (``trace_chrome.json``);
- :func:`render_tree` — hierarchical aggregation of spans by name path
  (count, total/self/mean milliseconds), the "where did the time go" view;
- :func:`render_summary` — the tree plus counters (with the sweep-cache
  and polyhedral-analysis sections broken out) and histogram stats
  (``summary.txt``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.telemetry.metrics import Histogram
from repro.telemetry.spans import Span

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "render_tree",
    "render_summary",
]


def write_jsonl(spans: list[Span], path: str | Path) -> Path:
    """One JSON object per line; lossless against :func:`read_jsonl`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for span in spans:
            f.write(json.dumps(span.as_dict()) + "\n")
    return path


def read_jsonl(path: str | Path) -> list[Span]:
    """Inverse of :func:`write_jsonl`."""
    spans = []
    with Path(path).open() as f:
        for line in f:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


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


class _Node:
    __slots__ = ("count", "total", "children")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.children: dict[str, _Node] = {}


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


def render_tree(spans: list[Span]) -> str:
    """Aggregated span tree: one line per distinct name path.

    A node's *self* time is its total minus its children's totals: for
    ``exec.run`` that is trace production without the sinks it feeds.
    """
    root = _Node()
    for path, span in _span_paths(spans):
        node = root
        for name in path:
            node = node.children.setdefault(name, _Node())
        node.count += 1
        node.total += span.duration

    lines: list[str] = []

    def emit(node: _Node, name: str, depth: int) -> None:
        mean_ms = node.total * 1e3 / node.count if node.count else 0.0
        self_s = node.total - sum(c.total for c in node.children.values())
        lines.append(
            f"{'  ' * depth}{name:<{max(40 - 2 * depth, 8)}} "
            f"x{node.count:<6} total {node.total * 1e3:10.2f} ms  "
            f"self {self_s * 1e3:10.2f} ms  mean {mean_ms:8.3f} ms"
        )
        for child_name in sorted(node.children):
            emit(node.children[child_name], child_name, depth + 1)

    for name in sorted(root.children):
        emit(root.children[name], name, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


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
    """Human-readable run summary: span tree, counters, histograms.

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

    gauges = sorted(metrics.get("gauges", {}).items())
    if gauges:
        lines.append("")
        lines.extend(_counter_section("== gauges ==", gauges))

    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("== histograms ==")
        width = max(len(k) for k in histograms)
        for name in sorted(histograms):
            h = Histogram.from_dict(histograms[name])
            lines.append(
                f"  {name:<{width}}  n={h.count:<8} total={h.total:.6g} "
                f"mean={h.mean:.6g} min={0 if h.count == 0 else h.min:.6g} "
                f"max={0 if h.count == 0 else h.max:.6g}"
            )
    return "\n".join(lines) + "\n"
