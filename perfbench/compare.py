"""Summarise or compare benchmark result files written by ``run.py --out``.

    python3 perfbench/compare.py runs.jsonl             # spread of one set
    python3 perfbench/compare.py base.jsonl head.jsonl  # flag regressions

For each workload, every end-to-end metric is shown as the median and
quartiles over the untraced runs (``statistics.quantiles(n=4)``) with its
spread, the quartile distance as a share of the median. With two files,
an end-to-end metric whose median got worse by more than its bound in
``BENCHMARK.json`` is flagged ``REGRESSED``, and a per-layer metric (from
the traced runs) whose median moved by more than 10% is flagged
``MOVED``, with the end-to-end metric and workload it is expected to
move. Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from workloads import LAYER_MAP

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
LAYER_MOVE = 0.10


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, one per run."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        metrics = out[record["workload"], record["trace"]]
        for name, metric in record["result"]["metrics"].items():
            metrics[name].append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(base: float, head: float, better: str) -> float:
    """Relative change of *head* against *base*, positive when worse."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return -change if better == "higher" else change


def summarise(data) -> int:
    for workload in sorted({w for w, _ in data}):
        print(f"== {workload}")
        runs = data.get((workload, 0), {})
        for m in SPEC["end_to_end"]:
            values = runs.get(m["name"])
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            flag = "" if s < m["bound"] / 3 else (
                "  WIDE (>= bound/3)" if s < m["bound"] else "  TOO WIDE (>= bound)"
            )
            print(f"  {m['name']:<14} n={len(values):<3} median {q2:.6g} "
                  f"[{q1:.6g}, {q3:.6g}] {m['unit']}  spread {s:.2%} "
                  f"(bound {m['bound']:.0%}){flag}")
    return 0


def compare(base, head) -> int:
    flagged = 0
    for workload in sorted({w for w, _ in base} & {w for w, _ in head}):
        print(f"== {workload}")
        b_runs, h_runs = base.get((workload, 0), {}), head.get((workload, 0), {})
        for m in SPEC["end_to_end"]:
            b, h = b_runs.get(m["name"]), h_runs.get(m["name"])
            if not b or not h:
                continue
            bq, hq = quartiles(b), quartiles(h)
            worse = worse_by(bq[1], hq[1], m["better"])
            flag = "  REGRESSED" if worse > m["bound"] else ""
            flagged += bool(flag)
            print(f"  {m['name']:<14} {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] -> "
                  f"{hq[1]:.6g} [{hq[0]:.6g}, {hq[2]:.6g}] {m['unit']}  "
                  f"worse by {worse:+.2%} (bound {m['bound']:.0%}){flag}")
        b_layers, h_layers = base.get((workload, 1), {}), head.get((workload, 1), {})
        for m in SPEC["per_layer"]:
            b, h = b_layers.get(m["name"]), h_layers.get(m["name"])
            if not b or not h:
                continue
            b_med, h_med = statistics.median(b), statistics.median(h)
            moved = (h_med - b_med) / abs(b_med) if b_med else (
                0.0 if h_med == 0 else float("inf")
            )
            if abs(moved) > LAYER_MOVE:
                flagged += 1
                hint = LAYER_MAP.get(m["name"], "")
                print(f"  MOVED {m['name']:<34} {b_med:.6g} -> {h_med:.6g} "
                      f"{m['unit']} ({moved:+.1%})" + (f"  [moves {hint}]" if hint else ""))
    return 1 if flagged else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return summarise(load(argv[0]))
    if len(argv) == 2:
        return compare(load(argv[0]), load(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
