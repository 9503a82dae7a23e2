"""End-to-end and per-layer benchmark of the reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig5_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fig5_cold --seed 1 --seconds 30 --trace 1

Each pass of a workload (see ``workloads.py``) runs in a fresh interpreter
(``child.py``) with the ``REPRO_*`` knobs cleared, ``REPRO_JOBS=1`` and an
empty cache directory. Passes repeat, one at a time (a closed loop with
one caller), until ``--seconds`` is spent, with at least
:data:`MIN_PASSES`. Set-up probes (interpreter start plus imports, then
calibration blocks) run between the first passes.

``--trace 0`` reports the end-to-end metrics of untraced passes:
``ref_cpu_s`` (time of one pass over the grid: the sum over its points
of each point's median time), ``setup_s`` (median time from interpreter
start to imported), ``peak_rss_mb`` (median peak resident memory of a
pass) and ``ok_ratio`` (grid points that passed the correctness gate
over those attempted).

Both times are the process's own CPU time, rescaled to reference machine
speed with calibration blocks the process runs between its points, or
after its imports (``calib.py``). The workload is serial and
single-threaded, so on an idle machine CPU and wall time agree; on a
shared virtual machine wall time also counts time the host gives to
other guests, and both slow down by up to 2x for minutes when other
guests share the host's cores. Raw wall and CPU times are still printed
and kept in ``--out`` records.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``tracer.py``), a table with one
row per grid point, and ``trace.overhead_ratio``.

Every point of every pass must match its NumPy reference and golden
data (``child.py``), and every pass must produce the same ``PerfReport``s,
traced or not. A failing point is named on stderr and the command exits 1.
The last stdout line is the result object; ``--out FILE`` also appends a
record with the environment, the passes and the per-point rows, which
``compare.py`` reads::

    for s in 1 2 3; do python3 perfbench/run.py --workload fig5_cold \\
        --seed $s --seconds 30 --trace 0 --out base.jsonl; done
    python3 perfbench/compare.py base.jsonl head.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Untraced passes of a ``--trace 0`` run, and passes (half traced) of a
#: ``--trace 1`` run, however short ``--seconds`` is.
MIN_PASSES = {0: 3, 1: 4}
#: Set-up probes run before each pass, up to a total per run; ``setup_s``
#: is the median over them.
PROBES_PER_PASS = 2
MAX_PROBES = 6
#: No run may take longer than this, passes included.
HARD_LIMIT_S = 170.0
#: Scratch space inside the checkout: bytecode cache and per-pass cache dirs.
SCRATCH = Path(".perfbench_tmp")


class BenchError(Exception):
    """The benchmark itself could not run (not a correctness failure)."""


def pinned_env(cache_dir: Path, workload: str) -> dict[str, str]:
    """The environment of one pass: no ambient ``REPRO_*`` knob survives,
    the cache starts empty, NumPy runs single-threaded."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k not in (
            "PYTHONPATH", "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE",
            "PYTHONPYCACHEPREFIX", "PYTHONWARNINGS",
        )
    }
    env.update(
        PYTHONPATH=str(Path("src").resolve()),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str((SCRATCH / "pycache").resolve()),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_JOBS="1",
        REPRO_CACHE_DIR=str(cache_dir.resolve()),
    )
    if WORKLOADS[workload] is not None:
        # The sweeps run cold: no measurement or analysis disk cache.
        env["REPRO_NO_CACHE"] = "1"
    return env


def run_child(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run one pass or probe; returns its JSON result with its raw set-up
    times added (``setup_cpu_s``, ``setup_wall_s``)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a pass within {HARD_LIMIT_S:.0f} s")
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"pass {args} exited {proc.returncode}:\n{proc.stderr.strip()[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"pass {args} printed no result")
    result = json.loads(lines[-1])
    result["setup_cpu_s"] = result["cpu_ready"]
    result["setup_wall_s"] = result["t_ready"] - t_spawn
    return result


def environment() -> dict:
    """What the numbers depend on besides the code."""
    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def check_passes(passes: list[dict]) -> list[str]:
    """Failures across a run: points that failed their own pass, and
    points whose PerfReport differs from the first pass's (which covers
    traced against untraced)."""
    failures = []
    first: dict[str, dict] = {}
    for i, p in enumerate(passes, 1):
        kind = "traced" if p["traced"] else "untraced"
        for point in p["points"]:
            name = point["point"]
            if not point["ok"]:
                failures.append(f"{name} (pass {i}, {kind}): {point['why']}")
                continue
            report = point.get("report")
            if report is None:
                continue
            if name not in first:
                first[name] = report
            elif report != first[name]:
                diff = sorted(k for k in report if report[k] != first[name][k])
                failures.append(
                    f"{name} (pass {i}, {kind}): PerfReport differs from pass 1 in {diff}"
                )
    return failures


def median_rows(traced: list[dict]) -> list[dict]:
    """Per-point rows, each numeric field the median over traced passes."""
    rows = []
    for group in zip(*(p["rows"] for p in traced)):
        row = dict(group[0])
        for key, value in row.items():
            if isinstance(value, float):
                row[key] = statistics.median(r[key] for r in group)
        rows.append(row)
    return rows


def print_rows(rows: list[dict]) -> None:
    if not rows:
        return
    cols = [k for k in rows[0] if k not in ("point", "n")]
    print(f"{'point':<28}{'n':>5}" + "".join(f"{c:>14}" for c in cols))
    for row in rows:
        cells = "".join(
            f"{row[c]:>14.4f}" if isinstance(row[c], float) else f"{row[c]:>14}"
            for c in cols
        )
        print(f"{row['point']:<28}{row.get('n', ''):>5}" + cells)


def grid_time(passes: list[dict]) -> float:
    """Reference-speed time of one pass over the grid, robust to noise
    that hits a few passes: the sum over points of each point's median."""
    return sum(
        statistics.median(times) for times in zip(*(p["point_ref_s"] for p in passes))
    )


def measure(args, spec: dict, scratch: Path) -> tuple[dict, list[dict], list[str]]:
    """Probes and passes of one run; returns (result, passes, failures)."""
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    budget = t_start + args.seconds
    probe_env = pinned_env(scratch / "probe", args.workload)
    probes: list[float] = []
    passes: list[dict] = []
    longest = 0.0
    while len(passes) < MIN_PASSES[args.trace] or time.monotonic() + longest <= budget:
        # Probes are spread over the run so that they and the passes see
        # the same machine.
        for _ in range(min(PROBES_PER_PASS, MAX_PROBES - len(probes))):
            probes.append(run_child(["--setup-only"], probe_env, deadline)["setup_s"])
        traced = bool(args.trace) and len(passes) % 2 == 1
        cache_dir = scratch / f"pass-{len(passes)}"
        started = time.monotonic()
        result = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--trace", str(int(traced))],
            pinned_env(cache_dir, args.workload),
            deadline,
        )
        longest = max(longest, time.monotonic() - started)
        shutil.rmtree(cache_dir, ignore_errors=True)
        result["traced"] = traced
        passes.append(result)

    failures = check_passes(passes)
    attempted = sum(len(p["points"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in names if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = grid_time(traced) / grid_time(plain) - 1.0
    else:
        metrics = {
            "ref_cpu_s": grid_time(plain),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if set(metrics) != set(units):
        raise BenchError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    return result, passes, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, help="append a JSON record to this file")
    args = ap.parse_args()

    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    env_info = environment()
    scratch = SCRATCH / f"run-{os.getpid()}"
    try:
        result, passes, failures = measure(args, spec, scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env_info["numpy"] = passes[0]["numpy"]
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    rows = median_rows([p for p in passes if p["traced"]]) if args.trace else []
    print("env " + json.dumps(env_info))
    print(f"passes {len(passes)} (wall/cpu/ref s): " + " ".join(
        f"{p['wall_s']:.3f}/{sum(p['point_cpu_s']):.3f}/{sum(p['point_ref_s']):.3f}"
        + ("T" if p["traced"] else "")
        for p in passes
    ))
    print_rows(rows)
    if args.out is not None:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "env": env_info, "result": result,
            "rows": rows,
            "passes": [
                {k: p[k] for k in ("traced", "wall_s", "point_s", "point_cpu_s",
                                   "point_ref_s", "calib_s", "setup_cpu_s",
                                   "setup_wall_s", "peak_rss_mb")}
                for p in passes
            ],
        }
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
