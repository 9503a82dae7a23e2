"""Compile-layer (analysis-side) performance: full-registry build times.

With the in-process analysis memo (``REPRO_POLY_CACHE``, see
``docs/architecture.md``) a **cold** build of all 43 registered program
points must be >= 3x faster than the un-cached oracle mode. Each mode
runs in its own subprocess so interning tables and memos start exactly as
a user's process would; the oracle and cold program hashes are asserted
byte-identical every run, so this file doubles as the differential smoke
check in CI (where it runs under ``--benchmark-disable``, which skips only
the timing threshold — never the differential assert).

Build-only seconds, the speedup, memo hit rates and FM elimination counts
land in ``extra_info`` so ``--benchmark-json`` output carries the
evidence recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

#: Executed in a fresh interpreter per mode. Imports complete before the
#: clock starts, so the measured seconds are build-only.
_CHILD = """
import json, time
from repro import telemetry

telemetry.enable()
from repro.kernels.recipes import registry_program_hashes
from repro.poly import memo

t0 = time.perf_counter()
hashes = registry_program_hashes()
elapsed = time.perf_counter() - t0

stats = memo.stats()
hist = telemetry.snapshot()["histograms"].get("poly.fm.constraints_in", {})
print(json.dumps({
    "seconds": elapsed,
    "hashes": hashes,
    "memo": stats["totals"],
    "fm_eliminations": telemetry.counter_value("poly.fm.eliminations"),
    "fm_constraints": hist,
}))
"""


def _run_build(cache: str) -> dict:
    env = dict(os.environ)
    env["REPRO_POLY_CACHE"] = cache
    env["REPRO_NO_CACHE"] = "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_compile_cache_speedup(benchmark, request):
    """Cold >= 3x vs the ``REPRO_POLY_CACHE=off`` oracle, with
    byte-identical program hashes in both modes."""
    baseline = _run_build("off")
    cold = benchmark.pedantic(lambda: _run_build("on"), rounds=1, iterations=1)

    # Differential guarantee — always enforced, benchmarks disabled or not.
    assert len(baseline["hashes"]) == 43
    assert cold["hashes"] == baseline["hashes"]

    cold_speedup = baseline["seconds"] / cold["seconds"]
    benchmark.extra_info.update(
        {
            "programs": len(baseline["hashes"]),
            "baseline_seconds": round(baseline["seconds"], 3),
            "cold_seconds": round(cold["seconds"], 3),
            "cold_speedup": round(cold_speedup, 2),
            "cold_memo": cold["memo"],
            "baseline_fm_eliminations": baseline["fm_eliminations"],
            "cold_fm_eliminations": cold["fm_eliminations"],
            "baseline_fm_constraints": baseline["fm_constraints"],
        }
    )

    if request.config.getoption("benchmark_disable"):
        return  # smoke mode: differential checked, timing not asserted
    assert cold_speedup >= 3.0, f"cold build only {cold_speedup:.1f}x"
