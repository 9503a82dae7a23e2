"""Differential guarantee of the analysis-layer cache.

The oracle is the memo bypassed (``tests/poly/memo_oracle.py``): with
every operation recomputing, the compiler must produce exactly the same
dependence graphs, FixDeps output and emitted programs as the cached
default. The 43 registry programs are pinned by the golden corpus, which
the oracle writes (``tests/golden``); the cold-build check here runs the
registry matrix in a subprocess, as a user process would see it, and
the dependence/FixDeps checks switch the memo in-process, clearing every
cache through ``clear_caches`` in between.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.poly import memo
from tests.poly.memo_oracle import MEMOIZE, bypass_memo

_CHILD = """
import json, sys
from repro.kernels.recipes import registry_program_hashes
json.dump(registry_program_hashes(), sys.stdout)
"""


def _cold_hashes(cache_dir: Path) -> dict[str, str]:
    """Registry hashes from a fresh process, analysis memo on, with the
    measurement disk cache enabled in *cache_dir*."""
    env = dict(os.environ)
    env.pop("REPRO_NO_CACHE", None)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.slow
def test_cold_registry_build_writes_nothing_to_disk(tmp_path):
    """The analysis memo lives in process only: building every registry
    program with the disk cache enabled leaves the cache directory empty."""
    assert len(_cold_hashes(tmp_path)) == 43
    assert list(tmp_path.iterdir()) == []


def _toggle(monkeypatch, mode: str) -> None:
    from repro.experiments import runner

    if mode == "on":
        monkeypatch.setattr(memo, "memoize", MEMOIZE)
    else:
        bypass_memo(monkeypatch)
    runner.clear_caches()


def test_dependence_graph_matches_oracle(monkeypatch):
    from repro.deps.graph import dependence_graph
    from repro.ir.builder import assign, idx, loop, sym

    N, i = sym("N"), sym("i")
    loops = [
        loop("i", 2, N, [
            assign(idx("B", i), idx("A", i - 1)),
            assign(idx("A", i), 3.0),
        ]),
        loop("i", 2, N, [
            assign(idx("A", i), idx("B", i - 1)),
            assign(idx("B", i), idx("A", i)),
            assign(idx("C", i), idx("C", i + 1)),
        ]),
    ]

    def edges() -> list:
        return [sorted(dependence_graph(l)) for l in loops]

    _toggle(monkeypatch, "on")
    cached = edges()
    _toggle(monkeypatch, "off")
    oracle = edges()
    assert cached == oracle
    assert any(e for e in oracle)  # non-vacuous


def test_fixdeps_output_matches_oracle(monkeypatch):
    from repro.ir.serialize import program_to_dict
    from repro.kernels.recipes import build_variant

    def fixed() -> list[str]:
        return [
            program_to_dict(build_variant(kernel, "fixed"))
            for kernel in ("lu", "qr", "cholesky")
        ]

    _toggle(monkeypatch, "on")
    cached = fixed()
    _toggle(monkeypatch, "off")
    oracle = fixed()
    assert cached == oracle


def test_violated_dependences_match_oracle(monkeypatch):
    from repro.deps.fusionpreventing import summarize, violated_dependences
    from repro.kernels.recipes import build_fused_nest

    def counts() -> list[dict[str, int]]:
        return [
            summarize(violated_dependences(build_fused_nest("jacobi"))),
            summarize(violated_dependences(build_fused_nest("qr"))),
        ]

    _toggle(monkeypatch, "on")
    cached = counts()
    _toggle(monkeypatch, "off")
    oracle = counts()
    assert cached == oracle and any(oracle)


def test_clear_caches_rebuilds_bit_identically(monkeypatch):
    """Satellite: a cleared process must rebuild exactly what it built
    before clearing (no state leaks through the analysis memos)."""
    from repro.experiments import runner
    from repro.ir.serialize import program_to_dict
    from repro.kernels.recipes import build_variant

    _toggle(monkeypatch, "on")
    first = program_to_dict(build_variant("lu", "tiled", tile=16))
    assert memo.stats()["memo_entries"] > 0
    runner.clear_caches()
    assert memo.stats()["memo_entries"] == 0
    assert memo.stats()["ops"] == {}
    second = program_to_dict(build_variant("lu", "tiled", tile=16))
    assert first == second
