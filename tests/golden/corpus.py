"""The golden corpus: the stored answers of every registry recipe, and the
one comparison all corpus checks go through.

``corpus.json`` holds two maps:

- ``programs``: the :func:`~repro.pipeline.recipe.program_fingerprint` of
  each of the 43 programs of ``registry_build_matrix()``, keyed like
  :func:`~repro.kernels.recipes.registry_program_hashes`;
- ``recipes``: one entry per (kernel, variant), run at ``N=12`` (``M=3``
  for Jacobi), tile 4 for the tiled variants, on ``make_inputs`` seeded
  with ``default_rng(7)``. An entry stores the program fingerprint, a
  sha256 of the emitted Fortran text, the run's counters, sha256 digests
  of the encoded memory and branch traces, of every array (float64 bytes)
  and of the scalars, and the full ``PerfReport`` on ``octane2_scaled()``.
  A recipe that cannot execute stores ``{"error": <exception class>}``.

``regen.py`` writes the corpus from the oracle paths only. The tier-1
checks replay the production paths against it: :func:`check_run` runs
``cp.run()`` and :func:`check_report` streams the run through the machine
model, and both fail through :func:`assert_matches` with a unified diff
of the entry.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.errors import ExecutionError
from repro.exec.compiled import CompiledProgram
from repro.exec.events import RunResult
from repro.experiments.runner import build_program
from repro.ir.printer import pretty
from repro.ir.program import Program
from repro.kernels.registry import ALL_KERNELS, get_kernel, variants_for
from repro.machine.configs import octane2_scaled
from repro.machine.perfcounters import measure_streaming
from repro.pipeline.recipe import program_fingerprint

CORPUS = Path(__file__).with_name("corpus.json")

N = 12
JACOBI_M = 3
TILE = 4
SEED = 7
#: A deliberately odd chunk size, so runs straddle chunk boundaries.
CHUNK_EVENTS = 97

#: Every registered (kernel, variant) pair, in registry order.
RECIPES = [(k, v) for k in ALL_KERNELS for v in variants_for(k)]


def label(kernel: str, variant: str) -> str:
    """The corpus key of one recipe."""
    return f"{kernel}/{variant}"


def instance(kernel: str, variant: str):
    """(program, params, inputs) of one recipe's corpus run."""
    tile = TILE if variant in ("tiled", "tiled_sunk") else None
    program, _, _ = build_program(kernel, variant, tile=tile)
    mod = get_kernel(kernel)
    params = {"N": N}
    if "M" in mod.PARAMS:
        params["M"] = JACOBI_M
    inputs = mod.make_inputs(params, np.random.default_rng(SEED))
    return program, params, inputs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_observables(program: Program, run: RunResult) -> dict:
    """Everything of one materialized run that the corpus pins, except the
    report."""
    return {
        "program": program_fingerprint(program),
        "source": _sha256(pretty(program).encode()),
        "counters": run.counters.as_dict(),
        "memory": _sha256(np.asarray(run.trace.memory, dtype=np.int64).tobytes()),
        "branches": _sha256(np.asarray(run.trace.branches, dtype=np.int64).tobytes()),
        "arrays": {
            name: _sha256(np.asarray(a, dtype=np.float64).tobytes())
            for name, a in run.arrays.items()
        },
        "scalars": _sha256(json.dumps(run.scalars, sort_keys=True).encode()),
    }


def dumps(data) -> str:
    """The corpus's one serialization: sorted keys, ``indent=1``."""
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def load() -> dict:
    """The committed corpus."""
    return json.loads(CORPUS.read_text())


def assert_matches(name: str, expected: dict, actual: dict) -> None:
    """Fail with a unified diff labelled *name* unless *actual* equals
    *expected* after a JSON round trip."""
    actual = json.loads(dumps(actual))
    if actual == expected:
        return
    diff = difflib.unified_diff(
        dumps(expected).splitlines(),
        dumps(actual).splitlines(),
        fromfile=f"corpus {name}",
        tofile=f"actual {name}",
        lineterm="",
    )
    raise AssertionError(f"{name} drifted from the golden corpus:\n" + "\n".join(diff))


@functools.cache
def _stored_recipes() -> dict:
    return load()["recipes"]


def _check(kernel: str, variant: str, how: str, actual: dict) -> None:
    stored = _stored_recipes()[label(kernel, variant)]
    expected = {key: stored.get(key) for key in actual}
    assert_matches(f"{label(kernel, variant)} ({how})", expected, actual)


def check_run(kernel: str, variant: str) -> None:
    """``cp.run()`` reproduces the stored program, source, counters and
    digests."""
    program, params, inputs = instance(kernel, variant)
    cp = CompiledProgram(program, trace=True)
    try:
        actual = run_observables(program, cp.run(params, inputs))
    except ExecutionError as exc:
        actual = {"error": type(exc).__name__}
    _check(kernel, variant, "run", actual)


def check_report(kernel: str, variant: str) -> None:
    """``measure_streaming`` on the production sinks reproduces the stored
    report."""
    program, params, inputs = instance(kernel, variant)
    cp = CompiledProgram(program, trace=True)
    try:
        _, report = measure_streaming(
            cp, params, octane2_scaled(), inputs, chunk_events=CHUNK_EVENTS
        )
        actual = {"report": report.as_dict()}
    except ExecutionError as exc:
        actual = {"error": type(exc).__name__}
    _check(kernel, variant, "report", actual)
