"""The golden corpus itself: it covers the registry, the production build
reproduces its 43 program fingerprints and every recipe's materialized
run, and drift fails readably.

The streamed reports are replayed beside the machine model, in
``tests/machine/test_streaming_equivalence.py``. All replays compare
through :func:`tests.golden.corpus.assert_matches`.
"""

from __future__ import annotations

import copy

import pytest

from repro.kernels.recipes import registry_build_matrix, registry_program_hashes
from tests.golden import corpus


def test_corpus_covers_registry():
    data = corpus.load()
    assert len(data["programs"]) == len(registry_build_matrix()) == 43
    assert list(data["recipes"]) == sorted(corpus.label(k, v) for k, v in corpus.RECIPES)
    assert len(data["recipes"]) == 23
    broken = {k for k, e in data["recipes"].items() if "error" in e}
    assert broken == {"qr/fused"}
    assert data["recipes"]["qr/fused"] == {"error": "ExecutionError"}


def test_program_fingerprints_match_corpus():
    """The cached (memo on) build emits the 43 programs the oracle build
    (``REPRO_POLY_CACHE=off``) stored."""
    corpus.assert_matches("programs", corpus.load()["programs"], registry_program_hashes())


@pytest.mark.parametrize("kernel,variant", corpus.RECIPES)
def test_recipe_bit_identical(kernel, variant):
    """``cp.run()``: program, source, counters, traces, arrays, scalars."""
    corpus.check_run(kernel, variant)


def _changed_lines(err) -> list[str]:
    """The -/+ body lines of a failure's unified diff."""
    lines = str(err.value).splitlines()
    assert lines[1].startswith("--- corpus ") and lines[2].startswith("+++ actual ")
    assert lines[3].startswith("@@ ")
    return [line for line in lines[4:] if line[:1] in "+-"]


def test_drift_fails_with_unified_diff():
    """One changed character in a stored hash, or one changed report
    field, fails with a unified diff naming the label and the field."""
    stored = corpus.load()
    drifted = copy.deepcopy(stored)
    fingerprint = stored["programs"]["lu/tiled"]
    changed = fingerprint[:-1] + ("0" if fingerprint[-1] != "0" else "1")
    drifted["programs"]["lu/tiled"] = changed
    with pytest.raises(AssertionError, match="^programs drifted") as err:
        corpus.assert_matches("programs", drifted["programs"], stored["programs"])
    assert _changed_lines(err) == [
        f'- "lu/tiled": "{changed}",',
        f'+ "lu/tiled": "{fingerprint}",',
    ]

    entry = stored["recipes"]["cholesky/tiled"]
    drifted_entry = copy.deepcopy(entry)
    drifted_entry["report"]["l1_misses"] += 1
    with pytest.raises(AssertionError, match="^cholesky/tiled drifted") as err:
        corpus.assert_matches("cholesky/tiled", drifted_entry, entry)
    misses = entry["report"]["l1_misses"]
    assert _changed_lines(err) == [
        f'-  "l1_misses": {misses + 1},',
        f'+  "l1_misses": {misses},',
    ]
