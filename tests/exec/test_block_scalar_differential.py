"""The block tier against the scalar oracle.

Every registered recipe (all kernels x all variants, small N), run with
every eligible loop on the block tier, must reproduce the golden corpus
that the scalar tier and the per-access machine oracles wrote
(``tests/golden/regen.py``): the same encoded event streams, counters,
output arrays, scalars and ``PerfReport`` — that is the block tier's
entire correctness contract. QR's *unfixed* fused program is broken by
design (it divides by a not-yet-computed pivot); the corpus stores its
``ExecutionError``, and the block tier must raise it too. Hand-built
programs below pin the fallbacks against a live scalar run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.compiled import CompiledProgram
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program
from tests.golden import corpus

# min_block_trip=1 so even the short trips of the corpus's N=12 take the
# block path: the replay must exercise it, not skip it.
ALL_BLOCK = 1


@pytest.mark.parametrize("kernel,variant", corpus.RECIPES)
def test_recipe_bit_identical(kernel, variant):
    corpus.check_run(kernel, variant, min_block_trip=ALL_BLOCK)


@pytest.mark.parametrize("kernel,variant", corpus.RECIPES)
def test_recipe_perfreport_identical(kernel, variant):
    """Streaming through the machine model: the stored PerfReport."""
    corpus.check_report(kernel, variant, min_block_trip=ALL_BLOCK)


def test_block_tier_actually_engages():
    """The replays above are vacuous if nothing ever vectorizes: across
    the registered recipes a healthy number of loops must get a block path."""
    total = 0
    for kernel, variant in corpus.RECIPES:
        program, _, _ = corpus.instance(kernel, variant)
        total += CompiledProgram(
            program, trace=True, min_block_trip=ALL_BLOCK
        ).block_loops
    assert total >= 20


def _flat_program(body):
    return Program("t", ("N",), (ArrayDecl("A", (sym("N"),)),), (), tuple(body))


def test_non_affine_body_falls_back():
    """A quadratic subscript defeats the affine analysis: no block path."""
    i = sym("i")
    p = _flat_program([loop("i", 1, 3, [assign(idx("A", i * i), 1.0)])])
    cp = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=1)
    assert cp.block_loops == 0
    rs = CompiledProgram(p, trace=True, exec_mode="scalar").run({"N": 9})
    rb = cp.run({"N": 9})
    assert np.array_equal(rs.trace.memory, rb.trace.memory)
    assert np.array_equal(rs.arrays["A"], rb.arrays["A"])


def test_recurrence_guard_falls_back_at_runtime():
    """A(i) = A(i-1) + 1 is statically affine but carries a RAW dependence
    at distance 1: the loop compiles a block path, yet the runtime guard
    must route every entry to the scalar fallback — and stay exact."""
    i = sym("i")
    p = _flat_program(
        [loop("i", 2, sym("N"), [assign(idx("A", i), idx("A", i - 1) + 1.0)])]
    )
    cp = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=1)
    assert cp.block_loops == 1  # eligible at compile time...
    rb = cp.run({"N": 40})
    rs = CompiledProgram(p, trace=True, exec_mode="scalar").run({"N": 40})
    # ...but a blocked gather-all would read stale zeros; only the guard's
    # fallback produces the prefix sums.
    assert rb.arrays["A"][-1] == 39.0
    assert np.array_equal(rs.trace.memory, rb.trace.memory)
    assert np.array_equal(rs.arrays["A"], rb.arrays["A"])
    assert rs.counters == rb.counters


def test_independent_copy_takes_block_path():
    """B(i) = A(i) has no loop-carried dependence: the guard admits it and
    the vector path produces the scalar tier's exact event stream."""
    i = sym("i")
    p = Program(
        "copy",
        ("N",),
        (ArrayDecl("A", (sym("N"),)), ArrayDecl("B", (sym("N"),))),
        (),
        (loop("i", 1, sym("N"), [assign(idx("B", i), idx("A", i) * 2.0)]),),
    )
    a0 = np.arange(1.0, 33.0)
    cp = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=1)
    assert cp.block_loops == 1
    rb = cp.run({"N": 32}, {"A": a0})
    rs = CompiledProgram(p, trace=True, exec_mode="scalar").run({"N": 32}, {"A": a0})
    assert np.array_equal(rs.trace.memory, rb.trace.memory)
    assert np.array_equal(rs.arrays["B"], rb.arrays["B"])
    assert rs.counters == rb.counters


def test_exec_mode_resolution(monkeypatch):
    """The tier is a constructor argument only: no environment variable
    changes it, and an unknown tier is rejected."""
    p = _flat_program([loop("i", 1, sym("N"), [assign(idx("A", sym("i")), 1.0)])])
    monkeypatch.setenv("REPRO_EXEC_MODE", "scalar")
    cp = CompiledProgram(p, trace=True, min_block_trip=1)
    assert cp.exec_mode == "block" and cp.block_loops == 1
    assert CompiledProgram(p, exec_mode="scalar").exec_mode == "scalar"
    with pytest.raises(ExecutionError):
        CompiledProgram(p, exec_mode="vector")
