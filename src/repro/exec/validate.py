"""Program-equivalence checking (Theorems 1 and 2, executably).

The paper proves that ``FixDeps`` preserves input/output behaviour; we check
it by running the original and transformed programs on the same inputs and
comparing the declared outputs to floating-point tolerance. Transformations
that only reorder *independent* operations are bitwise-exact; reassociation
(none of ours reassociates reductions) would need the tolerance.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ValidationError
from repro.exec.compiled import CompiledProgram, build
from repro.exec.events import RunResult
from repro.ir.program import Program


def compare_outputs(
    a: RunResult,
    b: RunResult,
    outputs: tuple[str, ...],
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list[str]:
    """Differences between two runs' outputs; empty list means equivalent."""
    problems: list[str] = []
    for name in outputs:
        if name in a.arrays and name in b.arrays:
            left, right = a.arrays[name], b.arrays[name]
            if left.shape != right.shape:
                problems.append(f"{name}: shape {left.shape} vs {right.shape}")
            elif not np.allclose(left, right, rtol=rtol, atol=atol, equal_nan=True):
                bad = ~np.isclose(left, right, rtol=rtol, atol=atol, equal_nan=True)
                count = int(bad.sum())
                worst = float(np.nanmax(np.abs(left - right)))
                problems.append(
                    f"{name}: {count} elements differ (max abs diff {worst:.3e})"
                )
        elif name in a.scalars and name in b.scalars:
            if not np.isclose(a.scalars[name], b.scalars[name], rtol=rtol, atol=atol):
                problems.append(
                    f"{name}: scalar {a.scalars[name]} vs {b.scalars[name]}"
                )
        else:
            problems.append(f"{name}: missing from one of the runs")
    return problems


def assert_equivalent(
    original: Program,
    transformed: Program,
    params: Mapping[str, int],
    inputs: Mapping[str, np.ndarray] | None = None,
    *,
    outputs: tuple[str, ...] | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> None:
    """Run both programs and raise :class:`ValidationError` on divergence.

    ``outputs`` defaults to the original program's declared outputs; copy
    arrays introduced by ``ElimRW`` are therefore ignored automatically.
    """
    outs = outputs if outputs is not None else original.outputs
    engines = [CompiledProgram(p) for p in (original, transformed)]
    build(engines)  # one compiler call for both
    ra, rb = (cp.run(params, inputs) for cp in engines)
    problems = compare_outputs(ra, rb, outs, rtol=rtol, atol=atol)
    if problems:
        raise ValidationError(
            f"{original.name} vs {transformed.name} at {dict(params)}: "
            + "; ".join(problems)
        )
