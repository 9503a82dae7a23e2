"""Cross-variant validation: the executable Theorems 1–2.

``validate_kernel`` runs every variant of a kernel (sequential, fusable,
fused-unfixed, fixed, tiled at several tile sizes) against the numpy
reference on deterministic inputs and reports which agree. The *fused*
variant is expected to diverge exactly when the kernel has
fusion-preventing dependences — that expectation is part of the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.exec.compiled import run_compiled
from repro.kernels.recipes import build_fused_nest, build_variant
from repro.kernels.registry import get_kernel
from repro.kernels.validation import ATOL, RTOL


@dataclass(frozen=True)
class VariantCheck:
    """Outcome for one (variant, size) pair."""

    variant: str
    n: int
    tile: int | None
    matches_reference: bool


@dataclass(frozen=True)
class ValidationMatrix:
    """All checks for one kernel."""

    kernel: str
    checks: tuple[VariantCheck, ...]
    #: True when the raw fusion is (correctly) not equivalent for some size.
    fusion_requires_fixing: bool

    def all_fixed_variants_valid(self) -> bool:
        """Every non-'fused' variant matched the reference everywhere."""
        return all(c.matches_reference for c in self.checks if c.variant != "fused")

    def failures(self) -> list[VariantCheck]:
        """Non-'fused' checks that diverged (should be empty)."""
        return [
            c for c in self.checks if c.variant != "fused" and not c.matches_reference
        ]


def _matches(mod, program, params, inputs) -> bool:
    ref = mod.reference(params, inputs)
    out = run_compiled(program, params, inputs)
    for name in program.outputs:
        if name not in ref:
            continue
        if not np.allclose(out.arrays[name], ref[name], rtol=RTOL, atol=ATOL):
            return False
    return True


def validate_kernel(
    kernel: str,
    sizes: tuple[int, ...] = (6, 9, 13),
    tiles: tuple[int, ...] = (3, 5),
) -> ValidationMatrix:
    """Run the full variant matrix for *kernel*."""
    mod = get_kernel(kernel)
    checks: list[VariantCheck] = []
    fused_diverged = False

    programs: list[tuple[str, int | None, object]] = [
        ("sequential", None, mod.sequential()),
        ("fusable", None, mod.fusable()),
        ("fused", None, build_fused_nest(kernel).to_program()),
        ("fixed", None, build_variant(kernel, "fixed")),
    ]
    programs.extend(
        ("tiled", t, build_variant(kernel, "tiled", tile=t)) for t in tiles
    )

    for n in sizes:
        params = {"N": n}
        if "M" in mod.PARAMS:
            params["M"] = 4
        inputs = mod.make_inputs(params)
        for variant, tile, program in programs:
            ok = _matches(mod, program, params, inputs)
            checks.append(VariantCheck(variant, n, tile, ok))
            if variant == "fused" and not ok:
                fused_diverged = True
    return ValidationMatrix(
        kernel=kernel,
        checks=tuple(checks),
        fusion_requires_fixing=fused_diverged,
    )


@pytest.mark.parametrize("kernel", ["cholesky", "jacobi"])
def test_validation_matrix(kernel):
    matrix = validate_kernel(kernel, sizes=(7, 10), tiles=(3,))
    assert matrix.all_fixed_variants_valid()
    assert matrix.failures() == []


def test_jacobi_fusion_requires_fixing():
    matrix = validate_kernel("jacobi", sizes=(8,), tiles=(3,))
    assert matrix.fusion_requires_fixing


def test_cholesky_fusion_already_legal():
    matrix = validate_kernel("cholesky", sizes=(8,), tiles=(3,))
    assert not matrix.fusion_requires_fixing


def test_checks_shape():
    matrix = validate_kernel("cholesky", sizes=(6, 9), tiles=(3, 5))
    # 4 base variants + 2 tiled, per size
    assert len(matrix.checks) == 2 * 6
    assert isinstance(matrix, ValidationMatrix)
    variants = {c.variant for c in matrix.checks}
    assert variants == {"sequential", "fusable", "fused", "fixed", "tiled"}
