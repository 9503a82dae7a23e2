"""The paper's four kernels (Fig. 1): LU with partial pivoting, QR
(Householder-style column norms), Cholesky, and Jacobi.

Each kernel module exposes the same surface:

- ``SOURCE`` — the Figure-1 listing, in the frontend's paper notation;
- ``sequential()`` — that listing parsed (once per process);
- ``fusable()`` — the (possibly peeled/distributed) equivalent program the
  fusion step consumes, derived from ``sequential()`` by transforms;
- ``make_inputs(params, rng)`` — well-conditioned random inputs;
- ``reference(params, inputs)`` — an independent numpy implementation.

The fused (Figure 3), fixed (Figure 4) and tiled (Section 4) variants are
recipes in :mod:`repro.kernels.recipes`: build them with
``build_variant(kernel, variant)`` or ``build_fused_nest(kernel)``. All
variants are validated against each other by the test suite (the
executable Theorems 1–2).
"""

from repro.kernels.registry import (
    ALL_KERNELS,
    EXTENSION_KERNELS,
    KERNELS,
    get_kernel,
    get_recipe,
    variants_for,
)

__all__ = [
    "ALL_KERNELS",
    "EXTENSION_KERNELS",
    "KERNELS",
    "get_kernel",
    "get_recipe",
    "variants_for",
]
