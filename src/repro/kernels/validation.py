"""Tolerances for comparing a kernel variant's outputs with its numpy
reference.

Reordered variants are not bitwise equal to the numpy reference, so the
comparison is ``np.allclose`` at these tolerances. The variant matrix that
checks every variant against the reference (the executable Theorems 1–2)
lives in the tests.
"""

#: Relative tolerance for fp comparisons across reordered variants.
RTOL = 1e-8
ATOL = 1e-10
