"""repro — reproduction of Xue, Huang & Guo, "Enabling Loop Fusion and
Tiling for Cache Performance by Fixing Fusion-Preventing Data Dependences"
(ICPP 2005).

Layer map (bottom-up):

- :mod:`repro.poly` — exact integer polyhedra (FM elimination, integer
  feasibility): the isl/Omega substitute;
- :mod:`repro.ir` — FORTRAN-like loop-nest IR with a builder eDSL,
  printer (its text is the frontend grammar) and affine bridges;
- :mod:`repro.frontend` — a mini-Fortran text frontend for the IR;
- :mod:`repro.deps` — fusion-preventing dependence sets (paper Eq. 5–6);
- :mod:`repro.trans` — fusion, FixDeps (ElimWW_WR + ElimRW), tiling,
  skewing, peeling, scalar expansion, cleanups;
- :mod:`repro.pipeline` — variant recipes run pass by pass: the one
  transformation pipeline;
- :mod:`repro.exec` — the trace-emitting compiled executor;
- :mod:`repro.machine` — the simulated SGI Octane2 (caches, branch
  predictor, register window, perfex-style cost model);
- :mod:`repro.tilesize` — LRW and PDAT tile-size selection;
- :mod:`repro.kernels` — LU/QR/Cholesky/Jacobi, each its Figure-1
  listing in frontend notation, and every paper variant as a recipe;
- :mod:`repro.experiments` — the figure/table regeneration harness.

Quickstart::

    from repro.exec import run_compiled
    from repro.kernels import get_kernel
    from repro.kernels.recipes import build_variant

    program = build_variant("jacobi", "tiled", tile=8)
    params = {"N": 64, "M": 10}
    result = run_compiled(program, params,
                          get_kernel("jacobi").make_inputs(params))
"""

__version__ = "1.0.0"

from repro.errors import ReproError

__all__ = ["ReproError", "__version__"]
