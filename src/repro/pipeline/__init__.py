"""The pass-pipeline subsystem.

Two entry levels:

- :mod:`repro.pipeline.driver` — ``optimize_program``, the one-call
  Figure-1-in / tiled-code-out driver (fuse → FixDeps → scalarise → tile →
  un-sink), kept from the original flat module;
- the declarative layer — :class:`Pass` implementations wrapping
  :mod:`repro.trans` (:mod:`repro.pipeline.passes`),
  :class:`VariantRecipe` + content fingerprints
  (:mod:`repro.pipeline.recipe`), and :class:`PassManager` with per-pass
  timing/size evidence (:mod:`repro.pipeline.manager`). The bundled
  kernels' variants are recipes registered in :mod:`repro.kernels.recipes`.
"""

from repro.pipeline.driver import OptimizationResult, optimize_program
from repro.pipeline.manager import (
    IRStats,
    PassManager,
    PassRecord,
    PipelineReport,
    ir_stats,
)
from repro.pipeline.passes import (
    BREAK,
    PRESERVE,
    RESTORE,
    TILE,
    TIME_TILE,
    ExpandScalar,
    FixDeps,
    Fuse,
    FusionSpec,
    Pass,
    PassContext,
    Scalarize,
    SkewPermute,
    Source,
    Tile,
    ToProgram,
    UndoSinking,
)
from repro.pipeline.recipe import (
    VariantRecipe,
    machine_fingerprint,
    measurement_fingerprint,
    program_fingerprint,
    stable_hash,
)

__all__ = [
    "OptimizationResult",
    "optimize_program",
    "Pass",
    "PassContext",
    "PassManager",
    "PassRecord",
    "PipelineReport",
    "IRStats",
    "ir_stats",
    "VariantRecipe",
    "FusionSpec",
    "Source",
    "Fuse",
    "ToProgram",
    "FixDeps",
    "Scalarize",
    "ExpandScalar",
    "SkewPermute",
    "Tile",
    "UndoSinking",
    "TILE",
    "TIME_TILE",
    "PRESERVE",
    "BREAK",
    "RESTORE",
    "stable_hash",
    "program_fingerprint",
    "machine_fingerprint",
    "measurement_fingerprint",
]
