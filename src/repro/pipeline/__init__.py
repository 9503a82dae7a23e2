"""The pass-pipeline subsystem: the one way a program gets transformed.

:class:`Pass` implementations wrap :mod:`repro.trans`
(:mod:`repro.pipeline.passes`), :class:`VariantRecipe` + content
fingerprints (:mod:`repro.pipeline.recipe`) name a variant as a pass
sequence, and :class:`PassManager` runs it with per-pass timing/size
evidence (:mod:`repro.pipeline.manager`). The bundled kernels' variants
are recipes registered in :mod:`repro.kernels.recipes`; each tiled
recipe carries its kernel's schedule (the paper's Sec. 4: plain tiling,
or a skew + permutation for the stencils). No pass proves a schedule
legal: the tier-1 tests run :func:`repro.trans.legality.fully_permutable_under`
on each (``tests/trans/test_legality.py``,
``tests/kernels/test_gauss_seidel.py``); a small run agreeing proves
nothing.
"""

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
