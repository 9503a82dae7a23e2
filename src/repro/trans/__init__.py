"""Loop transformations: fusion, code sinking, FixDeps, tiling, skewing.

The pipeline mirrors the paper's Section 3:

1. :mod:`repro.trans.fusion` — embed K sibling perfect nests (within a
   common context of outer loops) into one fused iteration space (Eq. 2–4),
   producing a :class:`~repro.trans.model.FusedNest`;
2. :mod:`repro.trans.elim_ww_wr` — eliminate fusion-preventing flow/output
   dependences by collapsing (full-extent tiling) the offending dimensions
   of earlier nests, bottom-up (Fig. 2, lines 7–35);
3. :mod:`repro.trans.elim_rw` — eliminate fusion-preventing anti-dependences
   by array copying (Fig. 2, lines 36–48) with the paper's guard-
   simplification optimisation (line 6);
4. :mod:`repro.trans.fixdeps` — the FixDeps driver combining 2 and 3;
5. :mod:`repro.trans.tiling` / :mod:`repro.trans.skew` — standard cache
   tiling and skewing of the resulting perfect nest (Sec. 4).

Exports are lazy: the dependence analysis imports :mod:`repro.trans.model`,
and eager re-exports here would close an import cycle.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "FusedNest": ("repro.trans.model", "FusedNest"),
    "StmtGroup": ("repro.trans.model", "StmtGroup"),
    "NestEmbedding": ("repro.trans.fusion", "NestEmbedding"),
    "fuse_siblings": ("repro.trans.fusion", "fuse_siblings"),
    "fix_dependences": ("repro.trans.fixdeps", "fix_dependences"),
    "tile_program": ("repro.trans.tiling", "tile_program"),
    "skew_and_permute": ("repro.trans.skew", "skew_and_permute"),
    "unimodular_transform": ("repro.trans.unimodular", "unimodular_transform"),
    "sink_guards": ("repro.trans.sinking", "sink_guards"),
    "unswitch_invariant_guards": ("repro.trans.unswitch", "unswitch_invariant_guards"),
    "split_point_guards": ("repro.trans.splitting", "split_point_guards"),
    "propagate_guard_facts": ("repro.trans.cleanup", "propagate_guard_facts"),
    "scalarize_arrays": ("repro.trans.cleanup", "scalarize_arrays"),
    "distribute_loop": ("repro.trans.distribution", "distribute_loop"),
    "expand_scalar": ("repro.trans.expand", "expand_scalar"),
    "fully_permutable_under": ("repro.trans.legality", "fully_permutable_under"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module, attr = _EXPORTS[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module 'repro.trans' has no attribute {name!r}")


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.trans.fixdeps import fix_dependences
    from repro.trans.fusion import NestEmbedding, fuse_siblings
    from repro.trans.model import FusedNest, StmtGroup
    from repro.trans.sinking import sink_guards
    from repro.trans.skew import skew_and_permute
    from repro.trans.tiling import tile_program
