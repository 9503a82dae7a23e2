"""Boundary verification of a recipe by execution (Theorems 1–2).

:func:`verify_recipe` applies a recipe's passes one at a time and checks,
on a small-N instance of the context's kernel, at **every pass boundary**:

1. *engine agreement*: the compiled engine and the tree-walking interpreter
   produce the same outputs and event counts (:func:`crosscheck_engines`);
2. *semantic preservation*: the current program matches the recipe's
   source program wherever the pass chain so far is declared
   semantics-preserving. Fusion breaks semantics on purpose and ``FixDeps``
   restores them; boundaries between the two are only cross-checked,
   since measuring the broken fused program is part of the experiment.

A pass that claims ``preserve`` but miscompiles therefore fails at its own
boundary with a :class:`~repro.errors.ValidationError` naming it.
"""

from __future__ import annotations

from repro.errors import ExecutionError, TransformError, ValidationError
from repro.exec.validate import assert_equivalent
from repro.ir.program import Program
from repro.pipeline import BREAK, RESTORE, PassContext, VariantRecipe
from repro.trans.model import FusedNest
from tests.exec.interp import crosscheck_engines

#: Small-N parameter values the boundaries are checked at.
VERIFY_PARAMS = {"N": 9, "M": 3}


def verify_recipe(recipe: VariantRecipe, ctx: PassContext) -> list[tuple[str, str]]:
    """Check every boundary of *recipe*; return the skipped ones.

    An *untrusted* boundary (after a ``break`` pass, before the next
    ``restore``) may legitimately fail at runtime: QR's unfixed fused
    program divides by a not-yet-computed pivot. Such a crash is returned
    as ``(pass name, error)``; at a trusted boundary every failure raises.
    """
    if ctx.kernel is None:
        raise TransformError(f"verify_recipe({recipe.name}) needs a kernel module")
    params = {p: VERIFY_PARAMS[p] for p in ctx.kernel.PARAMS}
    inputs = ctx.kernel.make_inputs(params)
    value: Program | FusedNest | None = None
    source: Program | None = None
    trusted = True
    skipped: list[tuple[str, str]] = []
    for p in recipe.passes:
        value = p.apply(value, ctx)
        if p.semantics == BREAK:
            trusted = False
        elif p.semantics == RESTORE:
            trusted = True
        program = value.to_program() if isinstance(value, FusedNest) else value
        try:
            crosscheck_engines(program, params, inputs)
            if trusted and source is not None and program is not source:
                assert_equivalent(source, program, params, inputs)
        except ExecutionError as exc:
            if trusted:
                raise
            skipped.append((p.name, str(exc)))
        except ValidationError as exc:
            raise ValidationError(f"{recipe.name}, pass {p.name}: {exc}") from exc
        if source is None and isinstance(value, Program):
            source = value
    return skipped
