"""FixDeps: the paper's top-level repair algorithm (Fig. 2, lines 1–6).

``P' = ElimWW_WR(P)`` then ``P'' = ElimRW(P')``: tiling first (so the
anti-dependence analysis sees the post-tiling execution order — Sec. 3.1.2
notes the elimination *relies* on the flow/output violations being gone),
then array copying with guard simplification (line 6).

One :class:`~repro.deps.fusionpreventing.DependenceSession` serves the
whole run: every ElimWW_WR round, ElimRW and the final verification ask
their dependence questions through it, so a question whose groups have
not changed since it was last asked is answered from the session. The
session is dropped when the run returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.deps.access import ValueRange
from repro.deps.fusionpreventing import DependenceSession, violated_dependences
from repro.errors import TransformError
from repro.ir.program import Program
from repro.trans.elim_rw import ElimRWResult, eliminate_rw
from repro.trans.elim_ww_wr import ElimWWWRResult, eliminate_ww_wr
from repro.trans.model import FusedNest


@dataclass(frozen=True)
class FixDepsReport:
    """The fixed nest and both phases' audit trails."""

    nest: FusedNest
    ww_wr: ElimWWWRResult
    rw: ElimRWResult

    def program(self, name: str | None = None) -> Program:
        """Emit the fixed program."""
        return self.nest.to_program(name)


def fix_dependences(
    nest: FusedNest,
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
    widen_copies: bool = True,
    verify: bool = True,
) -> FixDepsReport:
    """Eliminate every fusion-preventing dependence of *nest*.

    ``widen_copies`` is :func:`~repro.trans.elim_rw.eliminate_rw`'s: copy
    at every instance of a violating write (default) or only at the
    exactly-violating ones.

    With ``verify`` (default), the final nest is re-analysed and must be
    free of violations of any kind — the mechanical counterpart of the
    paper's Theorems 1 and 2. (The re-check skips reads already redirected
    to copy arrays, which is everything ``ElimRW`` rewrote.)
    """
    session = DependenceSession()
    ww = eliminate_ww_wr(
        nest, value_ranges=value_ranges, verify=verify, session=session
    )
    rw = eliminate_rw(
        ww.nest, value_ranges=value_ranges, widen_copies=widen_copies,
        session=session,
    )
    if verify:
        remaining = violated_dependences(
            rw.nest,
            ("flow", "output"),
            value_ranges=value_ranges,
            session=session,
        )
        # Copy statements in prologues are not re-analysed structurally (the
        # prologue is metadata), so flow/output violations re-appearing here
        # indicate a genuine bug.
        if remaining:
            raise TransformError(
                "FixDeps left flow/output violations: "
                + ", ".join(v.describe() for v in remaining)
            )
    return FixDepsReport(nest=rw.nest, ww_wr=ww, rw=rw)
