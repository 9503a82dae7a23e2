"""Executing IR programs.

Two engines with identical semantics:

- :mod:`repro.exec.interp` — a tree-walking interpreter; slow, simple,
  trusted. Used by tests as the semantic oracle.
- :mod:`repro.exec.compiled` — compiles IR to Python source (the guides'
  "move the hot loop to compiled code" advice, applied to our own IR);
  1–2 orders of magnitude faster and able to emit the memory-access and
  branch traces the machine model consumes. Itself two-tier: eligible
  innermost affine loops vectorize into whole-trip NumPy blocks
  (:mod:`repro.exec.blocktier`), guarded at runtime, bit-identical to the
  scalar tier, which ``CompiledProgram(exec_mode="scalar")`` selects as
  the differential oracle.

Both run a :class:`~repro.ir.program.Program` against concrete parameter
values and named input arrays, and return a :class:`RunResult`.
"""

from repro.exec.events import Counters, RunResult, TraceBuffers
from repro.exec.compiled import CompiledProgram, run_compiled
from repro.exec.interp import run_interpreted
from repro.exec.validate import assert_equivalent, compare_outputs

__all__ = [
    "Counters",
    "RunResult",
    "TraceBuffers",
    "CompiledProgram",
    "run_compiled",
    "run_interpreted",
    "assert_equivalent",
    "compare_outputs",
]
