"""Executing IR programs.

One engine, :mod:`repro.exec.compiled`: it compiles IR to Python source
(the guides' "move the hot loop to compiled code" advice, applied to our
own IR) and can emit the memory-access and branch traces the machine model
consumes: one Python statement per IR statement per iteration, one
``list.append`` per trace event. It runs a
:class:`~repro.ir.program.Program` against concrete parameter values and
named input arrays and returns a :class:`RunResult`.

The tree-walking interpreter the compiler is tested against lives in the
tests (``tests/exec/interp.py``); :func:`assert_equivalent` is the one
execution-based equivalence check here.
"""

from repro.exec.events import Counters, RunResult, TraceBuffers
from repro.exec.compiled import CompiledProgram, run_compiled
from repro.exec.validate import assert_equivalent, compare_outputs

__all__ = [
    "Counters",
    "RunResult",
    "TraceBuffers",
    "CompiledProgram",
    "run_compiled",
    "assert_equivalent",
    "compare_outputs",
]
