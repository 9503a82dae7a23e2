"""Executing IR programs.

One engine, :mod:`repro.exec.compiled`: it compiles IR to one C function
per program, built by the loader of the machine model's C core, which
writes the memory-access and branch traces the machine model consumes
into ``int64`` buffers. It runs a :class:`~repro.ir.program.Program`
against concrete parameter values and named input arrays and returns a
:class:`RunResult`.

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
