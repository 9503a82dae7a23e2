"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class IRError(ReproError):
    """Malformed or unsupported IR construct."""


class ParseError(ReproError):
    """Error while parsing the mini-Fortran frontend syntax."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = f" at line {line}" if line is not None else ""
        loc += f", col {col}" if col is not None else ""
        super().__init__(f"{message}{loc}")


class NotAffineError(ReproError):
    """An expression that must be affine (bounds, subscripts) is not."""


class PolyhedronError(ReproError):
    """Invalid polyhedral operation (unknown variable, bad dimensionality)."""


class UnboundedError(PolyhedronError):
    """An optimisation over a polyhedron is unbounded."""


class CaseSplitError(PolyhedronError):
    """A parametric solution would require a case split the solver does not
    perform; callers should fall back to enumeration or refine constraints."""


class DependenceError(ReproError):
    """Dependence analysis could not complete (e.g. non-affine subscript)."""


class TransformError(ReproError):
    """A loop transformation is inapplicable or would be illegal."""


class ExecutionError(ReproError):
    """Runtime failure while interpreting an IR program."""


#: What a running program raises on a bad subscript, a division by zero or
#: a math domain error; both executors re-raise these as ExecutionError.
RUNTIME_FAILURES = (IndexError, KeyError, ZeroDivisionError, FloatingPointError, ValueError)


class MachineError(ReproError):
    """Invalid machine-model configuration or simulation failure."""


class ValidationError(ReproError):
    """Two programs expected to be equivalent produced different results."""
