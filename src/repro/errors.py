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
    """Enumeration met a variable with no lower or no upper bound."""


class CaseSplitError(PolyhedronError):
    """An integer-exact elimination (``require_exact``) met a non-unit
    coefficient, so the rational shadow may contain non-integer points."""


class DependenceError(ReproError):
    """Dependence analysis could not complete (e.g. non-affine subscript)."""


class TransformError(ReproError):
    """A loop transformation is inapplicable or would be illegal."""


class ExecutionError(ReproError):
    """Runtime failure while executing an IR program."""


class MachineError(ReproError):
    """Invalid machine-model configuration or simulation failure."""


class ValidationError(ReproError):
    """Two programs expected to be equivalent produced different results."""
