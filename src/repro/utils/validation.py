"""Argument-validation helpers used across the package."""

from __future__ import annotations

from typing import Any


def check_type(value: Any, types: type | tuple[type, ...], what: str) -> Any:
    """Raise ``TypeError`` unless *value* is an instance of *types*."""
    if not isinstance(value, types):
        names = (
            types.__name__
            if isinstance(types, type)
            else " | ".join(t.__name__ for t in types)
        )
        raise TypeError(f"{what} must be {names}, got {type(value).__name__}")
    return value


def check_positive_int(value: Any, what: str) -> int:
    """Raise unless *value* is an ``int`` > 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{what} must be positive, got {value}")
    return value
