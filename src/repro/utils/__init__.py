"""Small shared utilities: naming and text tables."""

from repro.utils.naming import NameGenerator, fresh_name
from repro.utils.tables import render_table

__all__ = [
    "NameGenerator",
    "fresh_name",
    "render_table",
]
