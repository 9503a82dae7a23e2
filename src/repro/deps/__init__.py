"""Dependence analysis over fused programs.

Implements the paper's Eq. 5–6: the sets of flow (``WR``), output (``WW``)
and anti (``RW``) dependences that loop fusion *violates*, computed as
parametric integer sets over (context, source iteration, sink iteration).
Violations are evaluated against each group's **execution relation**, so
rounds of ``ElimWW_WR`` see the effect of earlier tiling.
"""

from repro.deps.access import Reference, extract_references
from repro.deps.fusionpreventing import Violation, violated_dependences
from repro.deps.distances import collapse_dims

__all__ = [
    "Reference",
    "extract_references",
    "Violation",
    "violated_dependences",
    "collapse_dims",
]
