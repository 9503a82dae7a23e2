"""Declarative variant recipes and content fingerprints.

A :class:`VariantRecipe` is an ordered list of pass instances — the whole
definition of a kernel variant. Because every pass describes itself as
plain data, a recipe has a stable content **fingerprint**; combined with
the fingerprint of the *emitted program* and of the machine/sweep
configuration it yields the disk-cache key for measurements, replacing the
hand-bumped version tags the runner used to carry (stale-cache hazard: a
cost-semantics change that nobody remembered to bump past).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.ir.program import Program
from repro.pipeline.passes import TILE, Pass, Tile


def stable_hash(data: Any, *, length: int = 16) -> str:
    """Hex digest of any JSON-serialisable value (stable across runs)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:length]


@dataclass(frozen=True)
class VariantRecipe:
    """One kernel variant as an ordered list of passes."""

    kernel: str
    variant: str
    passes: tuple[Pass, ...]
    description: str = ""

    def describe(self) -> dict[str, Any]:
        """Plain-data form of the whole recipe."""
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "passes": [p.describe() for p in self.passes],
        }

    def fingerprint(self) -> str:
        """Content hash of the recipe definition."""
        return stable_hash(self.describe())

    @property
    def name(self) -> str:
        """``kernel/variant`` display name."""
        return f"{self.kernel}/{self.variant}"

    @property
    def takes_tile(self) -> bool:
        """Whether a :class:`Tile` pass reads the :data:`TILE` placeholder,
        i.e. whether the sweep's tile policy decides this recipe's build."""
        return any(
            isinstance(p, Tile) and TILE in p.sizes.values() for p in self.passes
        )


def program_fingerprint(program: Program) -> str:
    """Content hash of an emitted program (full JSON tree)."""
    from repro.ir import serialize

    return stable_hash(serialize.program_to_dict(program))


def machine_fingerprint(machine) -> str:
    """Content hash of a machine config: geometry, costs, registers.

    Any change to the cost model or cache shape changes the hash — cached
    measurements can never silently survive a semantics change.
    """
    from dataclasses import asdict

    return stable_hash(asdict(machine))


def tree_digest(root: Path) -> str:
    """Digest of every ``*.py`` and ``*.c`` file under *root*, with its
    relative path."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted([*root.rglob("*.py"), *root.rglob("*.c")]):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@functools.cache
def implementation_digest() -> str:
    """:func:`tree_digest` of the ``repro`` package: the executor, the
    machine model and its C core (``machine/native.c``), and everything
    else that turns a recipe into a report. Computed once per process, on
    first use."""
    return tree_digest(Path(__file__).resolve().parents[1])


def measurement_fingerprint(
    recipe: VariantRecipe,
    program: Program,
    machine,
    run_params: Mapping[str, Any],
) -> str:
    """The disk-cache key core for one measurement.

    ``run_params`` carries everything else that determines the numbers:
    problem size, tile edge, input seed, Jacobi's M, … The key also holds
    :func:`implementation_digest`, so an edit to the code that computes a
    report (a replay loop in C included) is never served a stale one.
    """
    return stable_hash(
        {
            "implementation": implementation_digest(),
            "recipe": recipe.describe(),
            "program": program_fingerprint(program),
            "machine": machine_fingerprint(machine),
            "run": dict(run_params),
        },
        length=20,
    )
