"""Programs: declarations plus a statement body.

A :class:`Program` corresponds to one of the paper's kernels: symbolic
size parameters (``N``, ``M``), array declarations with affine extents,
scalar declarations, and a body which is a sequence of loop nests (and
possibly straight-line epilogue code, e.g. LU's peeled last iteration).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable

from repro.errors import IRError
from repro.ir.expr import ArrayRef, Expr, VarRef, as_expr, walk_expr
from repro.ir.stmt import Loop, Stmt, stmt_expressions, walk_stmts

#: Reserved words of the program text (any case): no name may be one.
KEYWORDS = frozenset({
    "program", "param", "real", "integer", "output", "begin", "end",
    "do", "if", "then", "else", "sqrt", "abs", "min", "max", "merge",
})

#: Supported element dtypes (numpy codes): the frontend's ``real`` and
#: ``integer``.
DTYPES = ("f8", "i8")


@dataclass(frozen=True)
class ArrayDecl:
    """Array with 1-based indexing and affine extents in the parameters.

    ``extents[d]`` is the inclusive upper index bound of dimension ``d``
    (Fortran ``A(N, N)`` style). Storage is column-major (first index
    fastest), matching the paper's Fortran kernels.
    """

    name: str
    extents: tuple[Expr, ...]
    dtype: str = "f8"

    def __post_init__(self) -> None:
        if not self.extents:
            raise IRError(f"array {self.name} needs at least one extent")
        if self.dtype not in DTYPES:
            raise IRError(f"array {self.name}: unsupported dtype {self.dtype}")
        object.__setattr__(self, "extents", tuple(as_expr(e) for e in self.extents))

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.extents)


@dataclass(frozen=True)
class ScalarDecl:
    """A scalar variable (paper: ``temp``, ``m``, ``norm`` ...)."""

    name: str
    dtype: str = "f8"

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise IRError(f"scalar {self.name}: unsupported dtype {self.dtype}")


@dataclass(frozen=True)
class Program:
    """A whole kernel.

    ``outputs`` names the arrays/scalars whose final values define the
    program's observable behaviour (Theorem 2's "input/output behaviour").
    """

    name: str
    params: tuple[str, ...]
    arrays: tuple[ArrayDecl, ...]
    scalars: tuple[ScalarDecl, ...] = ()
    body: tuple[Stmt, ...] = ()
    outputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "scalars", tuple(self.scalars))
        object.__setattr__(self, "body", tuple(self.body))
        outputs = tuple(self.outputs) or tuple(a.name for a in self.arrays)
        object.__setattr__(self, "outputs", outputs)
        self._check()

    # -- lookups ---------------------------------------------------------
    def array(self, name: str) -> ArrayDecl:
        """Declaration of array *name*."""
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"no array {name!r} in program {self.name}")

    def has_array(self, name: str) -> bool:
        """True iff *name* is a declared array."""
        return any(a.name == name for a in self.arrays)

    def scalar(self, name: str) -> ScalarDecl:
        """Declaration of scalar *name*."""
        for s in self.scalars:
            if s.name == name:
                return s
        raise KeyError(f"no scalar {name!r} in program {self.name}")

    def has_scalar(self, name: str) -> bool:
        """True iff *name* is a declared scalar."""
        return any(s.name == name for s in self.scalars)

    def loop_variables(self) -> frozenset[str]:
        """All loop variable names used anywhere in the body."""
        return frozenset(
            s.var for s in walk_stmts(self.body) if isinstance(s, Loop)
        )

    def all_names(self) -> frozenset[str]:
        """Every name in scope: params, arrays, scalars, loop variables."""
        return (
            frozenset(self.params)
            | frozenset(a.name for a in self.arrays)
            | frozenset(s.name for s in self.scalars)
            | self.loop_variables()
        )

    # -- rebuilding ---------------------------------------------------------
    def with_body(self, body: Iterable[Stmt]) -> "Program":
        """Copy with a replaced body."""
        return Program(
            self.name, self.params, self.arrays, self.scalars, tuple(body), self.outputs
        )

    def with_name(self, name: str) -> "Program":
        """Copy under a new name. The declarations and body are already
        checked, so only the name is."""
        if name.lower() in KEYWORDS:
            raise IRError(f"{name}: {name!r} is a keyword of the program text")
        renamed = copy.copy(self)
        object.__setattr__(renamed, "name", name)
        return renamed

    def adding_arrays(self, extra: Iterable[ArrayDecl]) -> "Program":
        """Copy with extra array declarations (for copy arrays ``H``)."""
        return Program(
            self.name,
            self.params,
            self.arrays + tuple(extra),
            self.scalars,
            self.body,
            self.outputs,
        )

    def adding_scalars(self, extra: Iterable[ScalarDecl]) -> "Program":
        """Copy with extra scalar declarations."""
        return Program(
            self.name,
            self.params,
            self.arrays,
            self.scalars + tuple(extra),
            self.body,
            self.outputs,
        )

    # -- validation ----------------------------------------------------------
    def _check(self) -> None:
        names: set[str] = set()
        for group in (self.params, [a.name for a in self.arrays], [s.name for s in self.scalars]):
            for n in group:
                if n in names:
                    raise IRError(f"duplicate declaration of {n!r} in {self.name}")
                names.add(n)
        loops = self.loop_variables()
        reserved = sorted(n for n in names | loops | {self.name} if n.lower() in KEYWORDS)
        if reserved:
            raise IRError(f"{self.name}: {reserved[0]!r} is a keyword of the program text")
        shadowed = sorted(loops.intersection(self.params))
        if shadowed:
            raise IRError(
                f"{self.name}: loop 'do {shadowed[0]}' shadows parameter {shadowed[0]!r}"
            )
        array_ranks = {a.name: a.rank for a in self.arrays}
        declared = (names - array_ranks.keys()) | loops
        for out in self.outputs:
            if out not in names:
                raise IRError(f"output {out!r} is not a declared array/scalar")
        for stmt in walk_stmts(self.body):
            for top in stmt_expressions(stmt):
                for node in walk_expr(top):
                    if isinstance(node, ArrayRef):
                        rank = array_ranks.get(node.name)
                        if rank is None:
                            raise IRError(
                                f"{self.name}: reference to undeclared array {node.name!r}"
                            )
                        if len(node.indices) != rank:
                            raise IRError(
                                f"{self.name}: {node.name} has rank {rank}, "
                                f"indexed with {len(node.indices)} subscripts"
                            )
                    elif isinstance(node, VarRef) and node.name not in declared:
                        if node.name in array_ranks:
                            raise IRError(
                                f"{self.name}: array {node.name!r} used as a scalar"
                            )
                        raise IRError(
                            f"{self.name}: reference to undeclared name {node.name!r}"
                        )

    def __str__(self) -> str:
        from repro.ir.printer import pretty

        return pretty(self)
