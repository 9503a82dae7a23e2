"""The bundled kernels' variants as declarative pass recipes.

One table replaces five hand-rolled builder families: every standard
(kernel, variant) is a :class:`~repro.pipeline.recipe.VariantRecipe` built
here from the kernel modules' *definitions* (source programs, fusion
embeddings, value ranges) plus the Section-4 schedule data (tile orders,
skews), and is measurable by name as a
:func:`repro.experiments.runner.measure_points` point. The table is fixed;
a further variant — an alternate tile shape, an ablation — is a recipe
built where it is used and named by the point in place of the variant
name (see :mod:`repro.experiments.ablations`).

The standard variants mirror the paper:

- ``seq``        — the Figure-1 program;
- ``fused``      — the Figure-3 fused nest, emitted *without* fixing
  (semantically broken where fusion-preventing dependences exist);
- ``fixed``      — the Figure-4 program (FixDeps applied);
- ``tiled``      — Section 4: scalar expansion / skewing as needed, tiling,
  code-sinking undone;
- ``tiled_sunk`` — ``tiled`` with the sinking guards left in place (the
  code shape of the paper's Figures 7–8).
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ReproError
from repro.ir.program import Program
from repro.pipeline.manager import PassManager
from repro.pipeline.passes import (
    TILE,
    TIME_TILE,
    ExpandScalar,
    FixDeps,
    Fuse,
    Pass,
    PassContext,
    Scalarize,
    SkewPermute,
    Source,
    Tile,
    ToProgram,
    UndoSinking,
)
from repro.pipeline.recipe import VariantRecipe
from repro.trans.model import FusedNest

_REGISTRY: dict[str, dict[str, VariantRecipe]] | None = None


def _lu() -> Iterable[VariantRecipe]:
    from repro.kernels import lu

    fixed = (
        Source("fusable"),
        Fuse(lu.FUSION),
        FixDeps(rename="lu_fixed", value_ranges=lu.VALUE_RANGES),
    )
    # The pivot row is array-expanded over k before tiling: with k sunk
    # inside j, searches of different steps interleave with the lazy column
    # swaps, so each step needs its own pivot cell.
    tiled = (
        *fixed,
        ExpandScalar("m", "k", "N"),
        Tile({"k": TILE}, order=("kt", "j", "k", "i"), rename="lu_tiled"),
    )
    yield _recipe("lu", "seq", (Source("sequential"),), "Figure 1a")
    yield _recipe("lu", "fused", (Source("fusable"), Fuse(lu.FUSION), ToProgram()),
                  "Figure 3a (unfixed)")
    yield _recipe("lu", "fixed", fixed, "Figure 4a")
    yield _recipe("lu", "tiled", (*tiled, UndoSinking()), "Sec. 4, k-loop tiled")
    yield _recipe("lu", "tiled_sunk", tiled, "tiled, sinking guards kept")


def _qr() -> Iterable[VariantRecipe]:
    from repro.kernels import qr

    fixed = (Source("fusable"), Fuse(qr.FUSION), FixDeps(rename="qr_fixed"))
    tiled = (
        *fixed,
        Tile({"i": TILE, "j": TILE}, order=("it", "jt", "i", "j", "k"),
             rename="qr_tiled"),
    )
    yield _recipe("qr", "seq", (Source("sequential"),), "Figure 1b")
    yield _recipe("qr", "fused", (Source("fusable"), Fuse(qr.FUSION), ToProgram()),
                  "Figure 3b (unfixed)")
    yield _recipe("qr", "fixed", fixed, "Figure 4b")
    yield _recipe("qr", "tiled", (*tiled, UndoSinking()), "Sec. 4, i/j tiled")
    yield _recipe("qr", "tiled_sunk", tiled, "tiled, sinking guards kept")


def _cholesky() -> Iterable[VariantRecipe]:
    from repro.kernels import cholesky

    fixed = (
        Source("fusable"),
        Fuse(cholesky.FUSION),
        FixDeps(rename="cholesky_fixed"),
    )
    tiled = (
        *fixed,
        Tile({"k": TILE}, order=("kt", "j", "k", "i"), rename="cholesky_tiled"),
    )
    yield _recipe("cholesky", "seq", (Source("sequential"),), "Figure 1c")
    yield _recipe("cholesky", "fused",
                  (Source("fusable"), Fuse(cholesky.FUSION), ToProgram()),
                  "Figure 3c (already legal)")
    yield _recipe("cholesky", "fixed", fixed, "Figure 4c")
    yield _recipe("cholesky", "tiled", (*tiled, UndoSinking()),
                  "Sec. 4, k-loop tiled")
    yield _recipe("cholesky", "tiled_sunk", tiled, "tiled, sinking guards kept")


def _jacobi() -> Iterable[VariantRecipe]:
    from repro.kernels import jacobi

    fixdeps = (
        Source("sequential"),
        Fuse(jacobi.FUSION),
        FixDeps(rename="jacobi_fixed"),
    )
    fixed = (*fixdeps, Scalarize(("L",)))
    # Skew the space loops by time, move time innermost, tile all three.
    # The skew runs on the FixDeps output, the nest its legality proof
    # covers (the scalarized nest's l_s defeats the proof), and L is
    # scalarized last. The skewed nest carries no guards, so there is no
    # sinking to undo — ``tiled`` and ``tiled_sunk`` coincide for the
    # stencils.
    tiled = (
        *fixdeps,
        SkewPermute(
            skews={1: {0: 1}, 2: {0: 1}},
            order=(1, 2, 0),
            new_names=("ii", "jj", "tt"),
            rename="jacobi_skewed",
            nest="t",
        ),
        Tile(
            {"ii": TILE, "jj": TILE, "tt": TIME_TILE},
            order=("iit", "jjt", "ttt", "ii", "jj", "tt"),
            rename="jacobi_tiled",
            nest="ii",
        ),
        Scalarize(("L",)),
    )
    yield _recipe("jacobi", "seq", (Source("sequential"),), "Figure 1d")
    yield _recipe("jacobi", "fused",
                  (Source("sequential"), Fuse(jacobi.FUSION), ToProgram()),
                  "Figure 3d (unfixed)")
    yield _recipe("jacobi", "fixed", fixed, "Figure 4d, L scalarised")
    yield _recipe("jacobi", "tiled", tiled, "Sec. 4, skewed + time-tiled")
    yield _recipe("jacobi", "tiled_sunk", tiled, "alias of tiled (no guards)")


def _gauss_seidel() -> Iterable[VariantRecipe]:
    from repro.kernels import gauss_seidel as gs

    tiled = (
        Source("sequential"),
        SkewPermute(
            skews=gs.SKEWS,
            order=gs.ORDER,
            new_names=("tt", "ii", "jj"),
            rename="gauss_seidel_skewed",
            nest=0,
        ),
        Tile(
            {"tt": TIME_TILE, "ii": TILE, "jj": TILE},
            order=("ttt", "iit", "jjt", "tt", "ii", "jj"),
            rename="gauss_seidel_tiled",
            nest=0,
        ),
    )
    yield _recipe("gauss_seidel", "seq", (Source("sequential"),),
                  "in-place 4-point sweeps")
    yield _recipe("gauss_seidel", "tiled", tiled, "skewed + tiled (no fusion stage)")
    yield _recipe("gauss_seidel", "tiled_sunk", tiled, "alias of tiled (no guards)")


def _recipe(
    kernel: str, variant: str, passes: tuple[Pass, ...], description: str
) -> VariantRecipe:
    return VariantRecipe(kernel, variant, tuple(passes), description)


def _registry() -> dict[str, dict[str, VariantRecipe]]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {}
        for factory in (_lu, _qr, _cholesky, _jacobi, _gauss_seidel):
            for recipe in factory():
                _REGISTRY.setdefault(recipe.kernel, {})[recipe.variant] = recipe
    return _REGISTRY


def variants_for(kernel: str) -> tuple[str, ...]:
    """Registered variant names for *kernel* (standard grid order first)."""
    table = _registry().get(kernel)
    if table is None:
        raise ReproError(
            f"unknown kernel {kernel!r}; choose from {sorted(_registry())}"
        )
    return tuple(table)


def all_recipes() -> tuple[VariantRecipe, ...]:
    """Every registered recipe, kernels in registration order."""
    return tuple(r for table in _registry().values() for r in table.values())


def get_recipe(kernel: str, variant: str) -> VariantRecipe:
    """Look one recipe up; raises :class:`ReproError` with the choices."""
    table = _registry().get(kernel)
    if table is None:
        raise ReproError(
            f"unknown kernel {kernel!r}; choose from {sorted(_registry())}"
        )
    recipe = table.get(variant)
    if recipe is None:
        raise ReproError(
            f"unknown variant {variant!r} for {kernel}; "
            f"choose from {tuple(table)}"
        )
    return recipe


def build_variant(
    kernel: str,
    variant: str,
    *,
    tile: int | None = None,
    time_tile: int | None = None,
) -> Program:
    """Build one variant program through its registered recipe."""
    from repro.kernels.registry import get_kernel

    recipe = get_recipe(kernel, variant)
    ctx = PassContext(kernel=get_kernel(kernel), tile=tile, time_tile=time_tile)
    return PassManager().build(recipe, ctx)[0]


#: Extra tile edges (beyond the default) the registry build matrix covers
#: for the tiled variants — with the default-tile builds of all recipes
#: this yields the 43 registered program points tracked by the
#: differential tests and the golden corpus (``tests/golden/corpus.json``).
MATRIX_EXTRA_TILES = (16, 32)


def registry_build_matrix() -> tuple[tuple[str, str, int | None], ...]:
    """Every (kernel, variant, tile) build point of the full registry.

    All recipes at the default tile, plus each recipe that takes the
    sweep tile (:attr:`~repro.pipeline.recipe.VariantRecipe.takes_tile`)
    at :data:`MATRIX_EXTRA_TILES`.
    """
    points: list[tuple[str, str, int | None]] = [
        (r.kernel, r.variant, None) for r in all_recipes()
    ]
    for r in all_recipes():
        if r.takes_tile:
            for t in MATRIX_EXTRA_TILES:
                points.append((r.kernel, r.variant, t))
    return tuple(points)


def registry_program_hashes() -> dict[str, str]:
    """Content hash of every emitted program in the registry build matrix.

    The differential guarantee of the analysis-layer cache is stated over
    this mapping: it must be identical with the memo on and bypassed
    (``tests/poly/memo_oracle.py``). The golden corpus
    (``tests/golden/corpus.json``) stores it as built with the memo
    bypassed, and tier-1 compares the cached build to it.
    """
    from repro.pipeline.recipe import program_fingerprint

    out: dict[str, str] = {}
    for kernel, variant, tile in registry_build_matrix():
        program = build_variant(kernel, variant, tile=tile)
        label = f"{kernel}/{variant}" + ("" if tile is None else f"@t{tile}")
        out[label] = program_fingerprint(program)
    return out


def build_fused_nest(kernel: str) -> FusedNest:
    """Run the ``fused`` recipe up to (and including) its ``Fuse`` pass."""
    from repro.kernels.registry import get_kernel

    recipe = get_recipe(kernel, "fused")
    ctx = PassContext(kernel=get_kernel(kernel))
    value: Program | FusedNest | None = None
    for p in recipe.passes:
        value = p.apply(value, ctx)
        if isinstance(value, FusedNest):
            return value
    raise ReproError(f"recipe {recipe.name} never produced a fused nest")
