"""Legality proofs for the Section-4 reorderings.

These tests prove the tiled kernels' reorderings legal wherever the
dependences are affine:

- Cholesky: the (kt, j, k, i) tiling needs the (k, j) band permutable;
- QR: the (it, jt, i, j, k) tiling needs the (i, j) band permutable;
- Jacobi: raw time tiling is illegal; after the paper's skew the nest
  FixDeps emits is proven fully permutable, and the registry's tiled
  recipe skews exactly that nest. Scalarizing ``L`` makes every
  iteration reuse one scalar, whose output and anti dependences no skew
  can orient, so the recipe scalarizes after skewing and tiling;
- LU: the pivot machinery is non-affine — the conservative analysis must
  *refuse* to prove it (the reference tests in ``test_fixdeps_kernels``
  cover LU's tiling at sizes spanning several tiles);
- a user kernel (``shift_scale``): its fixed 1-D nest is proven fully
  permutable, so strip-mining it is legal.

Every answer comes from the one check, :func:`fully_permutable_under`.
"""

import pytest

from repro.deps.selfdeps import self_dependences
from repro.ir.stmt import Loop
from repro.kernels import lu
from repro.kernels.recipes import build_variant, get_recipe
from repro.kernels.registry import get_kernel
from repro.pipeline.manager import PassManager
from repro.pipeline.passes import PassContext, Scalarize, SkewPermute
from repro.pipeline.recipe import VariantRecipe
from repro.poly.constraint import eq0, ge0
from repro.poly.integer import integer_feasible
from repro.trans.legality import fully_permutable_under
from repro.trans.skew import matmul, permutation_matrix, skew_matrix
from tests.trans import shift_scale

IDENT3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


PAPER_SKEW = matmul(
    permutation_matrix((1, 2, 0)),
    skew_matrix(3, {1: {0: 1}, 2: {0: 1}}),
)


def _jacobi_fixed(scalarized: bool):
    """The fixed Jacobi nest, with or without the recipe's final
    ``Scalarize(("L",))``."""
    recipe = get_recipe("jacobi", "fixed")
    assert isinstance(recipe.passes[-1], Scalarize)
    passes = recipe.passes if scalarized else recipe.passes[:-1]
    ctx = PassContext(kernel=get_kernel("jacobi"))
    program, _ = PassManager().build(VariantRecipe("jacobi", "fixed", passes), ctx)
    return program.body[-1]


@pytest.fixture(scope="module")
def jacobi_nest():
    return _jacobi_fixed(scalarized=False)


@pytest.fixture(scope="module")
def cholesky_nest():
    return build_variant("cholesky", "fixed").body[0]


class TestSelfDependences:
    def test_cholesky_dep_inventory(self, cholesky_nest):
        deps = self_dependences(cholesky_nest)
        assert deps, "Cholesky carries dependences"
        kinds = {d.kind for d in deps}
        assert kinds == {"flow", "anti", "output"}

    def test_components_are_lex_nonnegative(self, cholesky_nest):
        # No component holds an instance whose sink runs before its source.
        for dep in self_dependences(cholesky_nest):
            diffs = [dep.sink_minus_source(d) for d in range(3)]
            for poly in dep.polys:
                for level in range(3):
                    earlier_equal = [eq0(diffs[d]) for d in range(level)]
                    backwards = ge0(-diffs[level] - 1)
                    probe = poly.with_constraints(earlier_equal + [backwards])
                    assert not integer_feasible(probe)

    def test_jacobi_time_carried_dependence(self, jacobi_nest):
        # some dependence is carried by t with a negative space component —
        # the reason raw time tiling is illegal.
        def carried_backwards(dep, poly):
            t, i, j = (dep.sink_minus_source(d) for d in range(3))
            return any(
                integer_feasible(poly.with_constraints([ge0(t - 1), ge0(-s - 1)]))
                for s in (i, j)
            )

        assert any(
            carried_backwards(d, p)
            for d in self_dependences(jacobi_nest)
            for p in d.polys
        )


class TestCholesky:
    def test_interchange_j_k_proven(self, cholesky_nest):
        # fully permutable after the interchange, hence the interchange is legal
        U = permutation_matrix((1, 0, 2))
        assert fully_permutable_under(cholesky_nest, U)

    def test_fully_permutable(self, cholesky_nest):
        assert fully_permutable_under(cholesky_nest, IDENT3)


class TestQR:
    def test_tiling_band_i_j_permutable(self):
        nest = build_variant("qr", "fixed").body[0]
        assert fully_permutable_under(nest, IDENT3, band=[0, 1])
        # the full band (identity map) is declined: k is not permutable
        # with (i, j)
        assert not fully_permutable_under(nest, IDENT3, band=[0, 1, 2])

    def test_k_not_interchangeable_to_front(self):
        nest = build_variant("qr", "fixed").body[0]
        # moving k outermost reverses the X flow dependences: the new
        # outermost level alone carries a negative distance.
        U = permutation_matrix((2, 0, 1))
        assert not fully_permutable_under(nest, U, band=[0])


class TestJacobi:
    def test_raw_not_permutable(self, jacobi_nest):
        assert not fully_permutable_under(jacobi_nest, IDENT3)

    def test_paper_skew_proven_permutable(self, jacobi_nest):
        assert fully_permutable_under(jacobi_nest, PAPER_SKEW)

    def test_registry_skew_input_proven(self):
        # The registry's tiled recipe skews the FixDeps output: run its
        # passes up to SkewPermute and prove the skew on exactly the nest
        # that pass rewrites.
        recipe = get_recipe("jacobi", "tiled")
        [at] = [i for i, p in enumerate(recipe.passes) if isinstance(p, SkewPermute)]
        skew = recipe.passes[at]
        assert skew.skews == {1: {0: 1}, 2: {0: 1}} and skew.order == (1, 2, 0)
        ctx = PassContext(kernel=get_kernel("jacobi"))
        program, _ = PassManager().build(
            VariantRecipe("jacobi", "tiled", recipe.passes[:at]), ctx
        )
        [nest] = [s for s in program.body if isinstance(s, Loop) and s.var == skew.nest]
        assert fully_permutable_under(nest, PAPER_SKEW)

    def test_skew_without_permute_also_permutable(self, jacobi_nest):
        U = skew_matrix(3, {1: {0: 1}, 2: {0: 1}})
        assert fully_permutable_under(jacobi_nest, U)

    def test_scalarized_nest_not_provable(self):
        # After Scalarize, l_s is written and read at every (t, i, j): its
        # output and anti dependences run in every direction, so no
        # unimodular map makes the band permutable. The skew stays legal
        # for the scalarized program because each l_s value is consumed in
        # the iteration that produces it, which this proof cannot see.
        nest = _jacobi_fixed(scalarized=True)
        assert not fully_permutable_under(nest, PAPER_SKEW)


class TestLU:
    def test_conservative_analysis_declines(self):
        nest = build_variant("lu", "fixed").body[0]
        # With the fuzzy pivot row, the analysis must not *prove* the
        # k-tiling band (nor the full band) permutable.
        for band in ([0, 1], [0, 1, 2]):
            assert not fully_permutable_under(
                nest, IDENT3, band=band, value_ranges=lu.VALUE_RANGES
            )


class TestShiftScale:
    def test_fixed_nest_fully_permutable(self):
        fixed = shift_scale.fixed()
        (nest,) = fixed.body
        assert fully_permutable_under(nest, permutation_matrix(range(1)), range(1))
