"""The recipe registry: coverage, engine agreement, golden names."""

import pytest

from repro.errors import ExecutionError, ReproError
from repro.kernels import recipes
from repro.kernels.registry import ALL_KERNELS, get_kernel, variants_for
from repro.pipeline import PassContext
from tests.exec.interp import crosscheck_engines
from tests.pipeline.verify import VERIFY_PARAMS, verify_recipe

ALL_PAIRS = [
    (kernel, variant)
    for kernel in ALL_KERNELS
    for variant in variants_for(kernel)
]


def _params(kernel):
    return {p: VERIFY_PARAMS[p] for p in get_kernel(kernel).PARAMS}


def test_every_kernel_has_the_standard_grid():
    for kernel in ("lu", "qr", "cholesky", "jacobi"):
        assert variants_for(kernel) == (
            "seq", "fused", "fixed", "tiled", "tiled_sunk"
        )
    # the extension stencil has no fusion stage
    assert variants_for("gauss_seidel") == ("seq", "tiled", "tiled_sunk")


@pytest.mark.parametrize("kernel,variant", ALL_PAIRS)
def test_engines_agree_on_every_recipe(kernel, variant):
    """Tier-1 acceptance: for every registered (kernel x recipe) the
    compiled engine and the interpreter agree on outputs *and* event
    counts at small N.

    The one exception is QR's *unfixed* fused program: broken by design
    (the paper's fusion-preventing dependences), it divides by a
    not-yet-computed pivot and cannot execute at all.
    """
    program = recipes.build_variant(kernel, variant, tile=3)
    params = _params(kernel)
    inputs = get_kernel(kernel).make_inputs(params)
    try:
        crosscheck_engines(program, params, inputs)
    except ExecutionError:
        assert (kernel, variant) == ("qr", "fused")


#: Boundaries that cannot execute: QR's fused program, from Fuse until
#: FixDeps restores the semantics, divides by a not-yet-computed pivot.
UNTRUSTED_SKIPS = {
    ("qr", "fused"): ["Fuse", "ToProgram"],
    ("qr", "fixed"): ["Fuse"],
    ("qr", "tiled"): ["Fuse"],
    ("qr", "tiled_sunk"): ["Fuse"],
}


@pytest.mark.parametrize("kernel,variant", ALL_PAIRS)
def test_verified_build_passes(kernel, variant):
    """verify_recipe accepts every registered recipe: every boundary is
    verified, except the untrusted (semantics-broken) boundaries whose
    program cannot execute; those are recorded as skipped."""
    ctx = PassContext(kernel=get_kernel(kernel), tile=3)
    skipped = verify_recipe(recipes.get_recipe(kernel, variant), ctx)
    assert [name for name, _ in skipped] == UNTRUSTED_SKIPS.get((kernel, variant), [])
    assert all("runtime failure" in error for _, error in skipped)


GOLDEN_NAMES = {
    ("lu", "seq"): "lu_seq",
    ("lu", "fused"): "lu_fusable_fused",
    ("lu", "fixed"): "lu_fixed",
    ("lu", "tiled"): "lu_tiled",
    ("lu", "tiled_sunk"): "lu_tiled",
    ("qr", "fixed"): "qr_fixed",
    ("qr", "tiled"): "qr_tiled",
    ("cholesky", "fixed"): "cholesky_fixed",
    ("cholesky", "tiled"): "cholesky_tiled",
    ("jacobi", "fused"): "jacobi_seq_fused",
    ("jacobi", "fixed"): "jacobi_fixed",
    ("jacobi", "tiled"): "jacobi_tiled",
    ("gauss_seidel", "tiled"): "gauss_seidel_tiled",
}


@pytest.mark.parametrize("pair,name", sorted(GOLDEN_NAMES.items()))
def test_program_names_preserved(pair, name):
    """PerfReports key on program names; recipes must reproduce them."""
    assert recipes.build_variant(*pair).name == name


def test_unknown_kernel_and_variant():
    with pytest.raises(ReproError, match="unknown kernel"):
        recipes.get_recipe("spqr", "seq")
    with pytest.raises(ReproError, match="unknown variant"):
        recipes.get_recipe("lu", "bogus")


def test_fused_nest_helper():
    from repro.trans.model import FusedNest

    assert isinstance(recipes.build_fused_nest("lu"), FusedNest)
    with pytest.raises(ReproError):
        recipes.build_fused_nest("gauss_seidel")  # no fused variant
