"""Round-trip tests for JSON serialisation."""

import pytest

from repro.errors import IRError
from repro.ir.serialize import dumps, loads, program_from_dict, program_to_dict
from repro.kernels.recipes import build_fused_nest, build_variant
from repro.kernels.registry import KERNELS, get_kernel


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("variant", ["sequential", "fixed", "tiled"])
def test_kernel_variants_roundtrip(kernel, variant):
    if variant == "sequential":
        program = get_kernel(kernel).sequential()
    else:
        program = build_variant(kernel, variant, tile=5 if variant == "tiled" else None)
    assert loads(dumps(program)) == program


def test_select_survives():
    from repro.trans.elim_rw import eliminate_rw
    from repro.trans.elim_ww_wr import eliminate_ww_wr

    prepared = eliminate_ww_wr(build_fused_nest("jacobi")).nest
    with_selects = eliminate_rw(prepared, simplify=False).nest.to_program()
    assert loads(dumps(with_selects)) == with_selects


def test_int_float_consts_distinguished():
    from repro.ir.builder import assign, idx, loop, sym
    from repro.ir.program import ArrayDecl, Program

    N = sym("N")
    p = Program(
        "c",
        ("N",),
        (ArrayDecl("A", (N,)),),
        (),
        (loop("i", 1, N, [assign(idx("A", sym("i")), 2.0)]),),
    )
    q = loads(dumps(p))
    assert q == p
    const = q.body[0].body[0].value
    assert isinstance(const.value, float)


def test_pretty_json_readable():
    from repro.kernels import cholesky

    text = dumps(cholesky.sequential(), indent=2)
    assert '"kind": "loop"' in text


def test_bad_kind_rejected():
    with pytest.raises(IRError):
        program_from_dict(
            {
                "name": "x",
                "params": [],
                "arrays": [],
                "scalars": [],
                "outputs": [],
                "body": [{"kind": "goto"}],
            }
        )


def test_validation_runs_on_load():
    from repro.kernels import cholesky

    d = program_to_dict(cholesky.sequential())
    d["arrays"] = []  # drop declarations: body references become invalid
    with pytest.raises(IRError):
        program_from_dict(d)
