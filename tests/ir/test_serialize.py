"""A program's saved form is its text: ``parse_program(str(p)) == p``.

The JSON dict of :mod:`repro.ir.serialize` is only the document behind
``program_fingerprint``; nothing reads it back.
"""

import json

import pytest

from repro.errors import IRError, ParseError
from repro.frontend import parse_program
from repro.ir.serialize import program_to_dict
from repro.kernels.recipes import build_fused_nest, build_variant
from repro.kernels.registry import KERNELS, get_kernel


def reread(program):
    return parse_program(str(program))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("variant", ["sequential", "fixed", "tiled"])
def test_kernel_variants_roundtrip(kernel, variant):
    if variant == "sequential":
        program = get_kernel(kernel).sequential()
    else:
        program = build_variant(kernel, variant, tile=5 if variant == "tiled" else None)
    assert reread(program) == program


def test_select_survives():
    from repro.ir.expr import Select, walk_expr
    from repro.ir.stmt import stmt_expressions, walk_stmts
    from repro.trans.elim_rw import eliminate_rw
    from repro.trans.elim_ww_wr import eliminate_ww_wr

    prepared = eliminate_ww_wr(build_fused_nest("jacobi")).nest
    with_selects = eliminate_rw(prepared, simplify=False).nest.to_program()
    selects = [
        e
        for s in walk_stmts(with_selects.body)
        for top in stmt_expressions(s)
        for e in walk_expr(top)
        if isinstance(e, Select)
    ]
    assert selects
    assert "merge(" in str(with_selects)
    assert reread(with_selects) == with_selects


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
    q = reread(p)
    assert q == p
    const = q.body[0].body[0].value
    assert isinstance(const.value, float)


def test_pretty_json_readable():
    from repro.kernels import cholesky

    text = json.dumps(program_to_dict(cholesky.sequential()), indent=2)
    assert '"kind": "loop"' in text


def test_bad_kind_rejected():
    from repro.kernels import cholesky

    text = str(cholesky.sequential()).replace("begin", "begin\n  goto 10", 1)
    with pytest.raises(ParseError):
        parse_program(text)


def test_validation_runs_on_load():
    from repro.kernels import cholesky

    # drop the declaration: body references become invalid
    text = "\n".join(
        line for line in str(cholesky.sequential()).splitlines() if "real A(" not in line
    )
    with pytest.raises(IRError):
        parse_program(text)
