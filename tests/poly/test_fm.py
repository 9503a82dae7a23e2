"""Unit tests for Fourier–Motzkin elimination and projection."""

import pytest

from repro.errors import CaseSplitError, PolyhedronError
from repro.poly.constraint import eq0, ge, ge0, le
from repro.poly.enumerate import enumerate_points
from repro.poly.fm import project_onto
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

i, j, k, N = (LinExpr.var(v) for v in "ijkN")


def box(n=5):
    return Polyhedron(
        ("i", "j"), [ge(i, 1), le(i, n), ge(j, 1), le(j, n)]
    )


class TestEliminate:
    def test_eliminate_unknown_var(self):
        with pytest.raises(PolyhedronError, match="'z'"):
            project_onto(box(), ["i", "z"])

    def test_box_projection(self):
        p = project_onto(box(4), ["i"])
        assert p.variables == ("i",)
        assert p.contains({"i": 1}) and p.contains({"i": 4})
        assert not p.contains({"i": 5})

    def test_equality_substitution(self):
        p = Polyhedron(("i", "j"), [eq0(j - i - 1), ge(i, 1), le(j, 4)])
        out = project_onto(p, ["i"])
        # j = i + 1 <= 4  =>  i <= 3
        assert out.contains({"i": 3}) and not out.contains({"i": 4})

    def test_pairwise_combination(self):
        # i <= j and j <= 4  =>  i <= 4
        p = Polyhedron(("i", "j"), [ge0(j - i), ge0(LinExpr.const(4) - j)])
        out = project_onto(p, ["i"])
        assert out.contains({"i": 4}) and not out.contains({"i": 5})

    def test_require_exact_rejects_non_unit(self):
        p = Polyhedron(("i", "j"), [ge0(j * 2 - i), ge0(i - j * 2)])
        with pytest.raises(CaseSplitError):
            project_onto(p, ["i"], require_exact=True)

    def test_empty_detection_after_elimination(self):
        p = Polyhedron(("i", "j"), [ge(j, i + 1), le(j, i)])
        out = project_onto(p, ["i"])
        assert out.is_trivially_empty()


class TestProjectOnto:
    def test_projection_matches_enumeration(self):
        tri = Polyhedron(
            ("i", "j", "k"),
            [ge(i, 1), le(i, 4), ge(j, i), le(j, 4), ge(k, j), le(k, 4)],
        )
        proj = project_onto(tri, ["i", "j"])
        expected = {(p["i"], p["j"]) for p in enumerate_points(tri, {})}
        got = {(p["i"], p["j"]) for p in enumerate_points(proj, {})}
        assert got == expected

    def test_unknown_target_rejected(self):
        with pytest.raises(PolyhedronError):
            project_onto(box(), ["z"])

    def test_order_of_keep_respected(self):
        p = project_onto(box(), ["j", "i"])
        assert p.variables == ("j", "i")

    def test_parametric_projection(self):
        tri = Polyhedron(("i", "j"), [ge(i, 1), le(i, N), ge(j, i), le(j, N)])
        proj = project_onto(tri, ["j"])
        # j ranges 1..N (given N >= 1)
        assert proj.contains({"j": 1, "N": 1})
        assert not proj.contains({"j": 2, "N": 1})
