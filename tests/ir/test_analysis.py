"""Unit tests for structural IR analyses."""

import pytest

from repro.errors import IRError
from repro.ir.analysis import (
    as_perfect_nest,
    is_perfect_loop_nest,
    iteration_domain,
    loop_bound_constraints,
    written_names,
)
from repro.ir.builder import assign, ceq, idx, if_, loop, sym, val
from repro.poly.enumerate import count_points

i, j, k, N = sym("i"), sym("j"), sym("k"), sym("N")


def update_nest():
    body = assign(idx("A", i, j), idx("A", i, j) - idx("A", i, k) * idx("A", k, j))
    return loop("j", k + 1, N, [loop("i", k + 1, N, [body])])


class TestPerfectNest:
    def test_depth_and_vars(self):
        nest = as_perfect_nest(update_nest())
        assert nest.depth == 2 and nest.loop_vars == ("j", "i")

    def test_depth_zero_for_assign(self):
        nest = as_perfect_nest(assign("x", 1))
        assert nest.depth == 0 and len(nest.body) == 1

    def test_is_perfect(self):
        assert is_perfect_loop_nest(update_nest())

    def test_imperfect_detected(self):
        imperfect = loop("j", 1, N, [assign("x", 0), loop("i", 1, N, [assign("x", 1)])])
        assert not is_perfect_loop_nest(imperfect)

    def test_nested_loop_in_body_detected(self):
        nest = loop("j", 1, N, [if_(ceq(j, 1), loop("i", 1, N, [assign("x", 1)]))])
        assert not is_perfect_loop_nest(nest)

    def test_non_unit_step_stops_descent(self):
        tiled = loop("jt", 1, N, [assign("x", 0)], step=4)
        assert as_perfect_nest(tiled).depth == 0


class TestIterationDomain:
    def test_triangle_domain(self):
        dom = iteration_domain(as_perfect_nest(update_nest()).loops)
        assert count_points(dom, {"k": 1, "N": 4}) == 9

    def test_min_max_bounds_decompose(self):
        from repro.ir.builder import fmax, fmin

        l = loop("i", fmax(val(1), k), fmin(N, k + 3), [assign("x", 0)])
        cs = loop_bound_constraints(l)
        assert len(cs) == 4

    def test_nonunit_step_rejected(self):
        l = loop("i", 1, N, [assign("x", 0)], step=2)
        with pytest.raises(IRError):
            loop_bound_constraints(l)


class TestMisc:
    def test_written_names(self):
        body = [assign("x", 1), assign(idx("A", i), 0.0)]
        assert written_names(body) == {"x", "A"}
