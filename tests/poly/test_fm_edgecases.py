"""Edge cases of the Fourier–Motzkin layer and the loop generator."""

from fractions import Fraction

import pytest

from repro import telemetry
from repro.errors import CaseSplitError, PolyhedronError, TransformError
from repro.poly import memo
from repro.poly.constraint import eq0, ge, ge0, le
from repro.poly.fm import MAX_CONSTRAINTS, _prune, project_onto
from repro.poly.integer import check_feasibility, rationally_empty
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

i, j, N = LinExpr.var("i"), LinExpr.var("j"), LinExpr.var("N")


class TestPrune:
    """Rows are ``(is_eq, {var: coef}, const)``."""

    def test_tighter_ge_wins(self):
        # i - 3 >= 0, j >= 0, i - 5 >= 0: the tighter bound takes the
        # first one's place.
        kept = _prune(
            [(False, {"i": 1}, -3), (False, {"j": 1}, 0), (False, {"i": 1}, -5)]
        )
        assert kept == [(False, {"i": 1}, -5), (False, {"j": 1}, 0)]

    def test_contradictory_equalities_kept(self):
        kept = _prune(
            [(True, {"i": 1}, -1), (True, {"i": 1}, -2), (True, {"i": 1}, -2)]
        )
        assert kept == [(True, {"i": 1}, -1), (True, {"i": 1}, -2)]

    def test_trivially_true_dropped(self):
        kept = _prune(
            [(False, {}, 1), (True, {}, 0), (False, {"i": 1}, 0), (False, {}, -1)]
        )
        assert kept == [(False, {"i": 1}, 0), (False, {}, -1)]


class TestEliminateEdges:
    def test_no_bounds_on_one_side(self):
        # only lower bounds: eliminating drops all information about i
        p = Polyhedron(("i", "j"), [ge(i, j), ge(j, 0)])
        out = project_onto(p, ["j"])
        assert out.variables == ("j",)
        assert out.contains({"j": 5})

    def test_blowup_guard(self):
        # many lowers x many uppers exceeding the cap must raise, not hang.
        lowers = [ge(i, LinExpr.var(f"a{k}")) for k in range(80)]
        uppers = [le(i, LinExpr.var(f"b{k}")) for k in range(80)]
        p = Polyhedron(("i",), lowers + uppers)
        with pytest.raises(PolyhedronError):
            project_onto(p, [])
        assert 80 * 80 > MAX_CONSTRAINTS

    def test_equality_with_nonunit_coefficient_substitutes(self):
        p = Polyhedron(("i", "j"), [eq0(i * 2 - j), ge(j, 0), le(j, 8)])
        out = project_onto(p, ["j"])
        # rational substitution: j/2 in [0, 8] -> j in [0, 8]
        assert out.contains({"j": 8})

    def test_blowup_error_carries_context(self):
        lowers = [ge(i, LinExpr.var(f"a{k}")) for k in range(80)]
        uppers = [le(i, LinExpr.var(f"b{k}")) for k in range(80)]
        p = Polyhedron(("i",), lowers + uppers)
        with pytest.raises(PolyhedronError) as exc:
            project_onto(p, [])
        msg = str(exc.value)
        assert "'i'" in msg  # the variable being eliminated
        assert str(MAX_CONSTRAINTS) in msg  # the cap that was exceeded
        assert "80 lower x 80 upper" in msg  # the bound counts
        assert "['i']" in msg  # the originating polyhedron dims

    def test_blowup_counted_in_telemetry(self):
        telemetry.enable()
        try:
            telemetry.reset()
            memo.clear_memos()
            lowers = [ge(i, LinExpr.var(f"a{k}")) for k in range(80)]
            uppers = [le(i, LinExpr.var(f"b{k}")) for k in range(80)]
            p = Polyhedron(("i",), lowers + uppers)
            with pytest.raises(PolyhedronError):
                project_onto(p, [])
            assert telemetry.counter_value("poly.fm.blowup") == 1
        finally:
            telemetry.disable()
            telemetry.reset()


class TestRequireExact:
    def test_nonunit_equality_raises(self):
        p = Polyhedron(("i", "j"), [eq0(i * 2 - j), ge(j, 0), le(j, 8)])
        with pytest.raises(CaseSplitError, match="not unit"):
            project_onto(p, ["j"], require_exact=True)

    def test_nonunit_bound_pair_raises(self):
        # 2i >= j and 3i <= N: both coefficients non-unit.
        p = Polyhedron(("i", "j"), [ge(i * 2, j), le(i * 3, N), ge(j, 0)])
        with pytest.raises(CaseSplitError, match="bound pair"):
            project_onto(p, ["j"], require_exact=True)

    def test_one_unit_side_is_accepted(self):
        # i >= j (unit) with 2i <= N (non-unit): one unit side suffices.
        p = Polyhedron(("i", "j"), [ge(i, j), le(i * 2, N), ge(j, 0)])
        out = project_onto(p, ["j"], require_exact=True)
        assert "j" in out.variables

    def test_exact_matches_inexact_on_unit_system(self):
        p = Polyhedron(
            ("i", "j"), [ge(i, 0), le(i, N), ge(j, i), le(j, N)]
        )
        exact = project_onto(p, ["j"], require_exact=True)
        loose = project_onto(p, ["j"])
        assert exact == loose


class TestFMOutcomes:
    """Empty sets, equality-only systems and non-unit eliminations, asserted
    on projection and feasibility directly."""

    def test_empty_polyhedron_projects_empty(self):
        p = Polyhedron(("i",), [ge(i, 1), le(i, 0)])
        assert project_onto(p, []).is_trivially_empty()
        assert not check_feasibility(p).feasible
        assert not check_feasibility(p, {"N": 5}).feasible

    def test_equality_only_system(self):
        p = Polyhedron(("i", "j"), [eq0(i - 3), eq0(j - i - 1)])
        assert project_onto(p, ["i"]).bounds_on("i") == (
            [LinExpr.const(3)], [LinExpr.const(3)]
        )
        assert project_onto(p, ["j"]).bounds_on("j") == (
            [LinExpr.const(4)], [LinExpr.const(4)]
        )
        assert check_feasibility(p).witness == {"i": 3, "j": 4}

    def test_parametric_equality_system(self):
        p = Polyhedron(("i",), [eq0(i - N)])
        assert project_onto(p, ["i"]).bounds_on("i") == ([N], [N])

    def test_nonunit_projection_raises_case_split(self):
        # 2i == N has no integer-exact shadow over all N.
        p = Polyhedron(("i", "j"), [eq0(i * 2 - N), ge(i, 0), eq0(j - i)])
        with pytest.raises(CaseSplitError):
            project_onto(p, ["j"], require_exact=True)

    def test_nonunit_feasible_with_concrete_params(self):
        p = Polyhedron(("i",), [eq0(i * 2 - N), ge(i, 0)])
        assert check_feasibility(p, {"N": 8}).witness == {"i": 4}

    def test_nonunit_infeasible_under_odd_param(self):
        # 2i == N is infeasible for odd N: enumeration finds nothing.
        p = Polyhedron(("i",), [eq0(i * 2 - N), ge(i, 0), le(i, N)])
        assert not check_feasibility(p, {"N": 7}).feasible


class TestEarlyExit:
    """Emptiness stops at the first constant contradiction; projection
    takes every step and keeps the false constant."""

    @staticmethod
    def _contradiction_then_blowup():
        # x >= 1 and x <= 0 contradict, and x is the cheapest variable;
        # i (80 lower x 80 upper bounds) would be eliminated next.
        x = LinExpr.var("x")
        lowers = [ge(i, j * k) for k in range(1, 81)]
        uppers = [le(i, j * k + 100) for k in range(1, 81)]
        return Polyhedron(("x", "i", "j"), [ge(x, 1), le(x, 0)] + lowers + uppers)

    def test_contradiction_before_a_blowup_is_empty(self):
        assert rationally_empty(self._contradiction_then_blowup())
        assert not check_feasibility(self._contradiction_then_blowup()).feasible

    def test_projection_still_takes_the_blowup_step(self):
        with pytest.raises(PolyhedronError, match="80 lower x 80 upper"):
            project_onto(self._contradiction_then_blowup(), [])

    def test_projection_keeps_the_false_constant(self):
        p = Polyhedron(("i", "j"), [ge(i, 1), le(i, 0), ge(j, 0), le(j, N)])
        assert project_onto(p, ["j"]).constraints == (
            ge(j, 0),
            le(j, N),
            ge0(LinExpr.const(-1)),
        )

    def test_substituted_constant_keeps_its_value(self):
        # 2i + 1 == 0 gives i = -1/2, so i >= 0 becomes -1/2 >= 0.
        p = Polyhedron(("i",), [eq0(i * 2 + 1), ge(i, 0)])
        assert project_onto(p, []).constraints == (
            ge0(LinExpr.const(Fraction(-1, 2))),
        )
        assert rationally_empty(p)


class TestCounters:
    def test_counters_match_hand_counts(self):
        telemetry.enable()
        try:
            telemetry.reset()
            memo.clear_memos()
            # Bound combination: i has 1 lower (i >= 0) and 2 upper bounds
            # (i <= N, i <= j); N - j >= 0 passes through. 4 rows in, 1 + 1x2 out.
            tri = Polyhedron(("i", "j"), [ge(i, 0), le(i, N), le(i, j), le(j, N)])
            assert project_onto(tri, ["j"]).constraints == (
                le(j, N),
                ge0(N),
                ge(j, 0),
            )
            # Substitution: j == i + 1 rewrites the 2 other rows.
            line = Polyhedron(("i", "j"), [eq0(j - i - 1), ge(i, 1), le(j, 4)])
            assert project_onto(line, ["i"]).constraints == (ge(i, 1), le(i, 3))
            assert telemetry.counter_value("poly.fm.eliminations") == 2
            assert telemetry.counter_value("poly.fm.constraints_in") == 4 + 3
            assert telemetry.counter_value("poly.fm.constraints_out") == 3 + 2
        finally:
            telemetry.disable()
            telemetry.reset()


class TestLoopgenEdges:
    def test_unbounded_dimension_rejected(self):
        from repro.ir.builder import assign
        from repro.trans.loopgen import emit_loops

        p = Polyhedron(("i",), [ge(i, 1)])
        with pytest.raises(TransformError):
            emit_loops(p, ["i"], (assign("x", 1),))

    def test_order_must_cover_dims(self):
        from repro.ir.builder import assign
        from repro.trans.loopgen import emit_loops

        p = Polyhedron(("i", "j"), [ge(i, 1), le(i, N), ge(j, 1), le(j, N)])
        with pytest.raises(TransformError):
            emit_loops(p, ["i"], (assign("x", 1),))

    def test_step_emitted(self):
        from repro.ir.builder import assign
        from repro.trans.loopgen import emit_loops

        p = Polyhedron(("i",), [ge(i, 1), le(i, N)])
        out = emit_loops(p, ["i"], (assign("x", 1),), steps={"i": 4})
        assert "do i = 1, N, 4" in str(out)
