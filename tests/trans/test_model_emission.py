"""Edge-case tests for fused-nest code emission (trans.model)."""

import numpy as np

from repro.exec import run_compiled
from repro.ir import pretty, val
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program
from repro.poly.integer import PARAM_LO
from repro.trans.fusion import NestEmbedding, fuse_siblings
from repro.trans.model import assumed_param_domain, primed

N, i, j, k = sym("N"), sym("j"), sym("j"), sym("k")


def two_phase() -> Program:
    """Reduce-into-S then broadcast-S program (forces a collapse)."""
    n1 = loop("i", 1, sym("N"), [assign(idx("S", val(1)), idx("S", val(1)) + idx("A", sym("i")))])
    n2 = loop("i", 1, sym("N"), [assign(idx("B", sym("i")), idx("S", val(1)))])
    return Program(
        "tp",
        ("N",),
        (ArrayDecl("A", (sym("N"),)), ArrayDecl("B", (sym("N"),)), ArrayDecl("S", (val(4),))),
        (),
        (n1, n2),
        outputs=("B",),
    )


class TestCollapsedEmission:
    def test_reduction_collapse_and_sweep(self):
        from repro.trans.fixdeps import fix_dependences

        ident = NestEmbedding(var_map={"i": "i"})
        nest = fuse_siblings(two_phase(), [("i", val(1), sym("N"))], [ident, ident])
        report = fix_dependences(nest)
        assert report.ww_wr.collapsed_groups() == {1: ("i",)}
        program = report.program("tp_fixed")
        text = pretty(program)
        assert "do is" in text  # the sweep loop
        out = run_compiled(program, {"N": 6}, {"A": np.arange(1.0, 7.0)})
        assert np.allclose(out.arrays["B"], 21.0)

    def test_origin_guard_at_lower_bound(self):
        from repro.trans.elim_ww_wr import eliminate_ww_wr

        ident = NestEmbedding(var_map={"i": "i"})
        nest = fuse_siblings(two_phase(), [("i", val(1), sym("N"))], [ident, ident])
        fixed = eliminate_ww_wr(nest)
        text = pretty(fixed.nest.to_program())
        assert "if (i .EQ. 1)" in text


class TestHelpers:
    def test_primed_naming(self):
        assert primed("i") == "i__p"

    def test_assumed_param_domain(self):
        dom = assumed_param_domain(("N", "M"))
        assert dom.contains({"N": 4, "M": 10})
        assert not dom.contains({"N": 3, "M": 10})
        # The floor is the witness search's: one admissible problem size.
        assert dom.contains({"N": PARAM_LO, "M": PARAM_LO})
        assert not dom.contains({"N": PARAM_LO - 1, "M": PARAM_LO})

    def test_guard_free_group_emitted_bare(self):
        # Two identical-domain nests: second group needs no guard at all.
        a = loop("i", 1, sym("N"), [assign(idx("A", sym("i")), 1.0)])
        b = loop("i", 1, sym("N"), [assign(idx("B", sym("i")), 2.0)])
        p = Program(
            "gg", ("N",), (ArrayDecl("A", (sym("N"),)), ArrayDecl("B", (sym("N"),))), (), (a, b)
        )
        ident = NestEmbedding(var_map={"i": "i"})
        nest = fuse_siblings(p, [("i", val(1), sym("N"))], [ident, ident])
        text = pretty(nest.to_program())
        assert "if (" not in text

    def test_placement_guard_emitted(self):
        # depth-0 statement placed at the boundary gets an equality guard.
        s = assign(idx("A", val(1)), 5.0)
        b = loop("i", 1, sym("N"), [assign(idx("A", sym("i")), idx("A", sym("i")) + 1.0)])
        p = Program("pg", ("N",), (ArrayDecl("A", (sym("N"),)),), (), (s, b))
        nest = fuse_siblings(
            p,
            [("i", val(1), sym("N"))],
            [NestEmbedding(placement={"i": val(1)}), NestEmbedding(var_map={"i": "i"})],
        )
        text = pretty(nest.to_program())
        assert "i .EQ. 1" in text
