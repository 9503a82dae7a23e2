"""Unit tests for reference extraction from fused groups."""

import pytest

from repro.deps.access import extract_references
from repro.errors import DependenceError
from repro.kernels import lu
from repro.kernels.recipes import build_fused_nest


class TestJacobiExtraction:
    def test_reference_inventory(self):
        nest = build_fused_nest("jacobi")
        g1, g2 = nest.groups
        refs1 = extract_references(nest, g1)
        # L(j,i) write, four A reads
        writes = [r for r in refs1 if r.is_write]
        reads = [r for r in refs1 if not r.is_write]
        assert [w.name for w in writes] == ["L"]
        assert sorted(r.name for r in reads) == ["A"] * 4
        refs2 = extract_references(nest, g2)
        assert [r.name for r in refs2 if r.is_write] == ["A"]
        assert [r.name for r in refs2 if not r.is_write] == ["L"]

    def test_subscripts_in_fused_coordinates(self):
        nest = build_fused_nest("jacobi")
        refs = extract_references(nest, nest.groups[0])
        write = next(r for r in refs if r.is_write)
        assert {str(s) for s in write.subscripts} == {"j", "i"}

    def test_domains_include_context(self):
        nest = build_fused_nest("jacobi")
        refs = extract_references(nest, nest.groups[0])
        dom = refs[0].domain
        assert dom.variables[:1] == ("t",)
        assert dom.contains({"t": 0, "i": 2, "j": 2, "N": 5, "M": 3})
        assert not dom.contains({"t": 0, "i": 1, "j": 2, "N": 5, "M": 3})

    def test_alpha_numbering(self):
        nest = build_fused_nest("jacobi")
        refs = extract_references(nest, nest.groups[0])
        assert all(r.alpha == 1 for r in refs)

    def test_exactness(self):
        nest = build_fused_nest("jacobi")
        refs = extract_references(nest, nest.groups[0])
        assert all(r.exact for r in refs)


class TestLUExtraction:
    def test_fuzzy_pivot_subscript(self):
        nest = build_fused_nest("lu")
        swap_cols = nest.groups[4]  # trailing-column swaps
        refs = extract_references(nest, swap_cols, lu.VALUE_RANGES)
        fuzzy = [r for r in refs if r.fuzzy]
        assert fuzzy, "A(m, j) references must introduce fuzzy dims"
        assert all(not r.exact for r in fuzzy)

    def test_fuzzy_requires_value_range(self):
        nest = build_fused_nest("lu")
        swap_cols = nest.groups[4]
        with pytest.raises(DependenceError):
            extract_references(nest, swap_cols, {})

    def test_opaque_guard_marks_inexact(self):
        nest = build_fused_nest("lu")
        search = nest.groups[2]
        refs = extract_references(nest, search, lu.VALUE_RANGES)
        m_writes = [r for r in refs if r.name == "m" and r.is_write]
        assert m_writes and all(not r.exact for r in m_writes)

    def test_scalar_rank_zero(self):
        nest = build_fused_nest("lu")
        refs = extract_references(nest, nest.groups[0], lu.VALUE_RANGES)
        assert all(r.subscripts == () for r in refs if r.name == "temp")
