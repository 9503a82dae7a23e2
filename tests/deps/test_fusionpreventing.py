"""The fusion-preventing dependence sets, kernel by kernel.

These tests pin the paper's Section 3.2 findings:

- LU:       WR_m(search, swaps) != {} (plus temp WW/WR); nothing else;
- QR:       WR_norm(2,3) != {} (plus the scale->X and X->update flow
            violations the paper's listings elide);
- Cholesky: legal as fused (no violations at all);
- Jacobi:   RW_A(1,2) != {} and nothing else.

Each polyhedral answer is cross-checked against the brute-force trace
oracle at small concrete sizes.
"""

import pytest

from repro.deps.fusionpreventing import summarize, violated_dependences
from repro.kernels import cholesky, jacobi, lu, qr
from tests.deps.bruteforce import trace_violations


def names_of(violations):
    return {(v.kind, v.name, v.src.group, v.dst.group) for v in violations}


class TestJacobi:
    def test_only_anti_on_A(self):
        nest = jacobi.fused_nest()
        vios = violated_dependences(nest)
        assert names_of(vios) == {("anti", "A", 1, 2)}

    def test_witness_is_valid(self):
        nest = jacobi.fused_nest()
        vios = violated_dependences(nest)
        for v in vios:
            assert v.witness is not None
            assert v.poly.contains(v.witness)

    def test_matches_bruteforce(self):
        nest = jacobi.fused_nest()
        sym = {
            (v.kind, v.name, v.src.group, v.dst.group)
            for v in violated_dependences(nest)
        }
        brute = trace_violations(nest, {"N": 7, "M": 2})
        assert sym == brute


class TestCholesky:
    def test_fused_is_legal(self):
        nest = cholesky.fused_nest()
        assert violated_dependences(nest) == []

    def test_bruteforce_agrees(self):
        nest = cholesky.fused_nest()
        assert trace_violations(nest, {"N": 7}) == set()


class TestQR:
    @pytest.fixture(scope="class")
    def vios(self):
        return violated_dependences(qr.fused_nest())

    def test_norm_violation_present(self, vios):
        # The paper's WR_norm(2,3): group 2 writes norm, group 3 reads it.
        assert ("flow", "norm", 2, 3) in names_of(vios)

    def test_scale_and_x_violations_present(self, vios):
        kinds = names_of(vios)
        assert any(k[1] == "A" and k[0] == "flow" and k[2] == 6 for k in kinds), (
            "scale -> X flow violation (elided in the paper's garbled "
            "listing) must be detected"
        )
        assert any(k[1] == "X" and k[0] == "flow" and k[2] == 8 for k in kinds)

    def test_matches_bruteforce(self, vios):
        brute = trace_violations(qr.fused_nest(), {"N": 6})
        assert names_of(vios) == brute


class TestLU:
    @pytest.fixture(scope="class")
    def vios(self):
        return violated_dependences(
            lu.fused_nest(), value_ranges=lu.VALUE_RANGES
        )

    def test_pivot_scalar_violations(self, vios):
        kinds = names_of(vios)
        assert ("flow", "m", 3, 4) in kinds or ("flow", "m", 3, 5) in kinds
        assert any(k[1] == "temp" for k in kinds)

    def test_raw_nest_has_pivot_read_anti_dep(self, vios):
        # In the *unfixed* fused nest the column-k swap at (k+1, k) precedes
        # the pivot search's reads at (k+1, i > k): a real anti violation.
        assert ("anti", "A", 3, 4) in names_of(vios)

    def test_anti_violations_vanish_after_tiling(self):
        # ElimRW runs on P' = ElimWW_WR(P): once the search collapses to the
        # origin, no anti-dependence remains — hence LU needs no copies.
        from repro.trans.elim_ww_wr import eliminate_ww_wr

        fixed = eliminate_ww_wr(lu.fused_nest(), value_ranges=lu.VALUE_RANGES)
        remaining = violated_dependences(
            fixed.nest, ("anti",), value_ranges=lu.VALUE_RANGES
        )
        assert remaining == []

    def test_bruteforce_is_subset(self, vios):
        # The oracle expands fuzzy refs the same way, so sets coincide.
        brute = trace_violations(
            lu.fused_nest(), {"N": 6}, value_ranges=lu.VALUE_RANGES
        )
        assert brute <= names_of(vios)


class TestFilters:
    def test_src_group_filter(self):
        nest = qr.fused_nest()
        vios = violated_dependences(nest, src_group=2)
        assert {v.src.group for v in vios} == {2}

    def test_kind_filter(self):
        nest = jacobi.fused_nest()
        assert violated_dependences(nest, ("flow", "output")) == []

    def test_array_filter(self):
        nest = jacobi.fused_nest()
        assert violated_dependences(nest, arrays=["L"]) == []

    def test_summarize(self):
        nest = jacobi.fused_nest()
        counts = summarize(violated_dependences(nest))
        assert any(key.startswith("RW_A(1,2)") for key in counts)
