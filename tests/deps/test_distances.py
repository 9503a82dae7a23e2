"""Unit tests for the ElimWW_WR collapse set (dimensions with d_i > 0)."""

from repro.deps.distances import collapse_dims
from repro.deps.fusionpreventing import violated_dependences
from repro.kernels import lu
from repro.kernels.recipes import build_fused_nest


class TestQRDistances:
    def test_norm_violation_carried_by_k(self):
        nest = build_fused_nest("qr")
        vios = violated_dependences(nest, ("flow", "output"), src_group=2)
        assert collapse_dims(nest, vios) == ("k",)

    def test_scale_violation_carried_by_j(self):
        nest = build_fused_nest("qr")
        vios = violated_dependences(nest, ("flow", "output"), src_group=6)
        assert collapse_dims(nest, vios) == ("j",)


class TestLUDistances:
    def test_search_violations_carried_by_i(self):
        nest = build_fused_nest("lu")
        vios = violated_dependences(
            nest, ("flow", "output"), src_group=3, value_ranges=lu.VALUE_RANGES
        )
        assert collapse_dims(nest, vios) == ("i",)

    def test_empty_violations_mean_no_collapse(self):
        assert collapse_dims(build_fused_nest("lu"), []) == ()
