"""Per-kernel structural and numerical detail tests."""

import numpy as np
import pytest

from repro.exec import run_compiled
from repro.ir import pretty
from repro.kernels import cholesky, jacobi, lu, qr
from repro.kernels.recipes import build_variant
from repro.kernels.registry import KERNELS, get_kernel
from tests.exec.interp import run_interpreted


class TestRegistry:
    def test_names(self):
        assert KERNELS == ("lu", "qr", "cholesky", "jacobi")

    def test_lookup(self):
        assert get_kernel("lu").NAME == "lu"
        with pytest.raises(KeyError):
            get_kernel("gemm")

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_uniform_surface(self, kernel):
        mod = get_kernel(kernel)
        for attr in ("SOURCE", "sequential", "fusable", "FUSION", "make_inputs",
                     "reference", "PARAMS", "DEFAULT_PARAMS"):
            assert hasattr(mod, attr), f"{kernel} missing {attr}"
        for attr in ("fused_nest", "fixed", "tiled", "fixdeps_report"):
            assert not hasattr(mod, attr), f"{kernel}.{attr} duplicates a recipe"
        assert mod.sequential() is mod.sequential()  # parsed once


class TestLU:
    def test_pivoting_actually_triggers(self):
        params = {"N": 16}
        inputs = lu.make_inputs(params)
        a = np.array(inputs["A"])
        swaps = 0
        for k in range(16):
            m = k + int(np.argmax(np.abs(a[k:, k])))
            if m != k:
                swaps += 1
            tmp = a[k, k:].copy()
            a[k, k:] = a[m, k:]
            a[m, k:] = tmp
            if k + 1 < 16:
                a[k + 1 :, k] /= a[k, k]
                a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
        assert swaps > 0, "inputs must exercise the swap path"

    def test_factorisation_reconstructs(self):
        # Without off-diagonal pivots the result is a plain LU of A.
        n = 10
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-1, 1, (n, n)) + np.eye(n) * (n + 3)  # strongly dominant
        out = run_compiled(lu.sequential(), {"N": n}, {"A": a0})
        res = out.arrays["A"]
        L = np.tril(res, -1) + np.eye(n)
        U = np.triu(res)
        assert np.allclose(L @ U, a0)

    def test_fixed_matches_figure4a_structure(self):
        text = pretty(build_variant("lu", "fixed"))
        assert "temp = 0.0" in text
        assert "do is" in text  # the P sweep loop
        assert "abs(d) .GT. temp" in text

    def test_tiled_expands_pivot_scalar(self):
        tiled = build_variant("lu", "tiled", tile=4)
        assert any(a.name == "m_x" for a in tiled.arrays)

    def test_epilogue_handles_last_step(self):
        # N = 1: only the peeled epilogue runs.
        out = run_compiled(lu.fusable(), {"N": 1}, {"A": np.array([[3.0]])})
        assert out.arrays["A"][0, 0] == 3.0


class TestQR:
    def test_x_products_match_reference(self):
        params = {"N": 8}
        inputs = qr.make_inputs(params)
        out = run_compiled(qr.sequential(), params, inputs)
        ref = qr.reference(params, inputs)
        assert np.allclose(out.arrays["X"], ref["X"], rtol=1e-9)

    def test_values_stay_bounded_at_experiment_sizes(self):
        params = {"N": 48}
        inputs = qr.make_inputs(params)
        out = run_compiled(qr.sequential(), params, inputs)
        assert np.isfinite(out.arrays["A"]).all()
        assert np.abs(out.arrays["A"]).max() < 1e3

    def test_distribution_of_x_nest_is_equivalent(self):
        params = {"N": 9}
        inputs = qr.make_inputs(params)
        a = run_compiled(qr.sequential(), params, inputs)
        b = run_compiled(qr.fusable(), params, inputs)
        assert np.allclose(a.arrays["A"], b.arrays["A"], rtol=1e-12)
        assert np.allclose(a.arrays["X"], b.arrays["X"], rtol=1e-12)


class TestCholesky:
    def test_spd_inputs(self):
        a = cholesky.make_inputs({"N": 12})["A"]
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a).min() > 0

    def test_upper_triangle_untouched(self):
        params = {"N": 9}
        inputs = cholesky.make_inputs(params)
        out = run_compiled(cholesky.sequential(), params, inputs)
        assert np.allclose(np.triu(out.arrays["A"], 1), np.triu(inputs["A"], 1))

    def test_tiled_guard_structure(self):
        text = pretty(build_variant("cholesky", "tiled", tile=4))
        assert "do kt = 1, N - 1, 4" in text
        # point loop clamped by tile and by the triangular bound
        assert "min(" in text


class TestJacobi:
    def test_boundary_preserved(self):
        params = {"N": 10, "M": 4}
        inputs = jacobi.make_inputs(params)
        out = run_compiled(build_variant("jacobi", "fixed"), params, inputs)
        a0, a1 = inputs["A"], out.arrays["A"]
        assert np.allclose(a0[0, :], a1[0, :]) and np.allclose(a0[-1, :], a1[-1, :])
        assert np.allclose(a0[:, 0], a1[:, 0]) and np.allclose(a0[:, -1], a1[:, -1])

    def test_m_zero_single_step(self):
        params = {"N": 8, "M": 0}
        inputs = jacobi.make_inputs(params)
        out = run_compiled(build_variant("jacobi", "tiled", tile=3), params, inputs)
        assert np.allclose(out.arrays["A"], jacobi.reference(params, inputs)["A"])

    def test_interpreted_agrees_on_tiled(self):
        params = {"N": 8, "M": 2}
        inputs = jacobi.make_inputs(params)
        t = build_variant("jacobi", "tiled", tile=3)
        a = run_compiled(t, params, inputs)
        b = run_interpreted(t, params, inputs)
        assert np.allclose(a.arrays["A"], b.arrays["A"])

    def test_smoothing_converges_toward_interior_mean(self):
        params = {"N": 16, "M": 200}
        inputs = {"A": np.ones((16, 16))}
        out = run_compiled(jacobi.sequential(), params, inputs)
        assert np.allclose(out.arrays["A"], 1.0)
