"""LU with partial pivoting: the paper's flagship non-affine case.

Carr & Lehoucq concluded LU with partial pivoting is "not blockable based
on dependence information alone"; this paper's answer is to fuse
aggressively and *fix* the violated dependences. This example shows:

1. the data-dependent pivot machinery (opaque guards, the fuzzy ``A(m,j)``
   subscript handled by a declared value range k <= m <= N);
2. the automatically discovered fix — collapse the pivot search's ``i``
   dimension, yielding Figure 4a's ``P`` loop;
3. scalar expansion of ``m`` enabling the final ``k``-loop tiling;
4. the cache payoff on the simulated machine.

Run:  python examples/lu_pivoting.py
"""

import numpy as np

from repro.deps.fusionpreventing import summarize, violated_dependences
from repro.exec import run_compiled
from repro.exec.compiled import CompiledProgram
from repro.ir import pretty
from repro.kernels import lu
from repro.machine import measure_streaming, octane2_scaled


def main() -> None:
    # 1. What prevents the fusion?
    nest = lu.fused_nest()
    violations = violated_dependences(nest, value_ranges=lu.VALUE_RANGES)
    print("=== fusion-preventing dependences in the fused LU ===")
    for key, count in sorted(summarize(violations).items()):
        print(f"  {key}   x{count}")
    print(
        "\nThe scalar pivot data (m, temp) flows from the search into the"
        "\nswaps of *earlier* fused iterations — the paper's WR_m(2,3)."
    )

    # 2. FixDeps discovers the paper's fix automatically.
    report = lu.fixdeps_report()
    print("\ncollapsed dimensions per group:", report.ww_wr.collapsed_groups())
    print("copy arrays introduced:", [i.copy_array for i in report.rw.insertions] or "none")
    fixed = lu.fixed()
    print("\n=== the fixed LU (compare Figure 4a) ===")
    print(pretty(fixed))

    # 3. Correctness across sizes (pivoting included).
    for n in (8, 16, 24):
        params = {"N": n}
        inputs = lu.make_inputs(params)
        out = run_compiled(fixed, params, inputs)
        ref = lu.reference(params, inputs)
        assert np.allclose(out.arrays["A"], ref["A"], rtol=1e-9), n
    print("fixed LU matches the pivoting reference at N = 8, 16, 24.")

    # 4. Tiled LU: scalar expansion of m, then k-loop tiling.
    tiled = lu.tiled(11)
    assert any(a.name == "m_x" for a in tiled.arrays)
    params = {"N": 88}
    inputs = lu.make_inputs(params)
    out = run_compiled(tiled, params, inputs)
    ref = lu.reference(params, inputs)
    assert np.allclose(out.arrays["A"], ref["A"], rtol=1e-8)
    print("tiled LU (tile 11, pivot row array-expanded) is correct at N = 88.")

    machine = octane2_scaled()

    def perf(program):
        cp = CompiledProgram(program, trace=True)
        _, report = measure_streaming(cp, params, machine, inputs)
        return report

    seq_rep = perf(lu.sequential())
    tiled_rep = perf(tiled)
    print("\n=== simulated Octane2 (scaled), N = 88 ===")
    print(f"{'':12s}{'L1 miss':>10s}{'L2 miss':>10s}{'instrs':>14s}{'cycles':>14s}")
    for label, rep in (("sequential", seq_rep), ("tiled", tiled_rep)):
        print(
            f"{label:12s}{rep.l1_misses:10d}{rep.l2_misses:10d}"
            f"{rep.graduated_instructions:14,d}{rep.total_cycles:14,.0f}"
        )
    print(
        f"\nspeedup {seq_rep.total_cycles / tiled_rep.total_cycles:.2f}x — "
        "the L2 miss reduction outweighs the guard/loop overhead,"
        "\nthe paper's central claim."
    )


if __name__ == "__main__":
    main()
