"""Quickstart: parse a kernel, fuse it, fix the dependences, measure it.

Walks the whole pipeline on Jacobi in ~a minute of reading:

1. parse the kernel's Figure-1d listing, written in the paper's
   FORTRAN-like notation (``jacobi.SOURCE``);
2. fuse its two sweeps (Figure 3d) — and see that the fusion alone is WRONG;
3. run FixDeps (Figure 4d): the anti-dependences get fixed by array copying;
4. tile it (skew + time-innermost) and compare cache behaviour on the
   simulated, scaled-down SGI Octane2.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.exec import run_compiled
from repro.exec.compiled import CompiledProgram
from repro.frontend import parse_program
from repro.ir import pretty
from repro.kernels import jacobi
from repro.kernels.recipes import build_fused_nest, build_variant
from repro.machine import measure_streaming, octane2_scaled
from repro.trans.fixdeps import fix_dependences


def main() -> None:
    params = {"N": 48, "M": 8}
    inputs = jacobi.make_inputs(params)

    # 1. Parse the paper-notation source into the IR.
    print("=== the Figure-1d listing ===")
    print(jacobi.SOURCE.strip())
    seq = parse_program(jacobi.SOURCE)

    reference = jacobi.reference(params, inputs)
    seq_result = run_compiled(seq, params, inputs)
    assert np.allclose(seq_result.arrays["A"], reference["A"])
    print("\nsequential kernel matches the numpy reference.")

    # 2. Fuse the two sweeps — the naive fusion is incorrect.
    nest = build_fused_nest("jacobi")
    fused = nest.to_program()
    fused_result = run_compiled(fused, params, inputs)
    print(
        "naively fused kernel correct?",
        bool(np.allclose(fused_result.arrays["A"], reference["A"])),
        "(anti-dependences violated, as the paper predicts)",
    )

    # 3. FixDeps: the violated anti-dependences are repaired by copying.
    report = fix_dependences(nest)
    print("\n=== FixDeps audit ===")
    print("loop-tiling collapses:", report.ww_wr.collapsed_groups() or "none")
    for ins in report.rw.insertions:
        print(
            f"copy array {ins.copy_array!r} for {ins.array!r}: "
            f"{ins.guarded_copies} copy site(s), "
            f"{ins.precopied_reads} pre-copied read(s)"
        )
    fixed = build_variant("jacobi", "fixed")
    print("\n=== the fixed kernel (Figure 4d) ===")
    print(pretty(fixed))
    fixed_result = run_compiled(fixed, params, inputs)
    assert np.allclose(fixed_result.arrays["A"], reference["A"])
    print("fixed kernel matches the reference.")

    # 4. Tile and measure on the scaled Octane2 model.
    machine = octane2_scaled()
    tiled = build_variant("jacobi", "tiled", tile=11)

    def perf(program):
        cp = CompiledProgram(program, trace=True)
        _, report = measure_streaming(cp, params, machine, inputs)
        return report

    seq_rep, tiled_rep = perf(seq), perf(tiled)
    print("\n=== simulated Octane2 (scaled) ===")
    for label, rep in (("sequential", seq_rep), ("tiled", tiled_rep)):
        print(
            f"{label:11s} L1 misses {rep.l1_misses:8d}  L2 misses "
            f"{rep.l2_misses:7d}  cycles {rep.total_cycles:12,.0f}"
        )
    print(f"speedup: {seq_rep.total_cycles / tiled_rep.total_cycles:.2f}x")


if __name__ == "__main__":
    main()
