"""Cholesky cache study: explaining Figures 6–8 with reuse distances.

Goes one level deeper than the paper's perfex counters: the reuse-distance
profile (Mattson LRU stack) shows *where* tiling moved the reuse mass, the
miss-ratio curve shows the effect for every cache capacity at once, and the
write-back/TLB models report the traffic the paper didn't measure.

Run:  python examples/cholesky_cache_study.py
"""

from repro.exec.compiled import CompiledProgram
from repro.kernels import cholesky
from repro.kernels.recipes import build_variant
from repro.machine import octane2_scaled
from repro.machine.layout import layout_for_program
from repro.machine.reuse import reuse_profile
from repro.machine.tlb import TLBConfig, TLBSink
from repro.machine.writeback import WritebackSink
from repro.utils.tables import render_table


def trace_addresses(program, params, inputs):
    cp = CompiledProgram(program, trace=True)
    run = cp.run(params, inputs)
    layout = layout_for_program(program, params)
    aid, lin, rw = run.trace.memory_events()
    addrs = layout.addresses(aid, lin, {v: k for k, v in run.array_ids.items()})
    return addrs, rw


def main() -> None:
    n, tile = 96, 11
    params = {"N": n}
    inputs = cholesky.make_inputs(params)
    machine = octane2_scaled()
    line_shift = machine.l1.line_shift

    variants = {
        "sequential": cholesky.sequential(),
        "tiled": build_variant("cholesky", "tiled", tile=tile),
    }
    profiles = {}
    rows = []
    for label, program in variants.items():
        addrs, rw = trace_addresses(program, params, inputs)
        prof = reuse_profile(addrs, line_shift)
        profiles[label] = prof
        wb_sink = WritebackSink(machine.l2)
        wb_sink.feed((addrs, rw))
        wb = wb_sink.finish()
        tlb_sink = TLBSink(TLBConfig())
        tlb_sink.feed(addrs)
        tlb = tlb_sink.finish()
        rows.append(
            [
                label,
                len(addrs),
                prof.cold,
                round(prof.mean_finite_distance(), 1),
                wb.miss_count,
                wb.total_writeback_lines,
                tlb,
            ]
        )
    print(
        render_table(
            ["variant", "accesses", "cold", "mean reuse dist",
             "L2 misses", "L2 writebacks", "TLB misses"],
            rows,
            title=f"Cholesky N={n}: trace-level study (line = "
            f"{machine.l1.line_bytes} B)",
        )
    )

    capacities = [2 ** k for k in range(3, 13)]
    mrc_rows = []
    for c in capacities:
        mrc_rows.append(
            [
                c * machine.l1.line_bytes,
                round(profiles["sequential"].miss_ratio_curve([c])[0][1], 4),
                round(profiles["tiled"].miss_ratio_curve([c])[0][1], 4),
            ]
        )
    print()
    print(
        render_table(
            ["capacity (bytes)", "seq miss ratio", "tiled miss ratio"],
            mrc_rows,
            title="Miss-ratio curves (fully-associative LRU, from one "
            "reuse-distance pass)",
        )
    )
    print(
        "\nThe tiled code concentrates its reuse at short distances: its"
        "\nmiss ratio falls off at small capacities where the sequential"
        "\ncode still misses — the mechanism behind Figure 6."
    )


if __name__ == "__main__":
    main()
