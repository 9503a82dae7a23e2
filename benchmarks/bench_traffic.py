"""Traffic ablation: write-back volume, TLB misses and reuse distances.

Beyond the paper's read-side miss counters: tiling should also cut the
dirty-eviction (write-back) traffic and shorten reuse distances; TLB
behaviour is dominated by the footprint, not the schedule, at these sizes.
"""

from __future__ import annotations

import numpy as np

from repro.exec.compiled import CompiledProgram
from repro.kernels.registry import get_kernel
from repro.machine.layout import layout_for_program
from repro.machine.reuse import reuse_profile
from repro.machine.tlb import TLBConfig, TLBSink
from repro.machine.writeback import WritebackSink


def _trace(kernel: str, variant: str, n: int, config):
    mod = get_kernel(kernel)
    params = {"N": n}
    if "M" in mod.PARAMS:
        params["M"] = config.jacobi_m
    rng = np.random.default_rng(config.seed)
    inputs = mod.make_inputs(params, rng)
    program = mod.sequential() if variant == "seq" else mod.tiled(config.tile_for(n))
    cp = CompiledProgram(program, trace=True)
    run = cp.run(params, inputs)
    layout = layout_for_program(program, params)
    aid, lin, rw = run.trace.memory_events()
    addrs = layout.addresses(aid, lin, {v: k for k, v in run.array_ids.items()})
    return addrs, rw


def test_writeback_traffic_reduced(benchmark, sweep_config):
    """Tiled Cholesky evicts fewer dirty L2 lines than sequential."""

    def study():
        n = sweep_config.sizes[-1]
        out = {}
        for variant in ("seq", "tiled"):
            addrs, rw = _trace("cholesky", variant, n, sweep_config)
            sink = WritebackSink(sweep_config.machine.l2)
            sink.feed((addrs, rw))
            res = sink.finish()
            out[variant] = {
                "misses": res.miss_count,
                "writebacks": res.total_writeback_lines,
            }
        return out

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["tiled"]["writebacks"] < result["seq"]["writebacks"]
    assert result["tiled"]["misses"] < result["seq"]["misses"]


def test_reuse_distance_shortened(benchmark, sweep_config):
    """Mean reuse distance drops for every tiled kernel."""

    def study():
        n = sweep_config.sizes[1]
        out = {}
        for kernel in ("cholesky", "jacobi"):
            pair = {}
            for variant in ("seq", "tiled"):
                addrs, _ = _trace(kernel, variant, n, sweep_config)
                prof = reuse_profile(addrs, sweep_config.machine.l1.line_shift)
                pair[variant] = round(prof.mean_finite_distance(), 2)
            out[kernel] = pair
        return out

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    for kernel, pair in result.items():
        assert pair["tiled"] < pair["seq"], kernel


def test_tlb_footprint_bound(benchmark, sweep_config):
    """TLB misses track the footprint: near-identical for seq vs tiled."""

    def study():
        n = sweep_config.sizes[1]
        out = {}
        for variant in ("seq", "tiled"):
            addrs, _ = _trace("cholesky", variant, n, sweep_config)
            sink = TLBSink(TLBConfig())
            sink.feed(addrs)
            out[variant] = sink.finish()
        return out

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    hi, lo = max(result.values()), min(result.values())
    assert hi <= lo * 3 + 16  # same order of magnitude


def test_prefetch_narrows_but_keeps_gap(benchmark, sweep_config):
    """Next-line prefetching: helps sequential column walks, doesn't
    replace tiling (the tiled code still misses less in absolute terms)."""
    from repro.machine.cache import CacheSink
    from repro.machine.prefetch import PrefetchSink

    def study():
        n = sweep_config.sizes[-1]
        out = {}
        for variant in ("seq", "tiled"):
            addrs, _ = _trace("cholesky", variant, n, sweep_config)
            plain = int(CacheSink(sweep_config.machine.l2).feed(addrs).sum())
            sink = PrefetchSink(sweep_config.machine.l2)
            sink.feed(addrs)
            pf = sink.finish()
            out[variant] = {"plain": plain, "prefetched": pf.demand_misses}
        return out

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["seq"]["prefetched"] < result["seq"]["plain"]
    assert result["tiled"]["prefetched"] < result["seq"]["prefetched"]
