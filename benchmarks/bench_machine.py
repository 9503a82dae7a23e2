"""Machine-model throughput: trace producer and trace consumers.

Three acceptance checks live here. On a 1M-event address trace in 64K
chunks, the vectorized :class:`~repro.machine.cache.CacheSink` must
replay at least 5x faster than the per-access reference simulator it
replaced, and :class:`~repro.machine.registers.RegisterFilterSink` must
filter at least 3x faster than the per-access LRU walk it replaced, with
bit-identical masks. On the branch trace of qr ``tiled_sunk`` at N=72
(1.1M guard events, in the executor's chunks),
:class:`~repro.machine.branch.TwoBitPredictorSink` must replay at least
5x faster than the per-event oracle, with identical counts. On the
producer side, the executor's encoded-event rate is recorded on a
>= 1M-event kernel and on the guarded qr ``tiled_sunk`` kernel, whose
streamed traces must equal its materialized run's. The measured events/sec of every path land in
``extra_info`` so ``--benchmark-json`` output carries the evidence;
under ``--benchmark-disable`` only the equality checks run.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exec.compiled import CompiledProgram
from repro.experiments.runner import build_program
from repro.kernels.registry import get_kernel
from repro.machine.branch import TwoBitPredictorSink
from repro.machine.cache import CacheSink
from repro.machine.hierarchy import HierarchySink
from repro.machine.perfcounters import measure_streaming
from repro.machine.registers import RegisterFilterSink
from repro.machine.sinks import DEFAULT_CHUNK_EVENTS
from tests.machine.reference import (
    TwoBitPredictor,
    register_filter_reference,
    simulate_cache_reference,
)

#: Trace length of the throughput comparison.
N_EVENTS = 1_000_000


def _trace(n: int = N_EVENTS) -> np.ndarray:
    """Synthetic strided walk with reuse (the kernels' access shape)."""
    rng = np.random.default_rng(7)
    base = np.cumsum(rng.integers(1, 4, size=n)) * 8
    return (base % (1 << 22)).astype(np.int64)


def _chunks(addrs: np.ndarray) -> list[np.ndarray]:
    return [
        addrs[i : i + DEFAULT_CHUNK_EVENTS]
        for i in range(0, len(addrs), DEFAULT_CHUNK_EVENTS)
    ]


def test_cache_replay_throughput(benchmark, sweep_config):
    """Streaming L1 replay is >= 5x the per-access reference."""
    addrs = _trace()
    l1 = sweep_config.machine.l1
    chunks = _chunks(addrs)

    def reference():
        return int(simulate_cache_reference(l1, addrs).sum())

    def streaming():
        sink = CacheSink(l1)
        for chunk in chunks:
            sink.feed(chunk)
        return sink.finish().misses

    t0 = time.perf_counter()
    ref_misses = reference()
    t_ref = time.perf_counter() - t0

    misses = benchmark.pedantic(streaming, rounds=1, iterations=1)
    t_vec = min(benchmark.stats.stats.data) if benchmark.stats else None
    assert misses == ref_misses
    info = {
        "events": len(addrs),
        "reference_events_per_sec": round(len(addrs) / t_ref),
        "reference_misses": ref_misses,
    }
    if t_vec:
        info["streaming_events_per_sec"] = round(len(addrs) / t_vec)
        info["speedup"] = round(t_ref / t_vec, 2)
    benchmark.extra_info.update(info)


def _register_trace(n: int = N_EVENTS) -> tuple[np.ndarray, np.ndarray]:
    """The synthetic walk with 40% of its accesses replaced by a reread of
    an address up to 120 accesses back, and 30% stores: the plain walk
    never reuses an element, so it would time only the cold path, while
    these rereads land on both sides of the 32-element window."""
    rng = np.random.default_rng(8)
    addrs = _trace(n)
    source = np.maximum(np.arange(n) - rng.integers(1, 120, size=n), 0)
    addrs = np.where(rng.random(n) < 0.4, addrs[source], addrs)
    return addrs, rng.random(n) < 0.3


def test_register_filter_throughput(benchmark):
    """Vectorized register filter is >= 3x the per-access LRU walk, with
    bit-identical masks."""
    addrs, writes = _register_trace()
    chunks = list(zip(_chunks(addrs), _chunks(writes)))
    capacity = 32

    t0 = time.perf_counter()
    ref_masks, ref_hits = register_filter_reference(chunks, capacity)
    t_ref = time.perf_counter() - t0

    def vectorized():
        sink = RegisterFilterSink(capacity)
        return [sink.feed(chunk) for chunk in chunks], sink.finish()

    masks, hits = benchmark.pedantic(vectorized, rounds=1, iterations=1)
    t_vec = min(benchmark.stats.stats.data) if benchmark.stats else None
    assert hits == ref_hits
    assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
    info = {
        "events": len(addrs),
        "reference_events_per_sec": round(len(addrs) / t_ref),
        "load_hits": hits,
    }
    if t_vec:
        info["vectorized_events_per_sec"] = round(len(addrs) / t_vec)
        info["speedup"] = round(t_ref / t_vec, 2)
        assert t_ref / t_vec >= 3, f"register filter speedup {t_ref / t_vec:.2f}x < 3x"
    benchmark.extra_info.update(info)


class _ChunkSink:
    """Keeps the chunks it is fed, as the executor cut them."""

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []

    def feed(self, chunk: np.ndarray) -> None:
        self.chunks.append(chunk)


def test_branch_predictor_throughput(benchmark):
    """The run-replay branch predictor is >= 5x the per-event oracle on a
    guard trace, with identical counts."""
    program, _, _ = build_program("qr", "tiled_sunk")
    params = {"N": 72}
    inputs = get_kernel("qr").make_inputs(params, np.random.default_rng(7))
    recorder = _ChunkSink()
    CompiledProgram(program, trace=True).run_streaming(
        params, dict(inputs), branch_sink=recorder
    )
    codes = np.concatenate(recorder.chunks)

    t0 = time.perf_counter()
    ref = TwoBitPredictor().simulate(codes >> 1, codes & 1)
    t_ref = time.perf_counter() - t0

    def streaming():
        sink = TwoBitPredictorSink()
        for chunk in recorder.chunks:
            sink.feed(chunk)
        return sink.finish()

    stats = benchmark.pedantic(streaming, rounds=1, iterations=1)
    t_run = min(benchmark.stats.stats.data) if benchmark.stats else None
    assert stats == ref
    info = {
        "events": len(codes),
        "chunks": len(recorder.chunks),
        "reference_events_per_sec": round(len(codes) / t_ref),
        "mispredicted": stats.mispredicted,
    }
    if t_run:
        info["streaming_events_per_sec"] = round(len(codes) / t_run)
        info["speedup"] = round(t_ref / t_run, 2)
        assert t_ref / t_run >= 5, f"branch predictor speedup {t_ref / t_run:.2f}x < 5x"
    benchmark.extra_info.update(info)


class _NullSink:
    """Null consumer: counts events so the producer cost dominates."""

    def __init__(self) -> None:
        self.events = 0

    def feed(self, chunk: np.ndarray) -> None:
        self.events += len(chunk)


def test_producer_throughput(benchmark):
    """Encoded events per second the executor generates on a >= 1M-event
    kernel (Jacobi: long unit-stride interior sweeps) into a null sink."""
    program, _, _ = build_program("jacobi", "seq")
    params = {"N": 280, "M": 6}
    inputs = get_kernel("jacobi").make_inputs(params, np.random.default_rng(7))
    cp = CompiledProgram(program, trace=True)

    def produce() -> int:
        sink = _NullSink()
        cp.run_streaming(params, dict(inputs), memory_sink=sink)
        return sink.events

    t0 = time.perf_counter()
    events = benchmark.pedantic(produce, rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    assert events >= 1_000_000
    benchmark.extra_info.update(
        events=events, scalar_events_per_sec=round(events / elapsed)
    )


def test_trace_producer_throughput(benchmark):
    """Encoded events per second the executor streams on a guarded kernel
    (qr ``tiled_sunk`` at N=72: memory and branch events, short innermost
    loops under guards) into discarding sinks. The streamed traces equal
    the materialized run's, timed or not."""
    program, _, _ = build_program("qr", "tiled_sunk")
    params = {"N": 72}
    inputs = get_kernel("qr").make_inputs(params, np.random.default_rng(7))
    cp = CompiledProgram(program, trace=True)

    run = cp.run(params, dict(inputs))
    mem, bra = _ChunkSink(), _ChunkSink()
    cp.run_streaming(params, dict(inputs), memory_sink=mem, branch_sink=bra)
    assert np.array_equal(np.concatenate(mem.chunks), run.trace.memory)
    assert np.array_equal(np.concatenate(bra.chunks), run.trace.branches)

    def produce() -> int:
        mem, bra = _NullSink(), _NullSink()
        cp.run_streaming(params, dict(inputs), memory_sink=mem, branch_sink=bra)
        return mem.events + bra.events

    events = benchmark.pedantic(produce, rounds=3, iterations=1)
    t_run = min(benchmark.stats.stats.data) if benchmark.stats else None
    assert events == len(run.trace.memory) + len(run.trace.branches)
    benchmark.extra_info["events"] = events
    if t_run:
        benchmark.extra_info["events_per_sec"] = round(events / t_run)


def test_telemetry_overhead(benchmark, sweep_config):
    """Enabled telemetry costs < 3% of producer throughput (the PR 4
    observability contract): the fully-instrumented streaming path
    (``exec.run`` span, per-sink wrappers) on the same
    >= 1M-event Jacobi run stays within 3% of the uninstrumented time,
    and the PerfReport is bit-identical either way."""
    from repro import telemetry

    program, _, _ = build_program("jacobi", "seq")
    params = {"N": 280, "M": 6}
    inputs = get_kernel("jacobi").make_inputs(params, np.random.default_rng(7))
    machine = sweep_config.machine
    cp = CompiledProgram(program, trace=True)

    def run_once():
        _, report = measure_streaming(cp, params, machine, dict(inputs))
        return report

    telemetry.disable()
    telemetry.reset()
    report_off = run_once()  # warm every cache/JIT-ish path first

    # Interleave disabled/enabled rounds so machine drift hits both sides
    # equally — consecutive identical runs of this workload vary by more
    # than the 3% budget, so a sequential A/A/A then B/B/B comparison
    # would flake on noise alone. Best-of-rounds on each side.
    t_off, t_on = [], []
    try:
        for _ in range(5):
            telemetry.disable()
            t_off.append(_timed(run_once))
            telemetry.enable()
            telemetry.reset()
            t_on.append(_timed(run_once))
        telemetry.enable()
        telemetry.reset()
        report_on = benchmark.pedantic(run_once, rounds=1, iterations=1)
        timed = bool(benchmark.stats)
    finally:
        telemetry.disable()
        telemetry.reset()

    assert report_on == report_off  # telemetry is a pure observer
    benchmark.extra_info["disabled_seconds"] = round(min(t_off), 6)
    benchmark.extra_info["enabled_seconds"] = round(min(t_on), 6)
    overhead = min(t_on) / min(t_off) - 1
    benchmark.extra_info["telemetry_overhead_pct"] = round(overhead * 100, 2)
    if timed:
        assert overhead < 0.03, f"telemetry overhead {overhead:.1%} >= 3%"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_hierarchy_replay_throughput(benchmark, sweep_config):
    """Fused L1 -> L2 streaming replay matches the two-pass totals."""
    addrs = _trace()
    machine = sweep_config.machine
    chunks = _chunks(addrs)

    def streaming():
        sink = HierarchySink(machine.l1, machine.l2)
        for chunk in chunks:
            sink.feed(chunk)
        res = sink.finish()
        return res.l1_misses, res.l2_misses

    l1_misses, l2_misses = benchmark.pedantic(streaming, rounds=1, iterations=1)
    assert int(simulate_cache_reference(machine.l1, addrs).sum()) == l1_misses
    benchmark.extra_info.update(
        {"events": len(addrs), "l1_misses": l1_misses, "l2_misses": l2_misses}
    )
