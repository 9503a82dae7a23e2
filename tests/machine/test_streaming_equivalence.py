"""Streaming vs whole-trace equivalence: the machine model's core guarantee.

The streaming trace pipeline must be *bit-identical* to a whole-trace
replay — same miss counts, same counters, same branch stats, on any
chunking. These tests pin that down three ways:

- randomized traces through every sink, chunked at random boundaries,
  against the per-access oracles of ``tests/machine/reference.py``;
- every registered kernel recipe at small N, end-to-end: the streamed
  report, at an odd chunk size, against the golden corpus, whose reports
  those oracles computed from the whole trace;
- Mattson-inclusion cross-check: ``CacheSink`` at full associativity
  must agree with ``stack_distances``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.compiled import CompiledProgram
from repro.experiments.runner import build_program
from repro.kernels.registry import get_kernel
from repro.machine.branch import TwoBitPredictorSink
from repro.machine.cache import CacheConfig, CacheSink, stack_distances
from repro.machine.hierarchy import HierarchySink
from repro.machine.registers import RegisterFilterSink
from repro.machine.sinks import MaterializeSink
from repro.machine.tlb import TLBConfig, TLBSink
from repro.machine.writeback import WritebackSink
from tests.golden import corpus
from tests.machine.reference import (
    TwoBitPredictor,
    simulate_cache_reference,
    stack_distances_reference,
)


def random_chunks(rng, array, *extra):
    """Split aligned arrays at identical random boundaries."""
    n = len(array)
    cuts = np.sort(rng.integers(0, n + 1, size=rng.integers(0, 6)))
    bounds = [0, *cuts.tolist(), n]
    for lo, hi in zip(bounds, bounds[1:]):
        yield (array[lo:hi], *(e[lo:hi] for e in extra))


class TestCacheSinkAgainstOracle:
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    @pytest.mark.parametrize("nsets", [1, 4, 32, 100])
    def test_randomized_traces(self, assoc, nsets):
        rng = np.random.default_rng(nsets * 10 + assoc)
        cfg = CacheConfig("t", nsets * assoc * 32, 32, assoc)
        for _ in range(15):
            n = int(rng.integers(1, 600))
            addrs = rng.integers(0, 64 * nsets * 32, size=n, dtype=np.int64)
            ref = simulate_cache_reference(cfg, addrs)
            assert np.array_equal(CacheSink(cfg).feed(addrs), ref)
            sink = CacheSink(cfg)
            masks = [sink.feed(chunk) for (chunk,) in random_chunks(rng, addrs)]
            assert sink.finish().misses == int(ref.sum())
            assert np.array_equal(np.concatenate(masks), ref)

    def test_wide_walk_across_chunks(self):
        # assoc > 2 takes the per-access walk whatever the chunk looks
        # like: accesses spread over many sets or piled onto a few, with
        # state carried across chunks.
        rng = np.random.default_rng(3)
        cfg = CacheConfig("t", 16 * 4 * 32, 32, 4)
        spread = rng.integers(0, 16 * 64 * 32, size=1200, dtype=np.int64)
        narrow = (rng.integers(0, 8, size=1200, dtype=np.int64) * 16 * 32)
        for addrs in (spread, narrow, np.concatenate([spread, narrow])):
            ref = simulate_cache_reference(cfg, addrs)
            sink = CacheSink(cfg)
            half = len(addrs) // 2
            miss = np.concatenate([sink.feed(addrs[:half]), sink.feed(addrs[half:])])
            assert np.array_equal(miss, ref)


class TestMattsonInclusion:
    def test_fully_associative_matches_stack_distances(self):
        # A fully-associative LRU cache of capacity C hits exactly the
        # accesses with stack distance 0 <= d < C.
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 12, size=800, dtype=np.int64)
        line_shift = 5
        d = stack_distances(addrs, line_shift)
        for capacity in (1, 2, 4, 16):
            cfg = CacheConfig("fa", capacity * 32, 32, capacity)
            miss = CacheSink(cfg).feed(addrs)
            expected = (d < 0) | (d >= capacity)
            assert np.array_equal(miss, expected), capacity

    def test_fenwick_matches_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            addrs = rng.integers(0, 1 << 13, size=n, dtype=np.int64)
            assert np.array_equal(
                stack_distances(addrs, 5), stack_distances_reference(addrs, 5)
            )


class TestSinkChunkingInvariance:
    def setup_method(self):
        self.rng = np.random.default_rng(21)
        n = 700
        self.addrs = self.rng.integers(0, 1 << 14, size=n, dtype=np.int64)
        self.writes = self.rng.integers(0, 2, size=n, dtype=np.int64)

    def test_hierarchy(self):
        l1 = CacheConfig("L1", 512, 32, 2)
        l2 = CacheConfig("L2", 4096, 64, 2)
        whole_sink = HierarchySink(l1, l2)
        whole_mask = whole_sink.feed(self.addrs)
        whole = whole_sink.finish()
        sink = HierarchySink(l1, l2)
        masks = [sink.feed(chunk) for (chunk,) in random_chunks(self.rng, self.addrs)]
        assert sink.finish() == whole
        assert np.array_equal(np.concatenate(masks), whole_mask)
        assert whole.l1_misses == int(
            simulate_cache_reference(l1, self.addrs).sum()
        )

    def test_tlb(self):
        cfg = TLBConfig(entries=8, page_bytes=4096)
        whole = TLBSink(cfg)
        whole.feed(self.addrs)
        sink = TLBSink(cfg)
        for (chunk,) in random_chunks(self.rng, self.addrs):
            sink.feed(chunk)
        assert sink.finish() == whole.finish()

    def test_writeback(self):
        cfg = CacheConfig("L2", 4096, 64, 2)
        whole_sink = WritebackSink(cfg)
        whole_mask = whole_sink.feed((self.addrs, self.writes))
        sink = WritebackSink(cfg)
        masks = [
            sink.feed((chunk, w))
            for chunk, w in random_chunks(self.rng, self.addrs, self.writes)
        ]
        assert sink.finish() == whole_sink.finish()
        assert np.array_equal(np.concatenate(masks), whole_mask)
        assert np.array_equal(whole_mask, simulate_cache_reference(cfg, self.addrs))

    def test_register_filter(self):
        whole = RegisterFilterSink(capacity=8)
        whole_mask = whole.feed((self.addrs, self.writes))
        sink = RegisterFilterSink(capacity=8)
        masks = [
            sink.feed((chunk, w))
            for chunk, w in random_chunks(self.rng, self.addrs, self.writes)
        ]
        assert np.array_equal(np.concatenate(masks), whole_mask)
        assert sink.finish() == whole.finish()

    def test_branch_sink(self):
        sites = self.rng.integers(0, 5, size=400, dtype=np.int64)
        taken = self.rng.integers(0, 2, size=400, dtype=np.int64)
        codes = sites * 2 + taken
        whole = TwoBitPredictor().simulate(sites, taken)
        sink = TwoBitPredictorSink()
        for (chunk,) in random_chunks(self.rng, codes):
            sink.feed(chunk)
        assert sink.finish() == whole


@pytest.mark.parametrize("kernel,variant", corpus.RECIPES)
def test_every_recipe_streams_bit_identical(kernel, variant):
    corpus.check_report(kernel, variant)


class _SizeRecordingSink(MaterializeSink):
    """Materializes the stream and records each chunk's length."""

    def __init__(self):
        super().__init__()
        self.sizes: list[int] = []

    def feed(self, chunk: np.ndarray) -> None:
        self.sizes.append(len(chunk))
        super().feed(chunk)


@pytest.mark.parametrize("chunk_events", [1, 64])
@pytest.mark.parametrize(
    "kernel,variant,tile",
    [
        pytest.param("cholesky", "seq", None, id="cholesky-seq"),
        pytest.param("lu", "tiled", 4, id="lu-tiled"),
    ],
)
def test_streaming_executor_reproduces_trace(kernel, variant, tile, chunk_events):
    # Streaming at any chunk size must emit the exact encoded event
    # stream of the materializing run, and the memory sink must see exact
    # chunk_events-sized chunks plus one tail, however far each flush at
    # an iteration boundary overshoots the cap.
    program, _, _ = build_program(kernel, variant, tile=tile)
    mod = get_kernel(kernel)
    params = {"N": 10}
    inputs = mod.make_inputs(params, np.random.default_rng(5))
    cp = CompiledProgram(program, trace=True)
    run = cp.run(params, inputs)
    mem_sink, bra_sink = _SizeRecordingSink(), MaterializeSink()
    streamed = cp.run_streaming(
        params,
        inputs,
        memory_sink=mem_sink,
        branch_sink=bra_sink,
        chunk_events=chunk_events,
    )
    assert streamed.trace is None
    assert len(mem_sink.sizes) > 1
    assert set(mem_sink.sizes[:-1]) == {chunk_events}
    assert 0 < mem_sink.sizes[-1] <= chunk_events
    assert np.array_equal(mem_sink.finish(), run.trace.memory)
    assert np.array_equal(bra_sink.finish(), run.trace.branches)
    assert streamed.counters.as_dict() == run.counters.as_dict()
    for name in run.arrays:
        assert np.array_equal(streamed.arrays[name], run.arrays[name])
