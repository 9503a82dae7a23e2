"""Streaming vs whole-trace equivalence: the machine model's core guarantee.

The streaming trace pipeline must be *bit-identical* to a whole-trace
replay — same miss counts, same counters, same branch stats, on any
chunking. These tests pin that down two ways:

- randomized traces through every sink, chunked at random boundaries,
  against the per-access oracles of ``tests/machine/reference.py``;
- every registered kernel recipe at small N, end-to-end: the streamed
  report, at an odd chunk size, against the golden corpus, whose reports
  those oracles computed from the whole trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MachineError
from repro.exec.compiled import CompiledProgram
from repro.experiments.runner import build_program
from repro.kernels.registry import get_kernel
from repro.machine.branch import TwoBitPredictorSink
from repro.machine.cache import CacheConfig, CacheSink
from repro.machine.hierarchy import HierarchySink
from repro.machine.registers import RegisterFilterSink
from repro.machine.sinks import MaterializeSink
from repro.machine.writeback import WritebackSink
from tests.golden import corpus
from tests.machine.reference import TwoBitPredictor, simulate_cache_reference


def random_chunks(rng, array, *extra):
    """Split aligned arrays at identical random boundaries."""
    n = len(array)
    cuts = np.sort(rng.integers(0, n + 1, size=rng.integers(0, 6)))
    bounds = [0, *cuts.tolist(), n]
    for lo, hi in zip(bounds, bounds[1:]):
        yield (array[lo:hi], *(e[lo:hi] for e in extra))


class TestCacheSinkAgainstOracle:
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8, 16])
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
        # Accesses spread over many sets or piled onto a few, with state
        # carried across chunks.
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


    @pytest.mark.parametrize("assoc1, assoc2", [(1, 2), (2, 2), (2, 8), (4, 16), (16, 1)])
    @pytest.mark.parametrize("sets1, sets2", [(16, 64), (12, 100)])
    def test_hierarchy_chains_l1_misses_into_l2(self, assoc1, assoc2, sets1, sets2):
        # One call walks L1 and, on each L1 miss, L2: L2 must see exactly
        # the L1-miss stream in order, on any chunking, for any geometry.
        rng = np.random.default_rng([assoc1, assoc2, sets1])
        l1 = CacheConfig("L1", sets1 * assoc1 * 32, 32, assoc1)
        l2 = CacheConfig("L2", sets2 * assoc2 * 64, 64, assoc2)
        addrs = rng.integers(0, 8 * sets2 * assoc2 * 64, size=5000, dtype=np.int64)
        l1_ref = simulate_cache_reference(l1, addrs)
        l2_ref = simulate_cache_reference(l2, addrs[l1_ref])
        for bounds in ([0, 5000], list(range(0, 5001, 1)), [0, 1, 2, 777, 4000, 5000]):
            sink = HierarchySink(l1, l2)
            masks = [sink.feed(addrs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
            assert np.array_equal(np.concatenate(masks), l1_ref)
            result = sink.finish()
            assert result.accesses == len(addrs)
            assert result.l1_misses == int(l1_ref.sum())
            assert result.l2_misses == int(l2_ref.sum())

    def test_negative_address_rejected(self):
        sink = CacheSink(CacheConfig("t", 256, 32, 2))
        with pytest.raises(MachineError, match="non-negative"):
            sink.feed(np.array([0, -8], dtype=np.int64))


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

    def test_branch_sink_guard_traces(self):
        """Guard-like traces: 1-40 sites with sparse ids and a per-site
        bias, so runs are long, fed in chunkings that include empty and
        1-event chunks, so every site's state carries across chunks."""
        rng = np.random.default_rng(22)
        for _ in range(200):
            nsites = int(rng.integers(1, 41))
            ids = rng.choice(4096, size=nsites, replace=False)
            bias = rng.beta(0.2, 0.2, size=nsites)
            n = int(rng.integers(1, 2000))
            which = rng.integers(0, nsites, size=n)
            sites = ids[which].astype(np.int64)
            taken = (rng.random(n) < bias[which]).astype(np.int64)
            codes = sites * 2 + taken
            cuts = rng.integers(0, n + 1, size=int(rng.integers(0, 12)))
            singles = rng.integers(0, n, size=int(rng.integers(1, 4)))
            bounds = np.sort(np.concatenate(([0, 0, n], cuts, singles, singles + 1)))
            sink = TwoBitPredictorSink()
            for lo, hi in zip(bounds.tolist(), bounds[1:].tolist()):
                sink.feed(codes[lo:hi])
            assert sink.finish() == TwoBitPredictor().simulate(sites, taken)


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
        pytest.param("qr", "tiled_sunk", 4, id="qr-tiled_sunk"),
    ],
)
def test_streaming_executor_reproduces_trace(kernel, variant, tile, chunk_events):
    # Streaming at any chunk size must emit the exact encoded event
    # stream of the materializing run (qr tiled_sunk: a guard trace), and
    # each sink must see exact chunk_events-sized chunks plus one tail.
    program, _, _ = build_program(kernel, variant, tile=tile)
    mod = get_kernel(kernel)
    params = {"N": 10}
    inputs = mod.make_inputs(params, np.random.default_rng(5))
    cp = CompiledProgram(program, trace=True)
    run = cp.run(params, inputs)
    mem_sink, bra_sink = _SizeRecordingSink(), _SizeRecordingSink()
    streamed = cp.run_streaming(
        params,
        inputs,
        memory_sink=mem_sink,
        branch_sink=bra_sink,
        chunk_events=chunk_events,
    )
    assert streamed.trace is None
    assert len(mem_sink.sizes) > 1
    for sizes in (mem_sink.sizes, bra_sink.sizes):
        assert set(sizes[:-1]) <= {chunk_events}
        assert all(0 < n <= chunk_events for n in sizes[-1:])
    assert np.array_equal(mem_sink.finish(), run.trace.memory)
    assert np.array_equal(bra_sink.finish(), run.trace.branches)
    assert streamed.counters.as_dict() == run.counters.as_dict()
    for name in run.arrays:
        assert np.array_equal(streamed.arrays[name], run.arrays[name])
