"""Unit tests for the next-line prefetcher."""

import numpy as np

from repro.machine.cache import CacheConfig, CacheSink
from repro.machine.prefetch import PrefetchSink


def cfg(size=256, line=32, assoc=2):
    return CacheConfig("L", size, line, assoc)


class TestPrefetch:
    def test_sequential_stream_mostly_covered(self):
        addrs = np.arange(0, 32 * 64, 32, dtype=np.int64)  # one new line each
        sink = PrefetchSink(cfg())
        sink.feed(addrs)
        res = sink.finish()
        base = int(CacheSink(cfg()).feed(addrs).sum())
        assert res.demand_misses < base / 4
        assert res.covered_fraction > 0.7

    def test_random_stream_not_covered(self, rng):
        lines = rng.permutation(512)
        addrs = (lines * 32).astype(np.int64)
        sink = PrefetchSink(cfg())
        sink.feed(addrs)
        res = sink.finish()
        assert res.covered_fraction < 0.2

    def test_repeat_hits_cost_nothing(self):
        addrs = np.array([0, 0, 0, 0], dtype=np.int64)
        sink = PrefetchSink(cfg())
        sink.feed(addrs)
        res = sink.finish()
        assert res.demand_misses == 1
        assert res.prefetch_hits == 0

    def test_mru_protected_from_prefetch(self):
        # A prefetch evicts the LRU way, never the MRU way.
        c = cfg(size=64, line=32, assoc=2)  # one set, two ways
        addrs = np.array([0, 0, 0], dtype=np.int64)
        sink = PrefetchSink(c)
        sink.feed(addrs)
        res = sink.finish()
        assert res.demand_misses == 1  # line 0 stays resident

    def test_prefetch_pollution_in_tiny_cache(self):
        # The documented cost of next-line prefetch: in a cache barely
        # holding the working set, useless prefetches evict live LRU data
        # (lines 0 and 2 ping-pong once prefetches of 1 and 3 join).
        c = cfg(size=64, line=32, assoc=2)
        addrs = np.array([0, 64, 0, 64, 0, 64], dtype=np.int64)
        sink = PrefetchSink(c)
        sink.feed(addrs)
        res = sink.finish()
        plain = int(CacheSink(c).feed(addrs).sum())
        assert plain == 2
        assert res.demand_misses == 6

    def test_demand_counts_bounded_by_plain_cache(self):
        rng = np.random.default_rng(7)
        # streaming-with-reuse mixture
        addrs = np.concatenate(
            [np.arange(0, 2048, 8), np.arange(0, 2048, 8)]
        ).astype(np.int64)
        sink = PrefetchSink(cfg())
        sink.feed(addrs)
        res = sink.finish()
        plain = int(CacheSink(cfg()).feed(addrs).sum())
        assert res.demand_misses <= plain

    def test_untiled_column_walk_benefits_more_than_tiled(self):
        """Prefetching narrows but does not close the tiling gap."""
        from repro.exec.compiled import CompiledProgram
        from repro.kernels import cholesky
        from repro.machine.configs import octane2_scaled
        from repro.machine.layout import layout_for_program

        params = {"N": 96}
        inputs = cholesky.make_inputs(params)
        machine = octane2_scaled()
        results = {}
        for label, prog in (("seq", cholesky.sequential()), ("tiled", cholesky.tiled(11))):
            cp = CompiledProgram(prog, trace=True)
            run = cp.run(params, inputs)
            layout = layout_for_program(prog, params)
            aid, lin, _ = run.trace.memory_events()
            addrs = layout.addresses(aid, lin, {v: k for k, v in run.array_ids.items()})
            plain = int(CacheSink(machine.l2).feed(addrs).sum())
            sink = PrefetchSink(machine.l2)
            sink.feed(addrs)
            pf = sink.finish()
            results[label] = (plain, pf.demand_misses)
        # prefetching helps the sequential column walks substantially...
        seq_plain, seq_pf = results["seq"]
        assert seq_pf < seq_plain * 0.75
        # ...but the tiled code still misses less in absolute terms.
        assert results["tiled"][1] < seq_pf
