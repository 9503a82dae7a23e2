"""Unit tests for the write-back, TLB and reuse-distance models."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.cache import CacheConfig
from repro.machine.reuse import reuse_profile
from repro.machine.tlb import TLBConfig, TLBSink
from repro.machine.writeback import WritebackSink


def cache(size=128, line=32, assoc=2):
    return CacheConfig("L", size, line, assoc)


class TestWriteback:
    def test_clean_evictions_free(self):
        c = cache()
        # read-only stream that thrashes: no writebacks ever.
        addrs = np.arange(0, 32 * 64, 32, dtype=np.int64)
        sink = WritebackSink(c)
        sink.feed((addrs, np.zeros(len(addrs))))
        res = sink.finish()
        assert res.writebacks == 0 and res.dirty_at_end == 0
        assert res.miss_count == len(addrs)

    def test_dirty_eviction_counted(self):
        c = cache(size=64, line=32, assoc=2)  # one set, two ways
        addrs = np.array([0, 32, 64], dtype=np.int64)
        writes = np.array([1, 0, 0])
        sink = WritebackSink(c)
        sink.feed((addrs, writes))
        res = sink.finish()
        # line 0 written, then evicted by line 64 -> one writeback
        assert res.writebacks == 1

    def test_final_flush_reported(self):
        c = cache()
        addrs = np.array([0, 32], dtype=np.int64)
        sink = WritebackSink(c)
        sink.feed((addrs, np.array([1, 1])))
        res = sink.finish()
        assert res.dirty_at_end == 2
        assert res.total_writeback_lines == 2

    def test_write_hit_keeps_line_dirty_once(self):
        c = cache(size=64, line=32, assoc=2)
        addrs = np.array([0, 0, 0, 32, 64], dtype=np.int64)
        writes = np.array([1, 1, 1, 0, 0])
        sink = WritebackSink(c)
        sink.feed((addrs, writes))
        res = sink.finish()
        assert res.writebacks == 1  # single eviction of the single dirty line

    def test_misses_match_plain_simulator(self):
        from repro.machine.cache import CacheSink

        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 64, 500) * 8).astype(np.int64)
        writes = rng.integers(0, 2, 500)
        c = cache()
        wb = WritebackSink(c).feed((addrs, writes))
        plain = CacheSink(c).feed(addrs)
        assert (wb == plain).all()

    def test_length_mismatch(self):
        with pytest.raises(MachineError):
            WritebackSink(cache()).feed((np.zeros(2, dtype=np.int64), np.zeros(3)))


class TestTLB:
    def test_within_page_hits(self):
        cfg = TLBConfig(entries=4, page_bytes=4096)
        addrs = np.arange(0, 4096, 8, dtype=np.int64)
        sink = TLBSink(cfg)
        sink.feed(addrs)
        assert sink.finish() == 1

    def test_capacity_thrash(self):
        cfg = TLBConfig(entries=2, page_bytes=4096)
        # cycle over 3 pages: every access misses after warmup
        addrs = np.array([0, 4096, 8192] * 10, dtype=np.int64)
        sink = TLBSink(cfg)
        sink.feed(addrs)
        assert sink.finish() == 30

    def test_lru_order(self):
        cfg = TLBConfig(entries=2, page_bytes=4096)
        addrs = np.array([0, 4096, 0, 8192, 0], dtype=np.int64)
        # page0 stays hot; 8192 evicts 4096.
        sink = TLBSink(cfg)
        sink.feed(addrs)
        assert sink.finish() == 3

    def test_config_validation(self):
        with pytest.raises(MachineError):
            TLBConfig(entries=0)
        with pytest.raises(MachineError):
            TLBConfig(page_bytes=3000)

    def test_large_stride_column_walk_thrashes(self):
        # 2-D column-major walk along a row: one access per page.
        cfg = TLBConfig(entries=8, page_bytes=4096)
        n = 1024  # leading dimension in elements: 8 KB per column
        addrs = np.array([j * n * 8 for j in range(64)] * 2, dtype=np.int64)
        sink = TLBSink(cfg)
        sink.feed(addrs)
        assert sink.finish() == 128  # never fits


class TestReuseProfile:
    def test_cold_only(self):
        prof = reuse_profile(np.array([0, 64, 128], dtype=np.int64), 5)
        assert prof.cold == 3 and prof.total == 3
        assert prof.misses_at(4) == 3

    def test_histogram_and_mrc(self):
        # pattern with distance-1 reuse
        addrs = np.array([0, 64, 0, 64, 0], dtype=np.int64)
        prof = reuse_profile(addrs, 5)
        assert prof.cold == 2
        assert prof.histogram[1] == 3
        assert prof.misses_at(2) == 2  # only cold
        assert prof.misses_at(1) == 5  # distance-1 reuses all miss

    def test_mrc_monotone(self):
        rng = np.random.default_rng(1)
        addrs = (rng.integers(0, 40, 400) * 64).astype(np.int64)
        prof = reuse_profile(addrs, 6)
        curve = prof.miss_ratio_curve([1, 2, 4, 8, 16, 32, 64])
        ratios = [r for _, r in curve]
        assert ratios == sorted(ratios, reverse=True)

    def test_tiling_shifts_reuse_mass(self):
        # The analysis-grade claim: tiled Cholesky has shorter reuse
        # distances than sequential Cholesky.
        from repro.exec.compiled import CompiledProgram
        from repro.kernels import cholesky
        from repro.machine.layout import layout_for_program

        params = {"N": 40}
        inputs = cholesky.make_inputs(params)
        profs = {}
        for label, program in (
            ("seq", cholesky.sequential()),
            ("tiled", cholesky.tiled(8)),
        ):
            cp = CompiledProgram(program, trace=True)
            run = cp.run(params, inputs)
            layout = layout_for_program(program, params)
            aid, lin, _ = run.trace.memory_events()
            addrs = layout.addresses(aid, lin, {v: k for k, v in run.array_ids.items()})
            profs[label] = reuse_profile(addrs, 5)
        assert (
            profs["tiled"].mean_finite_distance()
            < profs["seq"].mean_finite_distance()
        )
