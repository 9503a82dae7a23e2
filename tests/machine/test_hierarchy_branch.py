"""Unit tests for the cache hierarchy and the branch predictor."""

import numpy as np

from repro.machine.cache import CacheConfig
from repro.machine.hierarchy import HierarchySink
from tests.machine.reference import TwoBitPredictor


def l1():
    return CacheConfig("L1", 128, 32, 2)


def l2():
    return CacheConfig("L2", 512, 32, 2)


class TestHierarchy:
    def test_l2_sees_only_l1_misses(self):
        addrs = np.array([0, 0, 0, 32], dtype=np.int64)
        sink = HierarchySink(l1(), l2())
        sink.feed(addrs)
        res = sink.finish()
        assert res.accesses == 4
        assert res.l1_misses == 2  # cold 0 and cold 32
        assert res.l2_misses == 2  # both cold in L2 as well

    def test_l2_filters_capacity(self):
        # Working set bigger than L1 but within L2: repeated sweeps hit L2.
        sweep = np.arange(0, 256, 32, dtype=np.int64)  # 8 lines > L1 (4 lines)
        addrs = np.concatenate([sweep, sweep])
        sink = HierarchySink(l1(), l2())
        sink.feed(addrs)
        res = sink.finish()
        assert res.l1_misses > 8 - 1  # thrashing
        assert res.l2_misses == 8  # only cold misses reach memory

    def test_rates(self):
        addrs = np.array([0, 0], dtype=np.int64)
        sink = HierarchySink(l1(), l2())
        sink.feed(addrs)
        res = sink.finish()
        assert res.l1_miss_rate == 0.5
        assert res.l2_miss_rate == 1.0

    def test_empty(self):
        sink = HierarchySink(l1(), l2())
        sink.feed(np.empty(0, dtype=np.int64))
        res = sink.finish()
        assert res.l1_miss_rate == 0.0 and res.l2_miss_rate == 0.0


class TestTwoBit:
    def run(self, sids, taken):
        return TwoBitPredictor().simulate(
            np.array(sids, dtype=np.int64), np.array(taken, dtype=np.int64)
        )

    def test_always_taken_learns(self):
        stats = self.run([0] * 10, [1] * 10)
        assert stats.resolved == 10 and stats.mispredicted == 0

    def test_always_not_taken_pays_training(self):
        stats = self.run([0] * 10, [0] * 10)
        # starts weakly-taken (state 2): one mispredict, then state 1/0
        # predict not-taken.
        assert stats.mispredicted == 1

    def test_alternating_is_bad(self):
        stats = self.run([0] * 8, [1, 0] * 4)
        assert stats.mispredicted >= 4

    def test_sites_independent(self):
        stats = self.run([0, 1, 0, 1], [1, 0, 1, 0])
        # site 0 always taken (0 mispredicts); site 1 never taken (one
        # training mispredict from the weakly-taken start).
        assert stats.resolved == 4
        assert stats.mispredicted == 1

    def test_order_within_site_preserved(self):
        a = self.run([0, 0, 0, 0], [0, 0, 1, 1])
        b = self.run([0, 0, 0, 0], [1, 1, 0, 0])
        assert a.mispredicted != b.mispredicted or a.resolved == b.resolved

    def test_empty(self):
        stats = self.run([], [])
        assert stats.resolved == 0 and stats.misprediction_rate == 0.0
