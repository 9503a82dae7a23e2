"""Unit tests for the cache hierarchy and the branch predictor."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.branch import BranchStats, TwoBitPredictorSink
from repro.machine.cache import CacheConfig
from repro.machine.hierarchy import HierarchySink
from tests.machine.reference import TwoBitPredictor


def l1():
    return CacheConfig("L1", 128, 32, 2)


def miss_rates(res):
    """L1 misses per access and L2 misses per L1 miss (0 when nothing
    reached the level)."""
    l1_rate = res.l1_misses / res.accesses if res.accesses else 0.0
    l2_rate = res.l2_misses / res.l1_misses if res.l1_misses else 0.0
    return l1_rate, l2_rate


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
        assert miss_rates(res) == (0.5, 1.0)

    def test_empty(self):
        sink = HierarchySink(l1(), l2())
        sink.feed(np.empty(0, dtype=np.int64))
        res = sink.finish()
        assert miss_rates(res) == (0.0, 0.0)


def replay_oracle(sites, taken):
    return TwoBitPredictor().simulate(
        np.array(sites, dtype=np.int64), np.array(taken, dtype=np.int64)
    )


def replay_sink(sites, taken):
    sink = TwoBitPredictorSink()
    sink.feed(np.array(sites, dtype=np.int64) * 2 + np.array(taken, dtype=np.int64))
    return sink.finish()


def replay_sink_per_event(sites, taken):
    """One chunk per event: every counter state is carried across chunks."""
    sink = TwoBitPredictorSink()
    for site, outcome in zip(sites, taken):
        sink.feed(np.array([site * 2 + outcome], dtype=np.int64))
    return sink.finish()


REPLAYS = (replay_oracle, replay_sink, replay_sink_per_event)


#: Events from the weakly-taken start that reach each counter state, and
#: the mispredictions they cost.
PREFIXES = {0: ([0, 0], 1), 1: ([0], 1), 2: ([], 0), 3: ([1], 0)}

#: (start state, outcome) -> mispredictions of runs of length 1..4.
RUN_MISSES = {
    (0, 1): [1, 2, 2, 2],
    (1, 1): [1, 1, 1, 1],
    (2, 1): [0, 0, 0, 0],
    (3, 1): [0, 0, 0, 0],
    (0, 0): [0, 0, 0, 0],
    (1, 0): [0, 0, 0, 0],
    (2, 0): [1, 1, 1, 1],
    (3, 0): [1, 2, 2, 2],
}


class TestTwoBit:
    def run(self, sites, taken):
        """Replay through the oracle and the sink, fed one chunk and one
        chunk per event; all three must agree."""
        results = {replay.__name__: replay(sites, taken) for replay in REPLAYS}
        assert len(set(results.values())) == 1, results
        return results["replay_oracle"]

    def test_always_taken_learns(self):
        stats = self.run([0] * 10, [1] * 10)
        assert stats.resolved == 10 and stats.mispredicted == 0

    def test_always_not_taken_pays_training(self):
        stats = self.run([0] * 10, [0] * 10)
        # starts weakly-taken (state 2): one mispredict, then state 1/0
        # predict not-taken.
        assert stats.mispredicted == 1

    def test_alternating_is_bad(self):
        # 2 -> 3 on taken, then every not-taken from 3 mispredicts.
        stats = self.run([0] * 8, [1, 0] * 4)
        assert stats.mispredicted == 4

    def test_sites_independent(self):
        stats = self.run([0, 1, 0, 1], [1, 0, 1, 0])
        # site 0 always taken (0 mispredicts); site 1 never taken (one
        # training mispredict from the weakly-taken start).
        assert stats.resolved == 4
        assert stats.mispredicted == 1

    def test_order_within_site_preserved(self):
        assert self.run([0, 0, 0, 0], [0, 0, 1, 1]).mispredicted == 3
        assert self.run([0, 0, 0, 0], [1, 1, 0, 0]).mispredicted == 2

    @pytest.mark.parametrize("state,outcome", sorted(RUN_MISSES))
    def test_run_from_every_state(self, state, outcome):
        prefix, prefix_misses = PREFIXES[state]
        for length, misses in enumerate(RUN_MISSES[state, outcome], start=1):
            taken = prefix + [outcome] * length
            stats = self.run([3] * len(taken), taken)
            assert stats.resolved == len(taken)
            assert stats.mispredicted == prefix_misses + misses, (length, misses)

    def test_empty(self):
        stats = self.run([], [])
        assert stats.resolved == 0 and stats.mispredicted == 0


def test_sink_rejects_negative_codes():
    sink = TwoBitPredictorSink()
    with pytest.raises(MachineError, match="negative branch code -3"):
        sink.feed(np.array([4, -3, 5, -1], dtype=np.int64))
    assert sink.finish() == BranchStats(0, 0)
