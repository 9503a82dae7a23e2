"""TwoBitPredictorSink against the per-event oracle, on any chunking.

The sink walks each chunk through one C loop over a ``uint8`` counter per
site (see :mod:`repro.machine.branch`). These traces mix biased,
alternating and random sites, more of them than a byte can number, fed as
one chunk, one chunk per event and at random cuts, and a later chunk that
brings in sites above every earlier one, so the counter array grows after
states have carried. Resolved and mispredicted counts must equal
:meth:`TwoBitPredictor.simulate` on the whole trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.branch import BranchStats, TwoBitPredictorSink
from tests.machine.reference import TwoBitPredictor

#: Sites per trace: more than a byte can number.
SITES = 300


def _trace(rng, n: int, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """*n* events over the site *ids*: a third biased, a third alternating,
    a third random."""
    kinds = rng.integers(0, 3, size=len(ids))
    bias = rng.beta(0.2, 0.2, size=len(ids))
    which = rng.integers(0, len(ids), size=n)
    # Each site's own event count so far: an alternating site flips on it.
    seen = np.zeros(len(ids), dtype=np.int64)
    nth = np.empty(n, dtype=np.int64)
    for pos, w in enumerate(which.tolist()):
        nth[pos] = seen[w]
        seen[w] += 1
    draw = rng.random(n)
    taken = np.select(
        [kinds[which] == 0, kinds[which] == 1],
        [draw < bias[which], nth % 2 == 1],
        draw < 0.5,
    ).astype(np.int64)
    return ids[which].astype(np.int64), taken


def _feed(chunks) -> BranchStats:
    sink = TwoBitPredictorSink()
    for chunk in chunks:
        sink.feed(chunk)
    return sink.finish()


def _random_cuts(rng, codes: np.ndarray) -> list[np.ndarray]:
    n = len(codes)
    cuts = rng.integers(0, n + 1, size=int(rng.integers(1, 20)))
    bounds = np.sort(np.concatenate(([0, n], cuts))).tolist()
    return [codes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("seed", range(6))
def test_chunkings_match_the_oracle(seed):
    rng = np.random.default_rng(700 + seed)
    ids = rng.choice(4 * SITES, size=SITES, replace=False)
    sites, taken = _trace(rng, 3000, ids)
    codes = sites * 2 + taken
    expected = TwoBitPredictor().simulate(sites, taken)
    assert expected.mispredicted > 0
    assert _feed([codes]) == expected
    assert _feed(codes[i:i + 1] for i in range(len(codes))) == expected
    for _ in range(5):
        assert _feed(_random_cuts(rng, codes)) == expected


@pytest.mark.parametrize("seed", range(4))
def test_a_later_chunk_grows_the_carried_counters(seed):
    """Low sites first, in several chunks, then a chunk whose sites lie
    above every earlier one, mixed with the earlier sites, whose counters
    must survive the growth."""
    rng = np.random.default_rng(800 + seed)
    low = rng.choice(SITES, size=SITES // 2, replace=False)
    high = SITES + rng.choice(10 * SITES, size=SITES // 2, replace=False)
    early_sites, early_taken = _trace(rng, 2000, low)
    late_sites, late_taken = _trace(rng, 2000, np.concatenate((low, high)))
    assert late_sites.max() > early_sites.max()
    sites = np.concatenate((early_sites, late_sites))
    taken = np.concatenate((early_taken, late_taken))
    early = early_sites * 2 + early_taken
    late = late_sites * 2 + late_taken
    expected = TwoBitPredictor().simulate(sites, taken)
    assert _feed([*_random_cuts(rng, early), late]) == expected
    assert _feed([early, late]) == expected
