"""TwoBitPredictorSink against ``TwoBitPredictor``, through the
differential harness (:mod:`tests.machine.test_core_differential`):
biased, alternating and random sites, more than a byte can number, fed one
event per chunk and at random cuts, and a later chunk whose sites lie above
every earlier one, so the counter array grows after states have carried."""

from __future__ import annotations

import numpy as np
import pytest

from tests.machine.test_core_differential import (
    ENTRIES,
    SITES,
    branch_stream,
    branches,
    chunkings,
    check,
)

BRANCH = ENTRIES["branch"]


@pytest.mark.parametrize("seed", range(6))
def test_chunkings_match_the_oracle(seed):
    rng = np.random.default_rng(700 + seed)
    n = 3000
    codes = branches(rng, n, rng.choice(4 * SITES, size=SITES, replace=False))
    _, expected = BRANCH.oracle(None, codes)
    assert expected.mispredicted > 0
    cuttings = [*chunkings(rng, n), ("per-event", list(range(n + 1)))]
    check(BRANCH, None, codes, rng, f"seed {seed}", cuttings)


@pytest.mark.parametrize("seed", range(4))
def test_a_later_chunk_grows_the_carried_counters(seed):
    """Low sites first, then sites above every earlier one mixed with the
    earlier sites, whose counters must survive the growth."""
    rng = np.random.default_rng(800 + seed)
    n = 4000
    codes = branch_stream(rng, n)
    assert codes[n // 2 :].max() > codes[: n // 2].max()
    cuttings = [("halves", [0, n // 2, n]), *chunkings(rng, n)]
    check(BRANCH, None, codes, rng, f"seed {seed}", cuttings)
