"""RegisterFilterSink against ``register_filter_reference``, through the
differential harness (:mod:`tests.machine.test_core_differential`): every
stream family and capacity fed one event per chunk and at random cuts, a
1-event chunk between two long ones, full 64K chunks, and a long banded
sweep carried over 16K chunks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.events import DEFAULT_CHUNK_EVENTS
from repro.machine.registers import ELEMENT_SHIFT
from tests.machine.test_core_differential import ENTRIES, FAMILIES, check, chunkings, memory_stream

REGFILTER = ENTRIES["regfilter"]


@pytest.mark.parametrize("capacity", [0, 1, 2, 32, 64, 300])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_matches_walk_on_any_chunking(kind, capacity):
    rng = np.random.default_rng([capacity, len(kind)])
    n = 1200
    stream = memory_stream(rng, kind, n, ELEMENT_SHIFT, capacity)
    cuttings = [*chunkings(rng, n), ("per-event", list(range(n + 1)))]
    check(REGFILTER, capacity, stream, rng, kind, cuttings)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_matches_walk_across_a_one_event_chunk(kind):
    # 4000 events at C = 32, cut so that a 1-event chunk sits between two
    # long ones: the window carries through a chunk that barely moves it.
    rng = np.random.default_rng(5)
    stream = memory_stream(rng, kind, 4000, ELEMENT_SHIFT, 32)
    check(REGFILTER, 32, stream, rng, kind, [("one-event", [0, 1500, 1501, 4000])])


@pytest.mark.parametrize("capacity", [1, 32, 64])
@pytest.mark.parametrize("kind", ["uniform-wide-pool", "two-halves", "hot-set"])
def test_matches_walk_in_full_size_chunks(kind, capacity):
    # The production chunk size: 64K-event chunks plus a tail, so the
    # window and its element table carry across a few real boundaries.
    rng = np.random.default_rng([capacity, len(kind), 64])
    n = 3 * DEFAULT_CHUNK_EVENTS + 1_000
    stream = memory_stream(rng, kind, n, ELEMENT_SHIFT, capacity)
    bounds = [*range(0, n, DEFAULT_CHUNK_EVENTS), n]
    check(REGFILTER, capacity, stream, rng, kind, [("64K", bounds)])


def test_long_stream_in_large_chunks():
    # Multi-chunk carry of a full window: bands swept over and over with
    # far rereads, fed in 16K chunks.
    rng = np.random.default_rng(11)
    stream = memory_stream(rng, "jacobi-tiled-like", 40_000, ELEMENT_SHIFT, 32)
    check(REGFILTER, 32, stream, rng, "sweep", [("16K", [0, 16_384, 32_768, 40_000])])
