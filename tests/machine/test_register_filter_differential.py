"""RegisterFilterSink against the per-access LRU walk, on any chunking.

The filter is one C loop over a linked recency list and an
open-addressed element table (see :mod:`repro.machine.registers`). These
traces mix short and long reuses, tiny and wide element pools, and
windows that fill, evict and refill, across chunk boundaries that cut
through the carried window: whole traces, 1-event chunks, random cuts
and full 64K chunks. Real Figure-5 traces at N=72 run through it too.
Every chunk's survivors (the addresses the filter compacts, in order)
and the count of elided loads must equal the walk's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.compiled import CompiledProgram
from repro.experiments.runner import build_program
from repro.experiments.sweep import SCALED_JACOBI_M, SweepConfig
from repro.kernels.registry import get_kernel
from repro.machine.configs import octane2_scaled
from repro.machine.registers import ELEMENT_SHIFT, RegisterFilterSink
from tests.machine.reference import (
    memory_events,
    register_filter_reference,
    split_memory_events,
)


def _uniform_pool(rng, n, pool):
    return rng.integers(0, pool, size=n)


def _jacobi_tiled_like(rng, n):
    """Long reuse gaps over few distinct elements: a narrow band of a row
    swept over and over, with an occasional far element in between."""
    out = []
    base = 0
    while len(out) < n:
        band = int(rng.integers(8, 48))
        for _ in range(int(rng.integers(2, 6))):
            out.extend(range(base, base + band))
            if rng.random() < 0.5:
                out.append(int(rng.integers(10_000, 10_000 + 4 * band)))
        base += int(rng.integers(1, band))
    return np.asarray(out[:n])


def _two_halves(rng, n, capacity):
    """Gaps made of two runs of just under ``capacity`` distinct elements
    each, overlapping by a random amount: the probe's reuse is a hit or
    a miss by one element."""
    out = []
    while len(out) < n:
        half = max(1, capacity - int(rng.integers(1, 4)))
        start = int(rng.integers(0, 3 * capacity))
        first = np.arange(start, start + half)
        second = first + int(rng.integers(0, half + 1))
        probe = -1 - int(rng.integers(0, 4))
        out.append(probe)
        for run in (first, second):
            for _ in range(int(rng.integers(1, 4))):
                out.extend(rng.permutation(run).tolist())
        out.append(probe)
    return np.asarray(out[:n]) + 8


def _hot_set(rng, n, capacity):
    """Long gaps over few distinct elements: a probe, 2C to 8C accesses
    to fewer than C/2 others, the probe again: long reuses that hit."""
    out = []
    hot = max(1, capacity // 2 - 2)
    while len(out) < n:
        probe = -1 - int(rng.integers(0, 4))
        run = int(rng.integers(2 * capacity, 8 * capacity + 1))
        out.append(probe)
        out.extend(rng.integers(0, hot, size=run).tolist())
        out.append(probe)
    return np.asarray(out[:n]) + 8


TRACES = {
    "uniform-small-pool": lambda rng, n, c: _uniform_pool(rng, n, max(2, c + c // 2)),
    "uniform-wide-pool": lambda rng, n, c: _uniform_pool(rng, n, 4 * c + 40),
    "jacobi-tiled-like": lambda rng, n, c: _jacobi_tiled_like(rng, n),
    "two-halves": lambda rng, n, c: _two_halves(rng, n, max(c, 2)),
    "hot-set": lambda rng, n, c: _hot_set(rng, n, c),
    "all-distinct": lambda rng, n, c: np.arange(n) * 3,
    "single-element": lambda rng, n, c: np.full(n, 17),
}


def _chunkings(rng, n):
    """Bounds of one whole chunk, all 1-event chunks, and random cuts
    mixing 1-event chunks with long ones."""
    yield [0, n]
    yield list(range(n + 1))
    for _ in range(3):
        cuts = rng.integers(0, n + 1, size=int(rng.integers(1, 40)))
        singles = rng.integers(0, n, size=8)
        yield sorted({0, n, *cuts.tolist(), *singles.tolist(), *(singles + 1).tolist()})


def _chunks(addresses, writes, bounds):
    return [
        (addresses[lo:hi], writes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]


def _check(chunks, capacity):
    """Feed *chunks* as memory events, each compacted in place, and compare
    every chunk's survivors and the elided-load count with the walk's."""
    sink = RegisterFilterSink(capacity)
    ref_masks, ref_hits = register_filter_reference(chunks, capacity)
    assert len(ref_masks) == len(chunks)
    for (addresses, writes), want in zip(chunks, ref_masks):
        events = memory_events(addresses, writes)
        assert np.array_equal(sink.feed((events, events)), addresses[want])
    assert sink.finish() == ref_hits


@pytest.mark.parametrize("capacity", [0, 1, 2, 32, 64, 300])
@pytest.mark.parametrize("kind", sorted(TRACES))
def test_matches_walk_on_any_chunking(kind, capacity):
    rng = np.random.default_rng([capacity, len(kind)])
    n = 1200
    elements = TRACES[kind](rng, n, capacity)
    # Byte addresses with random offsets inside each 8-byte element.
    addresses = (elements.astype(np.int64) << ELEMENT_SHIFT) + rng.integers(0, 8, n)
    writes = rng.random(n) < rng.choice([0.0, 0.2, 0.6])
    for bounds in _chunkings(rng, n):
        _check(_chunks(addresses, writes, bounds), capacity)


@pytest.mark.parametrize("kind", sorted(TRACES))
def test_matches_walk_across_a_one_event_chunk(kind):
    # 4000 events at C = 32, cut so that a 1-event chunk sits between two
    # long ones: the window carries through a chunk that barely moves it.
    rng = np.random.default_rng(5)
    addresses = TRACES[kind](rng, 4000, 32).astype(np.int64) << ELEMENT_SHIFT
    writes = np.zeros(len(addresses), dtype=bool)
    _check(_chunks(addresses, writes, [0, 1500, 1501, 4000]), 32)


@pytest.mark.parametrize("capacity", [1, 32, 64])
@pytest.mark.parametrize("kind", ["uniform-wide-pool", "two-halves", "hot-set"])
def test_matches_walk_in_full_size_chunks(kind, capacity):
    # The production chunk size: 64K-event chunks plus a tail, so the
    # window and its element table carry across a few real boundaries.
    rng = np.random.default_rng([capacity, len(kind), 64])
    n = 3 * 65_536 + 1_000
    addresses = TRACES[kind](rng, n, capacity).astype(np.int64) << ELEMENT_SHIFT
    writes = rng.random(n) < 0.2
    _check(_chunks(addresses, writes, [*range(0, n, 65_536), n]), capacity)


def _recipe_trace(kernel, variant, n):
    """The memory events of one Figure-5 point, as the streaming memory
    sink sees them."""
    config = SweepConfig(octane2_scaled(), (n,), SCALED_JACOBI_M)
    program, _, _ = build_program(
        kernel, variant, tile=config.tile_for(n) if variant == "tiled" else None
    )
    params = {"N": n}
    if "M" in get_kernel(kernel).PARAMS:
        params["M"] = config.jacobi_m
    inputs = get_kernel(kernel).make_inputs(params, np.random.default_rng(0))
    return CompiledProgram(program, trace=True).run(params, inputs).trace.memory


@pytest.mark.parametrize("kernel, variant, n", [("jacobi", "tiled", 72), ("qr", "seq", 72)])
def test_real_recipe_traces(kernel, variant, n):
    # Figure-5 traces in full-size chunks: jacobi tiled's time loop puts
    # long gaps between reuses, far longer than the N=12 golden corpus's.
    events = _recipe_trace(kernel, variant, n)
    addresses, writes = split_memory_events(events)
    [want], want_hits = register_filter_reference([(addresses, writes)], 32)
    for size in (65_536, 49_999):
        sink = RegisterFilterSink(32)
        kept = [
            sink.feed((chunk, np.empty_like(chunk)))
            for chunk in (events[lo : lo + size] for lo in range(0, len(events), size))
        ]
        assert len(kept) > 1
        assert np.array_equal(np.concatenate(kept), addresses[want])
        assert sink.finish() == want_hits


def test_long_stream_in_large_chunks():
    # Multi-chunk carry of a full window over a long stream with mixed
    # reuse distances: a strided sweep with periodic rereads.
    rng = np.random.default_rng(11)
    n = 40_000
    sweep = np.arange(n) // 3
    reread = sweep - rng.integers(0, 120, size=n)
    elements = np.where(rng.random(n) < 0.4, reread, sweep)
    addresses = elements.astype(np.int64) << ELEMENT_SHIFT
    writes = rng.random(n) < 0.25
    _check(_chunks(addresses, writes, [0, 16_384, 32_768, n]), 32)
