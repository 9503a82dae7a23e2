"""RegisterFilterSink against the per-access LRU walk, on any chunking.

The vectorized filter settles most reuses with sliding-window distinct
counts and counts the rest exactly (see :mod:`repro.machine.registers`).
These traces are chosen so that every path runs: short reuses, the
window ladder's miss and hit proofs, and the exact residual, across
chunk boundaries that cut through the carried window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import registers
from repro.machine.registers import ELEMENT_SHIFT, RegisterFilterSink
from tests.machine.reference import register_filter_reference


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
    each, overlapping by a random amount: the window ladder cannot decide
    these, so they reach the exact count."""
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


TRACES = {
    "uniform-small-pool": lambda rng, n, c: _uniform_pool(rng, n, max(2, c + c // 2)),
    "uniform-wide-pool": lambda rng, n, c: _uniform_pool(rng, n, 4 * c + 40),
    "jacobi-tiled-like": lambda rng, n, c: _jacobi_tiled_like(rng, n),
    "two-halves": lambda rng, n, c: _two_halves(rng, n, max(c, 2)),
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


@pytest.mark.parametrize("capacity", [0, 1, 2, 32, 300])
@pytest.mark.parametrize("kind", sorted(TRACES))
def test_matches_walk_on_any_chunking(kind, capacity):
    rng = np.random.default_rng([capacity, len(kind)])
    n = 1200
    elements = TRACES[kind](rng, n, capacity)
    # Byte addresses with random offsets inside each 8-byte element.
    addresses = (elements.astype(np.int64) << ELEMENT_SHIFT) + rng.integers(0, 8, n)
    writes = rng.random(n) < rng.choice([0.0, 0.2, 0.6])
    for bounds in _chunkings(rng, n):
        chunks = _chunks(addresses, writes, bounds)
        sink = RegisterFilterSink(capacity)
        masks = [sink.feed(chunk) for chunk in chunks]
        ref_masks, ref_hits = register_filter_reference(chunks, capacity)
        assert len(masks) == len(ref_masks)
        for got, want in zip(masks, ref_masks):
            assert got.dtype == bool and np.array_equal(got, want)
        assert sink.finish() == ref_hits


@pytest.mark.parametrize("kind", ["uniform-small-pool", "two-halves", "jacobi-tiled-like"])
def test_adversarial_traces_reach_exact_residual(kind, monkeypatch):
    # Guard the suite's coverage: these traces must exercise the exact
    # residual count, not only the window ladder, and with a batch size
    # below most gap lengths the count must split into several batches
    # per chunk (some of them empty).
    monkeypatch.setattr(registers, "_EXACT_BATCH", 16)
    calls = []
    exact = registers._exact_count

    def counting(*args):
        out = exact(*args)
        calls.append(len(out))
        return out

    monkeypatch.setattr(registers, "_exact_count", counting)
    rng = np.random.default_rng(3)
    elements = TRACES[kind](rng, 4000, 32)
    addresses = elements.astype(np.int64) << ELEMENT_SHIFT
    writes = np.zeros(len(addresses), dtype=bool)
    chunks = _chunks(addresses, writes, [0, 1500, 1501, 4000])
    sink = RegisterFilterSink(32)
    masks = [sink.feed(chunk) for chunk in chunks]
    ref_masks, ref_hits = register_filter_reference(chunks, 32)
    assert len(calls) > len(chunks)
    assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
    assert sink.finish() == ref_hits


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
    chunks = _chunks(addresses, writes, [0, 16_384, 32_768, n])
    sink = RegisterFilterSink(32)
    masks = [sink.feed(chunk) for chunk in chunks]
    ref_masks, ref_hits = register_filter_reference(chunks, 32)
    assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
    assert sink.finish() == ref_hits
