"""RegisterFilterSink against the per-access LRU walk, on any chunking.

The vectorized filter settles most reuses with sliding-window distinct
counts and counts the rest exactly (see :mod:`repro.machine.registers`).
These traces are chosen so that every path runs: short reuses, the 2C
screen's misses, the window ladder's miss and hit proofs, and the exact
residual, across chunk boundaries that cut through the carried window.
Real Figure-5 traces, cut into full-size chunks, take the ladder higher
than these short synthetic ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.compiled import CompiledProgram
from repro.exec.events import decode_memory_events
from repro.experiments.runner import build_program
from repro.experiments.sweep import SCALED_JACOBI_M, SweepConfig
from repro.kernels.registry import get_kernel
from repro.machine import registers
from repro.machine.configs import octane2_scaled
from repro.machine.layout import layout_for_program
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


def _hot_set(rng, n, capacity):
    """Long gaps over few distinct elements: a probe, 2C to 8C accesses
    to fewer than C/2 others, the probe again. The ladder's window sums
    prove these hits above its first step."""
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


def test_every_filter_path_runs(monkeypatch):
    # Guard the suite's coverage: over the synthetic traces, the 2C screen
    # settles misses, the level-0 windows decide C <= gap < 2C reuses on
    # their own, the ladder above level 0 proves hits, and the rest
    # reaches the exact count.
    seen = dict.fromkeys(("screen", "level0", "ladder_hit", "exact"), 0)
    resident, ladder, exact = (
        registers._resident, registers._ladder, registers._exact_count
    )
    counted = []

    def counting_resident(back, fwd, start, capacity):
        long_ = (back[start:] - 1 >= 2 * capacity) & (back[start:] != registers._FAR)
        seen["screen"] += int(np.count_nonzero(long_))
        return resident(back, fwd, start, capacity)

    def counting_ladder(back, fwd, d2c, pos, gap, capacity):
        counted.clear()
        hit = ladder(back, fwd, d2c, pos, gap, capacity)
        windows = ~np.isin(pos, np.concatenate([[], *counted]))
        short = gap < 2 * capacity
        seen["screen"] -= int(np.count_nonzero(~short))
        seen["level0"] += int(np.count_nonzero(windows & short))
        seen["ladder_hit"] += int(np.count_nonzero(windows & hit & ~short))
        return hit

    def counting_exact(back, prev, pos, width, left):
        counted.append(pos)
        seen["exact"] += len(pos)
        return exact(back, prev, pos, width, left)

    monkeypatch.setattr(registers, "_resident", counting_resident)
    monkeypatch.setattr(registers, "_ladder", counting_ladder)
    monkeypatch.setattr(registers, "_exact_count", counting_exact)
    rng = np.random.default_rng(5)
    for kind in sorted(TRACES):
        elements = TRACES[kind](rng, 4000, 32)
        addresses = elements.astype(np.int64) << ELEMENT_SHIFT
        writes = np.zeros(len(addresses), dtype=bool)
        chunks = _chunks(addresses, writes, [0, 1500, 1501, 4000])
        sink = RegisterFilterSink(32)
        masks = [sink.feed(chunk) for chunk in chunks]
        ref_masks, ref_hits = register_filter_reference(chunks, 32)
        assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
        assert sink.finish() == ref_hits
    assert all(seen.values()), seen


def _recipe_trace(kernel, variant, n):
    """The address and write streams of one Figure-5 point, as the
    streaming memory sink sees them."""
    config = SweepConfig(octane2_scaled(), (n,), SCALED_JACOBI_M)
    program, _, _ = build_program(
        kernel, variant, tile=config.tile_for(n) if variant == "tiled" else None
    )
    params = {"N": n}
    if "M" in get_kernel(kernel).PARAMS:
        params["M"] = config.jacobi_m
    inputs = get_kernel(kernel).make_inputs(params, np.random.default_rng(0))
    run = CompiledProgram(program, trace=True).run(params, inputs)
    aid, lin, writes = decode_memory_events(run.trace.memory)
    id_to_name = {v: k for k, v in run.array_ids.items()}
    return layout_for_program(program, params).addresses(aid, lin, id_to_name), writes


@pytest.mark.parametrize("kernel, variant, n", [("jacobi", "tiled", 72), ("qr", "seq", 72)])
def test_real_recipe_traces(kernel, variant, n, monkeypatch):
    # Figure-5 traces in full-size chunks: jacobi tiled's time loop puts
    # long gaps between reuses, and on both the ladder climbs past
    # W = 4C, which the N=12 golden corpus never reaches.
    widths = []
    window_distinct = registers._window_distinct

    def recording(back, fwd, w):
        widths.append(w)
        return window_distinct(back, fwd, w)

    monkeypatch.setattr(registers, "_window_distinct", recording)
    addresses, writes = _recipe_trace(kernel, variant, n)
    [want], want_hits = register_filter_reference([(addresses, writes)], 32)
    for size in (65_536, 49_999):
        widths.clear()
        sink = RegisterFilterSink(32)
        masks = [
            sink.feed((addresses[lo : lo + size], writes[lo : lo + size]))
            for lo in range(0, len(addresses), size)
        ]
        assert len(masks) > 1
        assert np.array_equal(np.concatenate(masks), want)
        assert sink.finish() == want_hits
        assert max(widths) > 4 * 32


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
