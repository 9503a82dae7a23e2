"""One differential harness for the machine model's C core.

``native.c`` has four entry points. Each runs behind a production sink and
has one oracle in ``tests/machine/reference.py``:

=========  =================================================  ===========================
entry      sink                                               oracle
=========  =================================================  ===========================
regfilter  ``RegisterFilterSink`` (compacting in place)       ``register_filter_reference``
cache      ``CacheSink``; ``HierarchySink`` and ``replay``    ``simulate_cache_reference``
           chained L1 -> L2                                   (per level)
writeback  ``WritebackSink``                                  ``writeback_reference``
branch     ``TwoBitPredictorSink``                            ``TwoBitPredictor``
=========  =================================================  ===========================

:func:`check` feeds a stream whole, one event per chunk, at random cuts
and in 65,536-event chunks, and compares every chunk's output and the
``finish()`` totals with the oracle's walk of the whole stream. This file
feeds it recorded and long streams; the other differential files here
sweep the stream families over geometries and capacities.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest

from repro.errors import MachineError
from repro.exec.compiled import CompiledProgram, build
from repro.exec.events import DEFAULT_CHUNK_EVENTS
from repro.experiments.runner import build_program
from repro.experiments.sweep import SCALED_JACOBI_M, SweepConfig
from repro.kernels.registry import get_kernel
from repro.machine.branch import TwoBitPredictorSink
from repro.machine.cache import CacheConfig, CacheResult, CacheSink, replay
from repro.machine.configs import octane2_scaled
from repro.machine.hierarchy import HierarchyResult, HierarchySink
from repro.machine.registers import ELEMENT_SHIFT, RegisterFilterSink
from repro.machine.writeback import WritebackSink
from tests.golden import corpus
from tests.machine.reference import (
    TwoBitPredictor,
    decode_branch_events,
    register_filter_reference,
    simulate_cache_reference,
    split_memory_events,
    writeback_reference,
)

# --- The entry points -------------------------------------------------------
#
# Memory streams are events (``byte_address << 1 | is_write``), branch
# streams codes (``site * 2 + taken``).


def _regfilter(capacity, chunks):
    sink = RegisterFilterSink(capacity)
    # Each chunk compacted in place, as the memory pipeline does.
    return [sink.feed((buf, buf)) for buf in (c.copy() for c in chunks)], sink.finish()


def _regfilter_oracle(capacity, events):
    addresses, writes = split_memory_events(events)
    [keep], hits = register_filter_reference([(addresses, writes)], capacity)
    return (lambda lo, hi: addresses[lo:hi][keep[lo:hi]]), hits


def _cache(config, chunks):
    sink = CacheSink(config)
    return [sink.feed(c >> 1) for c in chunks], sink.finish()


def _cache_oracle(config, events):
    miss = simulate_cache_reference(config, events >> 1)
    return (lambda lo, hi: miss[lo:hi]), CacheResult(len(events), int(miss.sum()))


def _hierarchy(levels, chunks):
    """``HierarchySink`` for the totals, and ``replay`` over two chained
    ``CacheSink`` levels for the L1 miss mask and L2's own count."""
    sink, l1, l2 = HierarchySink(*levels), CacheSink(levels[0]), CacheSink(levels[1])
    masks = []
    for c in chunks:
        sink.feed(c >> 1)
        masks.append(np.empty(len(c), dtype=bool))
        replay(l1, l2, c >> 1, masks[-1])
    return masks, (sink.finish(), l2.finish())


def _hierarchy_oracle(levels, events):
    l1 = simulate_cache_reference(levels[0], events >> 1)
    l2 = simulate_cache_reference(levels[1], events[l1] >> 1)
    n1, n2 = int(l1.sum()), int(l2.sum())
    return (lambda lo, hi: l1[lo:hi]), (HierarchyResult(len(events), n1, n2), CacheResult(n1, n2))


def _writeback(config, chunks):
    sink = WritebackSink(config)
    return [sink.feed(c) for c in chunks], sink.finish()


def _writeback_oracle(config, events):
    [miss], totals = writeback_reference(config, [split_memory_events(events)])
    return (lambda lo, hi: miss[lo:hi]), totals


def _branch(_, chunks):
    sink = TwoBitPredictorSink()
    for c in chunks:
        sink.feed(c)
    return None, sink.finish()


def _branch_oracle(_, codes):
    return None, TwoBitPredictor().simulate(*decode_branch_events(codes))


def cache_config(assoc, nsets, line=32, name="L"):
    return CacheConfig(name, nsets * assoc * line, line, assoc)


@dataclass(frozen=True)
class Entry:
    """One production sink over an entry point of the C core."""

    #: (geometry, chunks) -> (each chunk's output or None, totals).
    run: Callable
    #: (geometry, whole stream) -> (chunk bounds -> its expected output,
    #: or None; totals).
    oracle: Callable
    #: (log2 of a stream unit's bytes, capacity in units) of a geometry,
    #: for the memory families; None for the branch predictor.
    scale: Callable | None
    #: The production geometry.
    machine: Any


def _lines(config):
    return config.line_shift, config.num_sets * config.assoc


MACHINE = octane2_scaled()
ENTRIES = {
    "regfilter": Entry(_regfilter, _regfilter_oracle, lambda c: (ELEMENT_SHIFT, c),
                       MACHINE.registers),
    "cache": Entry(_cache, _cache_oracle, _lines, MACHINE.l1),
    "hierarchy": Entry(_hierarchy, _hierarchy_oracle, lambda levels: _lines(levels[0]),
                       (MACHINE.l1, MACHINE.l2)),
    "writeback": Entry(_writeback, _writeback_oracle, _lines, MACHINE.l2),
    "branch": Entry(_branch, _branch_oracle, None, None),
}

# --- Streams ----------------------------------------------------------------


def _jacobi_like(rng, n, c):
    """A narrow band of a row swept over and over, with an occasional far
    element between sweeps: long reuse gaps over few distinct units."""
    out: list[int] = []
    base = 0
    while len(out) < n:
        band = int(rng.integers(8, 48))
        for _ in range(int(rng.integers(2, 6))):
            out.extend(range(base, base + band))
            if rng.random() < 0.5:
                out.append(int(rng.integers(10_000, 10_000 + 4 * band)))
        base += int(rng.integers(1, band))
    return np.asarray(out[:n])


def _two_halves(rng, n, c):
    """A probe, then two runs of just under *c* distinct units each that
    overlap by a random amount, then the probe: its reuse hits or misses
    by one unit."""
    c = max(c, 2)
    out: list[int] = []
    while len(out) < n:
        half = max(1, c - int(rng.integers(1, 4)))
        first = np.arange(half) + int(rng.integers(0, 3 * c))
        probe = -1 - int(rng.integers(0, 4))
        out.append(probe)
        for run in (first, first + int(rng.integers(0, half + 1))):
            for _ in range(int(rng.integers(1, 4))):
                out.extend(rng.permutation(run).tolist())
        out.append(probe)
    return np.asarray(out[:n]) + 8


def _hot_set(rng, n, c):
    """A probe, 2c to 8c accesses to fewer than c/2 others, the probe
    again: long reuses that hit."""
    out: list[int] = []
    hot = max(1, c // 2 - 2)
    while len(out) < n:
        probe = -1 - int(rng.integers(0, 4))
        out.append(probe)
        out.extend(rng.integers(0, hot, size=int(rng.integers(2 * c, 8 * c + 1))).tolist())
        out.append(probe)
    return np.asarray(out[:n]) + 8


#: Memory families: (rng, n, capacity in units) -> unit indices.
FAMILIES = {
    "uniform-small-pool": lambda rng, n, c: rng.integers(0, max(2, c + c // 2), size=n),
    "uniform-wide-pool": lambda rng, n, c: rng.integers(0, 4 * c + 40, size=n),
    "hot-set": _hot_set,
    "two-halves": _two_halves,
    "jacobi-tiled-like": _jacobi_like,
    "all-distinct": lambda rng, n, c: np.arange(n) * 3,
    "single-element": lambda rng, n, c: np.full(n, 17),
}


def memory_stream(rng, family, n, shift, capacity):
    """*n* memory events of one family: a random byte inside each unit of
    ``1 << shift`` bytes, and a random share of stores."""
    units = FAMILIES[family](rng, n, capacity).astype(np.int64)
    addresses = (units << shift) + rng.integers(0, 1 << shift, size=n)
    writes = rng.random(n) < rng.choice([0.0, 0.2, 0.6])
    return addresses << 1 | writes


#: Sites per branch stream: more than a byte can number.
SITES = 300


def branches(rng, n, ids):
    """*n* events over the site *ids*: a third of the sites biased, a
    third alternating, a third random."""
    kinds = rng.integers(0, 3, size=len(ids))
    bias = rng.beta(0.2, 0.2, size=len(ids))
    which = rng.integers(0, len(ids), size=n)
    # Each event's rank among its site's events: an alternating site flips.
    order = np.argsort(which, kind="stable")
    starts = np.searchsorted(which[order], which[order])
    nth = np.empty(n, dtype=np.int64)
    nth[order] = np.arange(n) - starts
    draw = rng.random(n)
    taken = np.select(
        [kinds[which] == 0, kinds[which] == 1], [draw < bias[which], nth % 2 == 1], draw < 0.5
    )
    return ids[which].astype(np.int64) * 2 + taken


def branch_stream(rng, n):
    """Half the events over low sites, then half over the low sites and
    others above every earlier one: a later chunk grows the counter array
    after states have carried."""
    low = rng.choice(2 * SITES, size=SITES, replace=False)
    high = 2 * SITES + rng.choice(8 * SITES, size=SITES, replace=False)
    return np.concatenate(
        (branches(rng, n // 2, low), branches(rng, n - n // 2, np.concatenate((low, high))))
    )


# --- Chunkings --------------------------------------------------------------

#: Streams up to this long are also fed one event per chunk.
SHORT = 400


def chunkings(rng, n):
    """(name, chunk bounds): whole; one event per chunk (short streams);
    two random cuttings with empty and 1-event chunks; 65,536-event
    chunks plus a tail (streams longer than one such chunk)."""
    yield "whole", [0, n]
    if n <= SHORT:
        yield "per-event", list(range(n + 1))
    for k in range(2):
        cuts = rng.integers(0, n + 1, size=int(rng.integers(1, 40))).tolist()
        singles = rng.integers(0, n + 1, size=4)
        ones = np.minimum(singles + 1, n)
        yield f"random-{k}", sorted([0, 0, n, n, *cuts, *singles.tolist(), *ones.tolist()])
    if n > DEFAULT_CHUNK_EVENTS:
        yield "64K", [*range(0, n, DEFAULT_CHUNK_EVENTS), n]


def check(entry, geometry, stream, rng, what, cuttings=None):
    """Feed *stream* on every chunking, or on the (name, bounds) pairs of
    *cuttings*, and compare with the oracle's walk."""
    cut, totals = entry.oracle(geometry, stream)
    for how, bounds in cuttings or chunkings(rng, len(stream)):
        spans = list(zip(bounds, bounds[1:]))
        outs, got = entry.run(geometry, [stream[lo:hi] for lo, hi in spans])
        if cut is not None:
            for (lo, hi), out in zip(spans, outs, strict=True):
                assert np.array_equal(out, cut(lo, hi)), f"{what}, {how}: chunk [{lo}:{hi})"
        assert got == totals, f"{what}, {how}"


def check_families(entry, geometry, rng):
    """:func:`check` on every memory family at *geometry*, on streams six
    times its capacity (400 to 600 events)."""
    shift, capacity = entry.scale(geometry)
    n = min(max(SHORT, 6 * capacity), 600)
    for family in FAMILIES:
        check(entry, geometry, memory_stream(rng, family, n, shift, capacity), rng, family)


# --- Long streams ----------------------------------------------------------


@pytest.mark.parametrize("name", ["cache", "hierarchy", "writeback", "branch"])
def test_long_streams(name):
    # Two full production chunks and a tail, each family in turn, so the
    # carried state changes character across real chunk boundaries. The
    # register filter's run in test_matches_walk_in_full_size_chunks.
    entry = ENTRIES[name]
    rng = np.random.default_rng(list(f"{name}-64K".encode()))
    n = 2 * DEFAULT_CHUNK_EVENTS + 1_000
    if entry.scale is None:
        stream = branch_stream(rng, n)
    else:
        shift, capacity = entry.scale(entry.machine)
        part = n // len(FAMILIES) + 1
        stream = np.concatenate(
            [memory_stream(rng, f, part, shift, capacity) for f in FAMILIES]
        )[:n]
    check(entry, entry.machine, stream, rng, f"{name} long stream")


# --- Recorded streams -------------------------------------------------------

#: Two Figure-5 points at N = 72: jacobi tiled's time loop puts reuse gaps
#: far longer than the corpus's N = 12 runs do.
FIGURE5 = [("jacobi", "tiled", 72), ("qr", "seq", 72)]


def _figure5_instance(kernel, variant, n):
    config = SweepConfig(MACHINE, (n,), SCALED_JACOBI_M)
    tile = config.tile if variant == "tiled" else None
    program, _, _ = build_program(kernel, variant, tile=tile)
    params = {"N": n, "M": config.jacobi_m} if "M" in get_kernel(kernel).PARAMS else {"N": n}
    return program, params, get_kernel(kernel).make_inputs(params, np.random.default_rng(0))


#: Label -> (instance function, its arguments): every corpus run that
#: executes, and the Figure-5 points.
RECORDED = {
    **{corpus.label(k, v): (corpus.instance, (k, v)) for k, v in corpus.RECIPES
       if "error" not in corpus.load()["recipes"][corpus.label(k, v)]},
    **{f"{k}/{v}@{n}": (_figure5_instance, (k, v, n)) for k, v, n in FIGURE5},
}


@pytest.fixture(scope="module")
def recorded():
    """Label -> the traced run's trace; every program built in one ``cc``."""
    instances = {label: make(*args) for label, (make, args) in RECORDED.items()}
    programs = {label: CompiledProgram(p, trace=True) for label, (p, _, _) in instances.items()}
    build(programs.values())
    return {label: programs[label].run(params, inputs).trace
            for label, (_, params, inputs) in instances.items()}


@pytest.mark.parametrize("label", RECORDED)
def test_recorded_streams(label, recorded):
    trace = recorded[label]
    rng = np.random.default_rng(len(label))
    # The N = 72 traces run through the register filter only, as the
    # Figure-5 sweep's first stage sees them.
    names = ["regfilter"] if "@" in label else list(ENTRIES)
    for name in names:
        entry = ENTRIES[name]
        stream = trace.branches if name == "branch" else trace.memory
        check(entry, entry.machine, np.asarray(stream, dtype=np.int64), rng, f"{label} {name}")


# --- Malformed streams ------------------------------------------------------


@pytest.mark.parametrize("name", ENTRIES)
def test_rejects_a_malformed_stream(name):
    # A negative address or code encodes nothing; the register filter
    # rejects an output buffer too short for its chunk.
    entry = ENTRIES[name]
    bad = np.array([16, -16], dtype=np.int64)
    with pytest.raises(MachineError):
        if name == "regfilter":
            RegisterFilterSink(entry.machine).feed((bad, bad[:1]))
        else:
            entry.run(entry.machine, [bad])
