"""Set-associative LRU data-cache simulation.

Matches the paper's Octane2 caches: physically simple, LRU replacement,
write-allocate (reads and writes are treated alike for residency — perfex's
data-cache miss counters do not distinguish them either). Write-back traffic
is not modelled; the paper's analysis uses miss *counts* only.

The simulator exploits the classic LRU property: with associativity ``A``,
the resident lines of a set are exactly the ``A`` most recently accessed
distinct lines mapping to it.

:class:`CacheSink` is the streaming production engine. It keeps the whole
cache state in a ``(num_sets, assoc)`` integer array (MRU order, ``-1`` =
empty way), and the geometry alone picks one of two replay engines:

- ``assoc <= 2`` (every Octane2 level is 2-way): a closed-form, vectorized
  O(n) pass. Within one set's access run, the MRU line after position
  ``i`` is simply the line at ``i``, and the second MRU line is the line
  just before the current run of equal lines — so hits fall out of two
  shifted comparisons, with prior cache state spliced in as virtual
  warm-up accesses at the head of each run.
- ``assoc > 2`` (only the associativity ablation): a per-access walk over
  per-set MRU lists.

Both engines, and :func:`stack_distances`, are checked against the
per-access oracles in ``tests/machine/reference.py`` and, end to end,
against the golden corpus (``tests/golden/corpus.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    assoc: int

    def __post_init__(self) -> None:
        for field in ("size_bytes", "line_bytes", "assoc"):
            v = getattr(self, field)
            if not isinstance(v, int) or v <= 0:
                raise MachineError(f"{self.name}: {field} must be positive int")
        if self.line_bytes & (self.line_bytes - 1):
            raise MachineError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise MachineError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*assoc = {self.line_bytes * self.assoc}"
            )

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def line_shift(self) -> int:
        """log2(line size)."""
        return self.line_bytes.bit_length() - 1


@dataclass(frozen=True)
class CacheResult:
    """Accumulated outcome of one cache replay."""

    accesses: int
    misses: int


class CacheSink:
    """Streaming set-associative LRU cache (see module docstring).

    ``feed(addresses)`` replays one byte-address chunk against the
    persistent cache state and returns that chunk's boolean miss mask
    (used by :class:`~repro.machine.hierarchy.HierarchySink` to chain the
    L1-miss stream into L2); ``finish()`` returns a :class:`CacheResult`.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._shift = config.line_shift
        self._nsets = config.num_sets
        self._assoc = config.assoc
        # Set extraction: bitmask when the set count is a power of two.
        self._set_mask = (
            self._nsets - 1 if self._nsets & (self._nsets - 1) == 0 else None
        )
        #: Resident lines per set, MRU first; -1 marks an empty way.
        self._state = np.full((self._nsets, self._assoc), -1, dtype=np.int64)
        self._accesses = 0
        self._misses = 0

    # -- public protocol ---------------------------------------------------
    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Replay one chunk; returns the chunk's per-access miss mask."""
        addresses = np.asarray(addresses)
        if addresses.ndim != 1:
            raise MachineError("addresses must be a 1-D array")
        n = len(addresses)
        if n == 0:
            return np.zeros(0, dtype=bool)
        lines = addresses.astype(np.int64, copy=False) >> self._shift
        if lines.min() < 0:
            raise MachineError("addresses must be non-negative")
        if self._set_mask is not None:
            sets = lines & self._set_mask
        else:
            sets = lines % self._nsets
        if self._assoc <= 2:
            miss = self._replay_assoc2(sets, lines)
        else:
            miss = self._replay_python(sets, lines)
        self._accesses += n
        self._misses += int(miss.sum())
        return miss

    def finish(self) -> CacheResult:
        """Access and miss totals of the whole stream."""
        return CacheResult(self._accesses, self._misses)

    def _sort_by_set(self, sets: np.ndarray) -> np.ndarray:
        """Stable permutation grouping accesses by set.

        NumPy's stable argsort is a radix sort only for <= 16-bit dtypes
        (timsort otherwise, several times slower), so narrow the keys
        first — set indices are tiny.
        """
        if self._nsets <= 1 << 8:
            keys = sets.astype(np.uint8)
        elif self._nsets <= 1 << 16:
            keys = sets.astype(np.uint16)
        else:
            keys = sets
        return np.argsort(keys, kind="stable")

    # -- assoc <= 2 closed form --------------------------------------------
    def _replay_assoc2(self, sets: np.ndarray, lines: np.ndarray) -> np.ndarray:
        n = len(sets)
        order = self._sort_by_set(sets)
        s = sets[order]
        lin = lines[order]
        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        np.not_equal(s[1:], s[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        run_sets = s[starts]
        run_len = np.diff(np.append(starts, n))
        way0 = self._state[run_sets, 0]  # MRU line per touched set
        # MRU hit: equal to the previous line of the same set; at a run
        # head "previous" is the pre-chunk MRU spliced in from state.
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = lin[:-1]
        prev[starts] = way0
        mru_hit = lin == prev
        ends = starts + run_len - 1
        if self._assoc == 1:
            self._state[run_sets, 0] = lin[ends]
            miss = np.empty(n, dtype=bool)
            miss[order] = ~mru_hit
            return miss
        way1 = self._state[run_sets, 1]
        # The stack's second line behind position i is the line just
        # before the maximal run of equal lines ending at i-1. When that
        # equal run reaches back to the run head, the second line comes
        # from the pre-chunk state instead: pushing the head access onto
        # [way0, way1] leaves way1 behind it if it equals way0, else way0.
        change = lin != prev
        change[starts] = True
        eq_starts = np.flatnonzero(change)
        eq_lens = np.diff(np.append(eq_starts, n))
        last_change = np.repeat(eq_starts, eq_lens)  # eq-run start, inclusive
        plc = np.empty(n, dtype=np.int64)
        plc[0] = 0
        plc[1:] = last_change[:-1]
        second = lin[np.maximum(plc - 1, 0)]
        run_head = np.repeat(starts, run_len)
        sec_head = np.where(lin[starts] == way0, way1, way0)
        from_state = plc == run_head
        second[from_state] = np.repeat(sec_head, run_len)[from_state]
        second[starts] = way1  # stack untouched before the head access
        miss = np.empty(n, dtype=bool)
        miss[order] = ~(mru_hit | (lin == second))
        # Fold the run tails back into the persistent state.
        self._state[run_sets, 0] = lin[ends]
        ec = last_change[ends]
        self._state[run_sets, 1] = np.where(
            ec > starts, lin[np.maximum(ec - 1, 0)], sec_head
        )
        return miss

    # -- assoc > 2: per-access walk ---------------------------------------
    def _replay_python(self, sets: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """Per-access walk over the touched sets' MRU lists.

        Only the associativity ablation runs it. Its chunks are short and
        pile onto few sets, where a lock-step vectorized replay measured
        twice as slow over the whole run.
        """
        state = self._state
        touched = np.unique(sets)
        ways_by_set = {
            int(q): [int(w) for w in state[q] if w >= 0] for q in touched
        }
        assoc = self._assoc
        miss = np.empty(len(sets), dtype=bool)
        for pos, (q, line) in enumerate(zip(sets.tolist(), lines.tolist())):
            ways = ways_by_set[q]
            if line in ways:
                miss[pos] = False
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
            else:
                miss[pos] = True
                ways.insert(0, line)
                if len(ways) > assoc:
                    ways.pop()
        for q, ways in ways_by_set.items():
            row = ways + [-1] * (assoc - len(ways))
            state[q] = row
        return miss


class _Fenwick:
    """Binary indexed tree over positions (1-based internally)."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, pos: int, delta: int) -> None:
        tree = self.tree
        i = pos + 1
        size = self.size
        while i <= size:
            tree[i] += delta
            i += i & -i

    def prefix(self, pos: int) -> int:
        """Sum of entries 0..pos inclusive."""
        tree = self.tree
        i = pos + 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total


def stack_distances(addresses: np.ndarray, line_shift: int) -> np.ndarray:
    """LRU stack distance of each access at *line* granularity.

    Distance = number of distinct lines touched since the previous access to
    the same line (``-1`` for cold accesses). A fully-associative LRU cache
    of capacity ``C`` lines hits exactly the accesses with
    ``0 <= distance < C`` — the Mattson inclusion property, used by tests
    and by the LRW-style working-set diagnostics.

    Position-map/Fenwick formulation: a Fenwick tree marks the *current*
    last-occurrence position of every distinct line; the distance of an
    access is the number of marks strictly between its line's previous
    occurrence and itself: O(n log n) instead of the O(n·depth)
    ``list.index`` walk of the test oracle.
    """
    lines = (np.asarray(addresses) >> line_shift).tolist()
    n = len(lines)
    out = np.empty(n, dtype=np.int64)
    tree = _Fenwick(n)
    last_pos: dict[int, int] = {}
    for i, line in enumerate(lines):
        prev = last_pos.get(line)
        if prev is None:
            out[i] = -1
        else:
            # marks in (prev, i) == distinct lines touched in between
            out[i] = tree.prefix(i - 1) - tree.prefix(prev)
            tree.add(prev, -1)
        tree.add(i, 1)
        last_pos[line] = i
    return out
