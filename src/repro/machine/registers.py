"""Register-file model: load filtering ahead of the cache hierarchy.

The MIPSpro compiler keeps recently used array elements in the R14000A's
32 floating-point registers; a load whose value is already register-resident
never issues. This matters for exactly the effect the paper highlights for
Jacobi: with the time loop innermost, consecutive time steps touch the same
elements, and the compiler turns those reloads into register reuse ("we have
also reduced the number of array loads in the tiled code by an average of
40.9%").

The model is a fully-associative LRU window of *element* addresses:

- a load hits (is elided) iff its element is among the ``capacity`` most
  recently touched distinct elements;
- stores always reach memory (write-through towards the cache model) and
  make their element register-resident (store-to-load forwarding).

:class:`RegisterFilterSink` is the model: ``feed`` returns each chunk's
to-memory mask, ``finish`` the number of elided loads.

**Algorithm.** Residency is Mattson's stack-distance test thresholded at
the capacity ``C``: an access to element ``e`` at position ``i`` whose
previous access was at ``p`` finds ``e`` resident iff fewer than ``C``
distinct elements occur strictly between ``p`` and ``i`` (each distinct
element touched in between pushes ``e`` one slot down the LRU stack).
``feed`` settles that test for a whole chunk with NumPy passes:

1. Prepend the carried window (the last ``C`` distinct elements, oldest
   first). Replaying it from an empty window rebuilds the LRU state
   exactly, and every element touched since a resident element's last
   access is itself more recent, hence also in the window, so distinct
   counts over the prefix equal those over the real history. One sort of
   ``(element - min) << b | position`` keys (``b`` bits hold a position)
   groups equal elements in position order and gives each position its
   previous (``prev``) and next occurrence; a chunk whose element span
   does not fit the key's other ``63 - b`` bits raises ``MachineError``.
2. No previous occurrence: miss. Fewer than ``C`` positions between the
   two accesses: hit, since the distinct count cannot exceed the gap.
3. The remaining reuses have gaps ``g >= C``. Let ``D_W(t)`` be the
   distinct count of the ``W`` positions before ``t``; for a fixed ``W``
   it is one cumulative sum, because sliding the window by one position
   adds an element iff its previous occurrence fell out of the window and
   removes one iff its next occurrence lies beyond it. Any window of
   ``W <= g`` positions inside the gap that holds ``>= C`` distinct
   elements proves a miss. The screen applies this at ``W = 2C`` to every
   gap ``>= 2C``: first to its last ``2C`` positions (one slice of
   ``D_2C`` over the chunk), then to its first ``2C`` for what that leaves
   open. On the N=72 Figure-5 traces it settles 87-100% of the reuses
   with gaps ``>= C``.
4. What the screen leaves open climbs a ladder: with ``W = C*2**k`` the
   largest step ``<= g``, the windows ending at ``i - 1`` and starting at
   ``p + 1`` both lie inside the gap and together cover it (``2W > g``),
   sharing at least one position. So if either holds ``>= C`` distinct
   elements the access misses; if their counts sum to ``<= C`` it hits
   (the shared position's element is counted twice, so the gap holds at
   most the sum minus one); and ``W == g`` is exact. Only the steps some
   open access needs are summed, and step 1 reuses the screen's ``D_2C``.
5. The residual (each window ``< C``, sum ``> C``) is counted exactly:
   the left window's count plus the positions after it whose previous
   occurrence is ``<= p``. Every residual gap holds fewer than ``2C``
   distinct elements, and a position lies inside the gaps of at most
   ``2C`` such accesses, so this costs ``O(C)`` per event at worst and is
   a small fraction of the chunk in practice.
6. Carry the last ``C`` distinct elements forward as the new window.

Every step is a counting identity, so the masks equal the per-access LRU
walk's bit for bit on any chunking; the walk lives on as the test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MachineError

#: Element granularity (doubles).
ELEMENT_SHIFT = 3

#: "No previous/next occurrence" distance: beyond any window.
_FAR = np.iinfo(np.int32).max

#: Positions scanned per batch of the exact residual count.
_EXACT_BATCH = 1 << 20


class RegisterFilterSink:
    """Streaming LRU register window over ``(addresses, is_write)`` chunks.

    ``feed`` returns the chunk's keep mask (``True`` where the access goes
    to memory) so the fused pipeline can filter the address stream before
    the cache hierarchy; the window itself persists across chunks. See the
    module docstring for the vectorized residency test.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 0:
            raise MachineError("register capacity must be non-negative")
        self.capacity = capacity
        #: The last ``capacity`` distinct elements touched, oldest first.
        self._window = np.empty(0, dtype=np.int64)
        self._hits = 0

    def feed(self, chunk: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Filter one chunk; returns its boolean to-memory mask."""
        addresses, is_write = chunk
        addresses = np.asarray(addresses)
        writes = np.asarray(is_write).astype(bool, copy=False)
        n = len(addresses)
        if len(writes) != n:
            raise MachineError(
                f"register filter chunk has {n} addresses but "
                f"{len(writes)} write flags"
            )
        if self.capacity == 0 or n == 0:
            return np.ones(n, dtype=bool)
        elements = np.concatenate(
            (self._window, addresses.astype(np.int64, copy=False) >> ELEMENT_SHIFT)
        )
        back, fwd = _reuse_distances(elements)
        resident = _resident(back, fwd, len(self._window), self.capacity)
        last = np.flatnonzero(fwd == _FAR)
        self._window = elements[last[-self.capacity :]]
        elided = resident & ~writes
        self._hits += int(np.count_nonzero(elided))
        return ~elided

    def finish(self) -> int:
        """Number of loads elided by register reuse."""
        return self._hits


def _reuse_distances(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per position, the distance back to the previous and forward to the
    next occurrence of its element (``_FAR`` when there is none)."""
    n = len(elements)
    bits = n.bit_length()
    low = elements.min()
    if int(elements.max()) - int(low) >= 1 << (63 - bits):
        raise MachineError(
            f"register filter chunk of {n} accesses spans more than "
            f"2**{63 - bits} elements"
        )
    # One sort of (element, position) keys groups equal elements in
    # position order.
    keys = elements - low
    keys <<= bits
    keys |= np.arange(n)
    keys.sort()
    order = keys & ((1 << bits) - 1)
    keys >>= bits
    dist = np.diff(order).astype(np.int32)
    dist[keys[1:] != keys[:-1]] = _FAR
    back = np.empty(n, dtype=np.int32)
    fwd = np.empty(n, dtype=np.int32)
    back[order[0]] = _FAR
    back[order[1:]] = dist
    fwd[order[:-1]] = dist
    fwd[order[-1]] = _FAR
    return back, fwd


def _resident(
    back: np.ndarray, fwd: np.ndarray, start: int, capacity: int
) -> np.ndarray:
    """Residency of every position from *start* on (see module docstring)."""
    gap = back[start:] - 1  # positions strictly between the two accesses
    resident = gap < capacity
    # The 2C screen (module docstring, step 3): the last 2C positions of
    # every gap >= 2C, then the first 2C of each gap still open.
    d2c = _window_distinct(back, fwd, 2 * capacity)
    last_miss = (gap >= 2 * capacity) & (d2c[start:-1] >= capacity)
    far = np.flatnonzero(~resident & ~last_miss & (back[start:] != _FAR))
    long_ = far[gap[far] >= 2 * capacity]
    first_miss = long_[d2c[long_ + start - gap[long_] + 2 * capacity] >= capacity]
    far = np.setdiff1d(far, first_miss, assume_unique=True)
    if len(far):
        resident[far] = _ladder(back, fwd, d2c, far + start, gap[far], capacity)
    return resident


def _ladder(
    back: np.ndarray,
    fwd: np.ndarray,
    d2c: np.ndarray,
    pos: np.ndarray,
    gap: np.ndarray,
    capacity: int,
) -> np.ndarray:
    """Residency of the reuses at *pos* (gaps ``>= capacity``) that the
    screen left open: the window ladder, then the exact residual count
    (module docstring, steps 4 and 5). *d2c* is ``D_2C``."""
    prev = pos - gap - 1
    # Largest ladder step W = capacity * 2**k with W <= gap.
    k = np.frexp(gap // capacity)[1].astype(np.int64) - 1
    width = capacity << k
    right = np.empty(len(pos), dtype=np.int64)
    left = np.empty(len(pos), dtype=np.int64)
    for level in np.bincount(k).nonzero()[0].tolist():
        w = capacity << level
        distinct = d2c if level == 1 else _window_distinct(back, fwd, w)
        sel = np.flatnonzero(k == level)
        right[sel] = distinct[pos[sel]]
        left[sel] = distinct[prev[sel] + 1 + w]
    miss = np.maximum(left, right) >= capacity
    hit = ~miss & ((left + right <= capacity) | (width == gap))
    open_ = np.flatnonzero(~miss & ~hit)
    if len(open_):
        # Batches of about _EXACT_BATCH scanned positions bound the memory.
        scanned = np.cumsum(gap[open_] - width[open_])
        cuts = np.searchsorted(
            scanned, np.arange(_EXACT_BATCH, scanned[-1], _EXACT_BATCH)
        )
        for part in np.split(open_, cuts):
            if len(part):  # a gap longer than a batch leaves empty parts
                hit[part] = _exact_count(
                    back, prev[part], pos[part], width[part], left[part]
                ) < capacity
    return hit


def _window_distinct(back: np.ndarray, fwd: np.ndarray, w: int) -> np.ndarray:
    """``D_w``: entry ``t`` is the distinct count of the ``w`` positions
    before ``t``."""
    step = (back >= w).astype(np.int32)
    step[w:] -= fwd[:-w] >= w
    distinct = np.empty(len(back) + 1, dtype=np.int32)
    distinct[0] = 0
    np.cumsum(step, out=distinct[1:])
    return distinct


def _exact_count(
    back: np.ndarray,
    prev: np.ndarray,
    pos: np.ndarray,
    width: np.ndarray,
    left: np.ndarray,
) -> np.ndarray:
    """Distinct elements strictly between ``prev`` and ``pos``: the left
    window's count plus every later position ``j`` whose previous
    occurrence is ``<= prev`` (``back[j] >= j - prev``)."""
    lo = prev + 1 + width
    lengths = pos - lo
    ends = np.cumsum(lengths)
    j = np.arange(ends[-1]) - np.repeat(ends - lengths - lo, lengths)
    new = back[j] >= j - np.repeat(prev, lengths)
    counts = np.zeros(ends[-1] + 1, dtype=np.int64)
    np.cumsum(new, out=counts[1:])
    return left + counts[ends] - counts[ends - lengths]
