"""Branch prediction models.

Figure 7 of the paper charges 1 cycle per resolved conditional and 5 cycles
per misprediction. The R10000-family predictor is a per-site 2-bit
saturating counter table; we model exactly that (without aliasing, since our
site ids are exact).

:class:`TwoBitPredictorSink` is the production model: a
:class:`~repro.machine.sinks.TraceSink` consuming encoded branch-event
chunks (``site*2 + taken``). It walks each chunk in order through one C
loop (``branch`` in ``native.c``, built by :mod:`repro.machine.native`)
that updates a ``uint8`` counter per site; the sink owns that array and
carries it across chunks. The test oracle (``tests/machine/reference.py``)
replays the same counters site by site in plain Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine import native
from repro.telemetry.instrument import stage_clock

#: Initial counter state of every site (weakly taken).
INITIAL_STATE = 2


@dataclass(frozen=True)
class BranchStats:
    """Outcome of replaying a branch trace."""

    resolved: int
    mispredicted: int


class TwoBitPredictorSink:
    """Streaming per-site 2-bit counters over encoded branch chunks.

    States 0..3, starting at :data:`INITIAL_STATE`; predict taken when
    state >= 2; increment on taken, decrement on not-taken, saturating.
    With telemetry enabled, the replay's time, events and chunks are
    recorded as one ``machine.branch`` span.
    """

    def __init__(self) -> None:
        self._branch = native.lib().branch  # built before any chunk is timed
        # Counter state per site id, grown to the largest id seen.
        self._states = np.empty(0, dtype=np.uint8)
        self._resolved = 0
        self._mispredicted = 0
        self._clock = stage_clock("machine")

    def feed(self, codes: np.ndarray) -> None:
        """Update every site's counter with one chunk of events.

        Raises :class:`~repro.errors.MachineError` on a negative code, which encodes no site,
        before any counter changes.
        """
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        n = len(codes)
        if n == 0:
            return
        self._clock.start()
        if codes.min() < 0:
            first = int(codes[np.argmax(codes < 0)])
            raise MachineError(f"negative branch code {first}: codes are site*2 + taken")
        sites = (int(codes.max()) >> 1) + 1
        if sites > len(self._states):
            self._states = np.concatenate(
                (self._states, np.full(sites - len(self._states), INITIAL_STATE, np.uint8))
            )
        self._mispredicted += self._branch(self._states.ctypes.data, codes.ctypes.data, n)
        self._resolved += n
        self._clock.lap("branch", n)

    def finish(self) -> BranchStats:
        """Accumulated prediction statistics."""
        self._clock.finish()
        return BranchStats(self._resolved, self._mispredicted)
