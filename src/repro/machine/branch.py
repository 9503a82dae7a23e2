"""Branch prediction models.

Figure 7 of the paper charges 1 cycle per resolved conditional and 5 cycles
per misprediction. The R10000-family predictor is a per-site 2-bit
saturating counter table; we model exactly that (without aliasing, since our
site ids are exact).

:class:`TwoBitPredictorSink` is the production model: a
:class:`~repro.machine.sinks.TraceSink` consuming encoded branch-event
chunks (``site*2 + taken``). Sites are independent and the sink preserves
per-site order, so its interleaved streaming replay equals a replay
grouped by site; the test oracle (``tests/machine/reference.py``) replays
that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Initial counter state of every site (weakly taken).
INITIAL_STATE = 2


@dataclass(frozen=True)
class BranchStats:
    """Outcome of replaying a branch trace."""

    resolved: int
    mispredicted: int

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions / resolved (0 for an empty trace)."""
        return self.mispredicted / self.resolved if self.resolved else 0.0


class TwoBitPredictorSink:
    """Streaming per-site 2-bit counters over encoded branch chunks.

    States 0..3, starting at :data:`INITIAL_STATE`; predict taken when
    state >= 2; increment on taken, decrement on not-taken, saturating.
    """

    def __init__(self) -> None:
        self._states: dict[int, int] = {}
        self._resolved = 0
        self._mispredicted = 0

    def feed(self, codes: np.ndarray) -> None:
        """Update every site's counter with one chunk of events."""
        states = self._states
        init = INITIAL_STATE
        mispredicted = 0
        for code in np.asarray(codes, dtype=np.int64).tolist():
            site = code >> 1
            outcome = code & 1
            state = states.get(site, init)
            if (state >= 2) != bool(outcome):
                mispredicted += 1
            if outcome:
                if state < 3:
                    state += 1
            elif state > 0:
                state -= 1
            states[site] = state
        self._resolved += len(codes)
        self._mispredicted += mispredicted

    def finish(self) -> BranchStats:
        """Accumulated prediction statistics."""
        return BranchStats(self._resolved, self._mispredicted)
