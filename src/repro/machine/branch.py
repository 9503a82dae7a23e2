"""Branch prediction models.

Figure 7 of the paper charges 1 cycle per resolved conditional and 5 cycles
per misprediction. The R10000-family predictor is a per-site 2-bit
saturating counter table; we model exactly that (without aliasing, since our
site ids are exact).

:class:`TwoBitPredictorSink` is the production model: a
:class:`~repro.machine.sinks.TraceSink` consuming encoded branch-event
chunks (``site*2 + taken``). Sites are independent and the sink preserves
per-site order, so interleaved streaming replay is equivalent to the
grouped-by-site replay of :meth:`TwoBitPredictor.simulate`. That method
is the branch oracle: it regroups the events by site before replaying,
so it checks the sink's interleaving rather than repeating it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BranchStats:
    """Outcome of replaying a branch trace."""

    resolved: int
    mispredicted: int

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions / resolved (0 for an empty trace)."""
        return self.mispredicted / self.resolved if self.resolved else 0.0


class TwoBitPredictor:
    """Per-site 2-bit saturating counter (init: weakly taken).

    States 0..3; predict taken when state >= 2; increment on taken,
    decrement on not-taken, saturating.
    """

    #: Initial counter state (weakly taken).
    INITIAL_STATE = 2

    def simulate(self, site_ids: np.ndarray, taken: np.ndarray) -> BranchStats:
        """Replay (site, outcome) events in order; sites are independent, so
        events are processed grouped by site (stable order within a site)."""
        n = len(site_ids)
        if n == 0:
            return BranchStats(0, 0)
        order = np.argsort(site_ids, kind="stable")
        sid_sorted = site_ids[order]
        taken_sorted = taken[order].tolist()
        boundaries = np.flatnonzero(np.diff(sid_sorted)) + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), n]
        mispredicted = 0
        for start, end in zip(starts, ends):
            state = self.INITIAL_STATE
            for pos in range(start, end):
                outcome = taken_sorted[pos]
                if (state >= 2) != bool(outcome):
                    mispredicted += 1
                if outcome:
                    if state < 3:
                        state += 1
                elif state > 0:
                    state -= 1
        return BranchStats(resolved=n, mispredicted=mispredicted)


class TwoBitPredictorSink:
    """Streaming per-site 2-bit counters over encoded branch chunks."""

    def __init__(self) -> None:
        self._states: dict[int, int] = {}
        self._resolved = 0
        self._mispredicted = 0

    def feed(self, codes: np.ndarray) -> None:
        """Update every site's counter with one chunk of events."""
        states = self._states
        init = TwoBitPredictor.INITIAL_STATE
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
