"""Branch prediction models.

Figure 7 of the paper charges 1 cycle per resolved conditional and 5 cycles
per misprediction. The R10000-family predictor is a per-site 2-bit
saturating counter table; we model exactly that (without aliasing, since our
site ids are exact).

:class:`TwoBitPredictorSink` is the production model: a
:class:`~repro.machine.sinks.TraceSink` consuming encoded branch-event
chunks (``site*2 + taken``). It replays a chunk by runs rather than by
events, and the replay is exact for three reasons:

- sites are independent: a counter only ever sees its own site's events,
  so any interleaving of the sites gives the same counts;
- a stable sort by site keeps each site's events in program order, and
  the per-site states carry across chunks, so the replay grouped by site
  is the streaming replay;
- the counter saturates, so a run of ``L`` equal outcomes from state
  ``s`` has a closed form. A taken run mispredicts
  ``min(L, max(0, 2 - s))`` times and ends at ``min(3, s + L)``; a
  not-taken run mispredicts ``min(L, max(0, s - 1))`` times and ends at
  ``max(0, s - L)``.

Three equal outcomes saturate the counter from any state, so a run's
effect depends on ``L`` only through ``min(L, 3)``; the replay looks each
run up in a table of the closed form over (state, outcome, ``min(L, 3)``).

The guards behind the sinking variants are biased, so a chunk holds far
fewer runs than events (qr ``tiled_sunk`` at N=72: 1,143,180 events in
16,349 runs), and only the runs reach Python. The test oracle
(``tests/machine/reference.py``) replays event by event, site by site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.instrument import stage_clock

#: Initial counter state of every site (weakly taken).
INITIAL_STATE = 2


def _run(state: int, taken: int, length: int) -> tuple[int, int]:
    """(end state, mispredictions) of ``length`` equal outcomes from ``state``."""
    if taken:
        return min(3, state + length), min(length, max(0, 2 - state))
    return max(0, state - length), min(length, max(0, state - 1))


#: ``_RUNS[state][taken * 4 + min(length, 3)]`` is ``_run(state, taken,
#: length)``; entries 0 and 4 (empty runs) are never read.
_RUNS = [[_run(s, step >> 2, step & 3) for step in range(8)] for s in range(4)]


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
        # Counter state per site id, grown to the largest id seen.
        self._states: list[int] = []
        self._resolved = 0
        self._mispredicted = 0
        self._clock = stage_clock("machine")

    def feed(self, codes: np.ndarray) -> None:
        """Update every site's counter with one chunk of events.

        Raises ``ValueError`` on a negative code, which encodes no site.
        """
        codes = np.asarray(codes, dtype=np.int64)
        n = len(codes)
        if n == 0:
            return
        self._clock.start()
        if codes.min() < 0:
            first = int(codes[np.argmax(codes < 0)])
            raise ValueError(f"negative branch code {first}: codes are site*2 + taken")
        sites = codes >> 1
        top = int(sites.max())
        states = self._states
        if top >= len(states):
            states.extend([INITIAL_STATE] * (top + 1 - len(states)))
        # Site ids are small, so the key is narrow and the stable sort a
        # radix sort.
        order = np.argsort(sites.astype(np.min_scalar_type(top)), kind="stable")
        grouped = codes[order]
        starts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
        lengths = np.diff(starts, prepend=0, append=n)
        run_codes = grouped[np.concatenate(([0], starts))]
        steps = (run_codes & 1) << 2 | np.minimum(lengths, 3)
        mispredicted = 0
        for site, step in zip((run_codes >> 1).tolist(), steps.tolist()):
            states[site], missed = _RUNS[states[site]][step]
            mispredicted += missed
        self._resolved += n
        self._mispredicted += mispredicted
        self._clock.lap("branch", n)

    def finish(self) -> BranchStats:
        """Accumulated prediction statistics."""
        self._clock.finish()
        return BranchStats(self._resolved, self._mispredicted)
