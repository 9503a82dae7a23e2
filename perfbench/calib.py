"""Machine-speed calibration for the benchmark's time metrics.

On a shared virtual machine the same code runs up to twice as slow for
minutes at a time, in CPU time as well as wall time (other guests share
the host's cores and caches), and the speed can change within a pass. A
pass therefore also times a fixed block of reference work,
:func:`calibrate`, between its grid points, and rescales each point's
CPU time to a machine that runs that block in :data:`REF_S` seconds::

    point seconds at reference speed
        = point CPU seconds * REF_S / mean(block CPU seconds just before and after)

On a 2-vCPU 2.0 GHz Xeon KVM guest whose speed changed by up to 2x,
point CPU time moved with the block's time to the power 0.8-1.0; the
spread (quartile distance over median) of ten runs' figures fell from
10-35% to 3-8%, and all-quiet and all-busy passes still differ by 5-8%.

The block is benchmark-owned code and never changes with the program
under test, so a faster or slower program still moves the rescaled
figures; only the speed of the machine cancels out. Its mix follows the
workloads': interpreter work (dicts, tuples, integer arithmetic, calls)
like the trace producer, the register filter and the analysis layer,
and NumPy work on arrays of a memory chunk's size like the cache model.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU seconds the block takes at reference speed. On the guest above it
#: took about 7 ms on a quiet host and 11-13 ms on a busy one.
REF_S = 0.010

_ARRAY = (np.arange(4096, dtype=np.int64) * 2654435761) % 1000003


def _interpreter_work() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(9000):
        key = (i & 63, (i * 7919) & 255)
        table[key] = table.get(key, 0) + (i ^ acc)
        acc = (acc * 31 + len(table)) & 0xFFFF
    return acc


def _numpy_work() -> int:
    a = _ARRAY
    total = 0
    for shift in range(4):
        b = np.sort(a >> shift)
        lines = np.unique(b >> 3)
        hit = np.isin(a >> 3, lines[::2])
        total += int(np.cumsum(b[hit])[-1] & 0xFFFF)
    return total


def calibrate() -> float:
    """CPU seconds of one run of the reference block."""
    c0 = time.process_time()
    _interpreter_work()
    _numpy_work()
    return time.process_time() - c0


def warm_up() -> None:
    """Run the block twice untimed: its first run in a process takes two
    to three times as long (first calls into NumPy)."""
    calibrate()
    calibrate()


def at_reference(cpu_s: float, *block_s: float) -> float:
    """*cpu_s* rescaled to reference speed, the machine's speed being the
    median of the blocks timed around it."""
    return cpu_s * REF_S / statistics.median(block_s)
