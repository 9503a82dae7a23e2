"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry point of each layer with a timing
span. Spans nest (the memory sink's stages run inside ``feed``, which
runs inside ``run_streaming``), so every layer gets its *self* time: its
span's duration minus the time its child spans cover. Per-layer self
times, call counts and the events each layer consumed are kept in memory
per point ("row") and turned into metrics after the pass.

Only the traced benchmark pass installs the wrappers; the untraced pass
runs the program untouched.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from repro.exec.compiled import CompiledProgram
from repro.experiments import runner
from repro.machine import perfcounters
from repro.machine.branch import TwoBitPredictorSink
from repro.machine.hierarchy import HierarchySink
from repro.machine.layout import MemoryLayout
from repro.machine.perfcounters import MemoryPipelineSink
from repro.machine.registers import RegisterFilterSink
from repro.pipeline import recipe as recipe_mod
from repro.pipeline.manager import PassManager
from repro.poly import memo

from workloads import CHUNK_HIST_BUCKETS

#: Layers in pipeline order; each is one wrapped entry point.
LAYERS = (
    "build", "fingerprint", "codegen", "produce", "memsink",
    "decode", "layout", "regfilter", "l1l2", "branch",
)


class Tracer:
    """Timing spans around each layer's entry point, aggregated per row."""

    def __init__(self) -> None:
        #: Label of the point being measured; set by the caller.
        self.row: str | None = None
        self._stack: list[list[float]] = []
        #: (row, layer) -> [self seconds, calls]
        self._acc: dict[tuple, list] = {}
        #: (row, counter) -> count
        self.counts: dict[tuple, int] = defaultdict(int)
        self.chunk_sizes: list[int] = []
        self.compiled: list[CompiledProgram] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _timed(self, owner, attr: str, layer: str, count=None) -> None:
        """Wrap ``owner.attr`` in a span of *layer*; ``count(args)``
        returns the events the call consumes."""
        stack, acc, counts = self._stack, self._acc, self.counts
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                row = self.row
                if count is not None:
                    counts[row, layer] += count(args)
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    a = acc.get((row, layer))
                    if a is None:
                        a = acc[row, layer] = [0.0, 0]
                    a[0] += dt - frame[0]
                    a[1] += 1

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer's public entry point."""
        chunk_sizes = self.chunk_sizes

        def memory_chunk(args) -> int:
            n = len(args[1])
            chunk_sizes.append(n)
            return n

        self._timed(PassManager, "build", "build")
        # The runner imported the function by name; the registry workload
        # calls it through its module.
        self._timed(runner, "measurement_fingerprint", "fingerprint")
        self._timed(recipe_mod, "measurement_fingerprint", "fingerprint")
        self._timed(CompiledProgram, "__init__", "codegen")
        self._timed(CompiledProgram, "run_streaming", "produce")
        self._timed(MemoryPipelineSink, "feed", "memsink", count=memory_chunk)
        # MemoryPipelineSink.feed resolves decode_memory_events in its own
        # module's namespace.
        self._timed(perfcounters, "decode_memory_events", "decode")
        self._timed(MemoryLayout, "addresses", "layout")
        self._timed(RegisterFilterSink, "feed", "regfilter",
                    count=lambda a: len(a[1][0]))
        self._timed(HierarchySink, "feed", "l1l2", count=lambda a: len(a[1]))
        self._timed(TwoBitPredictorSink, "feed", "branch",
                    count=lambda a: len(a[1]))

        def keep_instance(init):
            def wrapper(cp, *args, **kwargs):
                init(cp, *args, **kwargs)
                self.compiled.append(cp)

            return wrapper

        # Outermost, so the instance is recorded after the timed codegen.
        self._patch(CompiledProgram, "__init__", keep_instance)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _sum(self, layer: str, field: int, row=...) -> float:
        return sum(
            (v[field] for (r, l), v in self._acc.items()
             if l == layer and (row is ... or r == row)),
            0.0,
        )

    def _count(self, layer: str, row=...) -> int:
        return sum(
            v for (r, l), v in self.counts.items()
            if l == layer and (row is ... or r == row)
        )

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the whole pass (names as in BENCHMARK.json,
        except ``trace.overhead_ratio``, which needs an untraced pass)."""
        self_s = {layer: self._sum(layer, 0) for layer in LAYERS}
        regfilter_events = self._count("regfilter")
        l1l2_events = self._count("l1l2")
        loops = sum(len(cp.loop_tiers) for cp in self.compiled)
        block_loops = sum(cp.block_loops for cp in self.compiled)
        totals = memo.stats()["totals"]
        lookups = totals["hit"] + totals["miss"]
        sizes = np.asarray(self.chunk_sizes, dtype=np.int64)
        out = {
            "pipeline.build_s": self_s["build"],
            "pipeline.programs": float(self._sum("build", 1)),
            "poly.memo.hit_ratio": totals["hit"] / lookups if lookups else 0.0,
            "exec.codegen_s": self_s["codegen"],
            "exec.block_loop_ratio": block_loops / loops if loops else 0.0,
            "exec.produce_s": self_s["produce"],
            "exec.guard_rejected": float(
                sum(cp.fallbacks.guard_rejected for cp in self.compiled)
            ),
            "exec.below_min_trip": float(
                sum(cp.fallbacks.below_min_trip for cp in self.compiled)
            ),
            "machine.chunks": float(len(sizes)),
            "machine.events": float(sizes.sum()),
            "machine.events_per_chunk_p50": (
                float(np.median(sizes)) if len(sizes) else 0.0
            ),
            "machine.decode_s": self_s["decode"],
            "machine.layout_s": self_s["layout"],
            "machine.regfilter_s": self_s["regfilter"],
            "machine.regfilter_events_per_s": _rate(
                regfilter_events, self_s["regfilter"]
            ),
            "machine.l1l2_s": self_s["l1l2"],
            "machine.l1l2_events_per_s": _rate(l1l2_events, self_s["l1l2"]),
            "machine.memsink_self_s": self_s["memsink"],
            "machine.branch_s": self_s["branch"],
            "machine.branch_events": float(self._count("branch")),
            "experiments.fingerprint_s": self_s["fingerprint"],
            "experiments.traced_wall_s": wall_s,
            "experiments.other_s": wall_s - sum(self_s.values()),
        }
        buckets = np.zeros(CHUNK_HIST_BUCKETS, dtype=np.int64)
        if len(sizes):
            exp = np.floor(np.log2(np.maximum(sizes, 1))).astype(np.int64)
            np.add.at(buckets, np.minimum(exp, CHUNK_HIST_BUCKETS - 1), 1)
        for b, n in enumerate(buckets.tolist()):
            out[f"machine.chunk_hist.b{b:02d}"] = float(n)
        return out

    def rows(self, labels: list[str]) -> list[dict]:
        """One row per grid point: self seconds per layer, chunks, events."""
        out = []
        for row in labels:
            entry = {"point": row}
            for layer in LAYERS:
                entry[f"{layer}_s"] = self._sum(layer, 0, row)
            entry["chunks"] = int(self._sum("memsink", 1, row))
            entry["events"] = self._count("memsink", row)
            entry["branch_events"] = self._count("branch", row)
            out.append(entry)
        return out


def _rate(events: int, seconds: float) -> float:
    return events / seconds if seconds > 0 else 0.0
