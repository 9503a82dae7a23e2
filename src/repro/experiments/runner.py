"""Running kernel variants under the machine model.

``measure_variant`` is the single code path every figure uses: resolve the
variant through the **recipe registry** (:mod:`repro.kernels.recipes`),
build its program with the :class:`~repro.pipeline.manager.PassManager`
(keeping the per-pass timing report), compile with tracing, run on
deterministic inputs, replay the traces through the simulated Octane2, and
return the :class:`~repro.machine.perfcounters.PerfReport`.

Measurements are memoised in-process (capped LRU; :func:`clear_caches`
resets) and, optionally, on disk (``REPRO_CACHE_DIR``; set
``REPRO_NO_CACHE=1`` to disable). Disk-cache keys embed a **content
fingerprint** of the recipe, the emitted program, and the machine config
(:func:`repro.pipeline.recipe.measurement_fingerprint`), and the run
parameters it hashes include a digest of the ``repro`` package's own
sources — any change to a pass parameter, the emitted code, the cost
model, or the executor and machine model that compute the report changes
the filename, so stale entries are simply never read again. No
hand-bumped version tag to forget.

Sweep grids fan out across processes with :func:`measure_points`
(``REPRO_JOBS``, default 1). Every worker starts with *empty* in-process
memos (:func:`clear_caches` runs as the pool initializer) but shares the
fingerprint-keyed disk cache, whose writes are atomic
(temp file + ``os.replace``) so a concurrent reader can never observe a
truncated report. The figure generators then assemble their output
through the unchanged serial path, which finds every point already
memoised — parallel runs are byte-identical to serial ones.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.errors import ReproError
from repro.exec.compiled import CompiledProgram
from repro.experiments.sweep import SweepConfig, resolve_jobs
from repro.ir.program import Program
from repro.kernels.registry import get_kernel, get_recipe
from repro.machine.perfcounters import PerfReport, measure_streaming
from repro.pipeline.manager import PassManager, PipelineReport
from repro.pipeline.passes import PassContext
from repro.pipeline.recipe import VariantRecipe, measurement_fingerprint
from repro.utils.caching import LRUCache


@dataclass(frozen=True)
class VariantMeasurement:
    """One measured (kernel, variant, size) point."""

    kernel: str
    variant: str
    n: int
    tile: int | None
    report: PerfReport
    #: Per-pass build evidence (None when the measurement came from cache
    #: without a fresh in-process build this call — never the case today,
    #: since the fingerprint requires building the program).
    pipeline: PipelineReport | None = None


_log = logging.getLogger("repro.sweep")

_memo: LRUCache = LRUCache(maxsize=4096)
_built: LRUCache = LRUCache(maxsize=256)
_compiled: LRUCache = LRUCache(maxsize=256)


def clear_caches() -> None:
    """Drop every in-process memo (measurements, built programs,
    compiled engines). Disk cache is untouched.

    Also the :func:`measure_points` pool initializer: forked workers
    inherit the parent's memos, and a sweep worker must re-measure (or
    disk-load) rather than answer from inherited state, so each worker
    starts cold in-process and warm on disk.
    """
    from repro.poly import memo as poly_memo

    _memo.clear()
    _built.clear()
    _compiled.clear()
    poly_memo.clear_memos()


def _cache_dir() -> Path | None:
    if os.environ.get("REPRO_NO_CACHE", "") == "1":
        return None
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def _load_cached(key: str) -> PerfReport | None:
    d = _cache_dir()
    if d is None:
        return None
    path = d / f"{key}.json"
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        return PerfReport(**data)
    except (OSError, json.JSONDecodeError, TypeError) as exc:
        # Unreadable or malformed entries mean "not cached": recompute
        # and overwrite rather than fail the sweep — but never silently.
        # A corrupt entry is tolerated once here and detectable forever:
        # counted, logged, and surfaced in the telemetry summary.
        telemetry.counter("sweep.cache.corrupt")
        _log.warning(
            "sweep cache: discarding unreadable entry %s (%s: %s)",
            path, type(exc).__name__, exc,
        )
        return None


def _store_cached(key: str, report: PerfReport) -> None:
    d = _cache_dir()
    if d is None:
        return
    path = d / f"{key}.json"
    # Write-then-rename so concurrent sweep workers never expose a
    # truncated JSON file to a reader; os.replace is atomic within the
    # cache directory.
    tmp = d / f".{key}.{os.getpid()}.tmp"
    try:
        d.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(report.as_dict()))
        os.replace(tmp, path)
    except OSError as exc:
        # The point is already measured: an unwritable cache costs the
        # next run a recompute, never this run its report. Counted and
        # logged like a corrupt entry.
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        telemetry.counter("sweep.cache.write_failed")
        _log.warning(
            "sweep cache: cannot write entry %s (%s: %s)",
            path, type(exc).__name__, exc,
        )


def build_program(
    kernel: str, variant: str, *, tile: int | None = None,
    time_tile: int | None = None,
) -> tuple[Program, PipelineReport, VariantRecipe]:
    """Build one variant through its registered recipe (memoised).

    Raises :class:`~repro.errors.ReproError` for unknown kernels/variants,
    listing the registered choices.
    """
    recipe = get_recipe(kernel, variant)

    def compute():
        ctx = PassContext(
            kernel=get_kernel(kernel), tile=tile, time_tile=time_tile
        )
        return PassManager().build(recipe, ctx)

    program, pipeline = _built.get_or_compute(
        (kernel, variant, tile, time_tile), compute
    )
    return program, pipeline, recipe


def _params_for(kernel: str, n: int, config: SweepConfig) -> dict[str, int]:
    params = {"N": n}
    if "M" in get_kernel(kernel).PARAMS:
        params["M"] = config.jacobi_m
    return params


def _tile_for(variant: str, n: int, config: SweepConfig, tile: int | None) -> int | None:
    if variant in ("tiled", "tiled_sunk") and tile is None:
        return config.tile_for(n)
    return tile


@functools.cache
def _source_digest() -> str:
    """Digest of every ``*.py`` source of the ``repro`` package.

    Part of each measurement key, so an edit anywhere in the
    implementation (executor, machine model, passes) invalidates the
    disk cache. Computed once per process, on first use.
    """
    root = Path(__file__).resolve().parents[1]
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _point_key(
    kernel: str,
    variant: str,
    n: int,
    config: SweepConfig,
    tile: int | None,
    program: Program,
    recipe: VariantRecipe,
) -> str:
    """Memo/disk key of one measurement: human-readable prefix plus the
    content fingerprint (shared by the parent and every sweep worker)."""
    params = _params_for(kernel, n, config)
    return (
        f"{kernel}-{variant}-N{n}-"
        + measurement_fingerprint(
            recipe,
            program,
            config.machine,
            {
                "params": params,
                "tile": tile,
                "seed": config.seed,
                "source": _source_digest(),
            },
        )
    )


def measure_variant(
    kernel: str,
    variant: str,
    n: int,
    config: SweepConfig,
    *,
    tile: int | None = None,
) -> VariantMeasurement:
    """Measure one (kernel, variant, N) point (memoised).

    The trace streams through the fused sink pipeline in bounded memory.
    """
    tile = _tile_for(variant, n, config, tile)
    program, pipeline, recipe = build_program(kernel, variant, tile=tile)
    params = _params_for(kernel, n, config)
    key = _point_key(kernel, variant, n, config, tile, program, recipe)
    if key in _memo:
        telemetry.counter("sweep.memo.hit")
        return _memo[key]

    # One span per *measured* grid point: memo hits above never reach
    # here, so a sweep's `sweep.point` span count equals the number of
    # points that actually went to disk or to the machine model.
    with telemetry.span(
        "sweep.point", kernel=kernel, variant=variant, n=n
    ) as sp:
        cached = _load_cached(key)
        if cached is not None:
            telemetry.counter("sweep.cache.hit")
            sp.set(source="disk")
            result = VariantMeasurement(kernel, variant, n, tile, cached, pipeline)
            _memo[key] = result
            return result
        telemetry.counter("sweep.cache.miss")

        mod = get_kernel(kernel)
        rng = np.random.default_rng(config.seed)
        inputs = mod.make_inputs(params, rng)

        def compile_program():
            return CompiledProgram(program, trace=True)

        cp = _compiled.get_or_compute((kernel, variant, tile), compile_program)
        _, report = measure_streaming(cp, params, config.machine, inputs)
        _store_cached(key, report)
        sp.set(source="computed")
        result = VariantMeasurement(kernel, variant, n, tile, report, pipeline)
        _memo[key] = result
        return result


def _measure_point_worker(
    point: tuple[str, str, int],
    config: SweepConfig,
    with_telemetry: bool = False,
) -> tuple[tuple[str, str, int], dict[str, float], dict | None]:
    """Sweep-pool body: measure one point, return its report as a dict
    plus (when the parent is recording) the worker's serialized telemetry.

    Runs in a worker whose in-process memos were cleared by the pool
    initializer; the measurement also lands in the shared disk cache (if
    enabled) via the atomic writer. Telemetry is reset *per point* so a
    forking pool never re-exports inherited parent spans — the parent
    absorbs exactly one point's evidence per returned state.
    """
    if with_telemetry:
        telemetry.reset()
        telemetry.enable()
    kernel, variant, n = point
    report = measure_variant(kernel, variant, n, config).report.as_dict()
    state = telemetry.export_state() if with_telemetry else None
    return point, report, state


def measure_points(
    points: list[tuple[str, str, int]],
    config: SweepConfig,
    *,
    jobs: int | None = None,
) -> list[VariantMeasurement]:
    """Measure a grid of (kernel, variant, N) points, optionally in
    parallel, and return them in input order.

    ``jobs`` (default: ``REPRO_JOBS``, i.e. 1) sets the worker-process
    count. With 1 the points run serially through
    :func:`measure_variant` — exactly the historical code path. With
    more, the *unmemoised* points fan out across a
    ``ProcessPoolExecutor`` whose workers start with cleared in-process
    memos (see :func:`clear_caches`) but share the disk cache; the
    parent then seeds its own memo from the workers' reports, so
    subsequent serial figure assembly reuses them byte-identically even
    with ``REPRO_NO_CACHE=1``. A worker failure re-raises as a
    :class:`~repro.errors.ReproError` naming the failed point, chained
    to the worker's exception.
    """
    points = [tuple(p) for p in points]
    jobs = resolve_jobs(jobs)
    todo = []
    for kernel, variant, n in dict.fromkeys(points):
        tile = _tile_for(variant, n, config, None)
        program, _, recipe = build_program(kernel, variant, tile=tile)
        key = _point_key(kernel, variant, n, config, tile, program, recipe)
        if key not in _memo:
            todo.append((kernel, variant, n))
    if jobs > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with_telemetry = telemetry.enabled()
        reports: dict[tuple[str, str, int], dict[str, float]] = {}
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(todo)), initializer=clear_caches
        ) as pool:
            futures = {
                pool.submit(_measure_point_worker, p, config, with_telemetry): p
                for p in todo
            }
            for fut in as_completed(futures):
                try:
                    point, data, state = fut.result()
                except Exception as exc:
                    for other in futures:
                        other.cancel()  # fail fast: drop the queued points
                    kernel, variant, n = futures[fut]
                    raise ReproError(
                        f"sweep point (kernel={kernel}, variant={variant}, "
                        f"N={n}) failed in a worker: {exc}"
                    ) from exc
                reports[point] = data
                # Fold each worker's spans/metrics into the parent so a
                # parallel sweep yields one coherent trace.
                telemetry.absorb(state)
        for kernel, variant, n in todo:
            tile = _tile_for(variant, n, config, None)
            program, pipeline, recipe = build_program(kernel, variant, tile=tile)
            key = _point_key(kernel, variant, n, config, tile, program, recipe)
            if key not in _memo:
                report = PerfReport(**reports[(kernel, variant, n)])
                _memo[key] = VariantMeasurement(
                    kernel, variant, n, tile, report, pipeline
                )
    return [measure_variant(k, v, n, config) for k, v, n in points]


def run_pair(
    kernel: str, n: int, config: SweepConfig
) -> tuple[VariantMeasurement, VariantMeasurement, float]:
    """(seq, tiled, speedup) for one kernel and size."""
    seq = measure_variant(kernel, "seq", n, config)
    tiled = measure_variant(kernel, "tiled", n, config)
    speedup = seq.report.total_cycles / tiled.report.total_cycles
    return seq, tiled, speedup
