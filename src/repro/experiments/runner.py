"""Running kernel variants under the machine model.

:func:`measure_recipe` is the single code path behind every printed
number: take a :class:`~repro.pipeline.recipe.VariantRecipe`, bind the
sweep's tile if its ``Tile`` passes ask for one, build its program with
the :class:`~repro.pipeline.manager.PassManager` (keeping the per-pass
timing report), compile with tracing, run on deterministic inputs, replay
the traces through the simulated Octane2, and return the
:class:`~repro.machine.perfcounters.PerfReport`. :func:`measure_variant`
is the same call for a recipe looked up in the **recipe registry**
(:mod:`repro.kernels.recipes`); the ablations measure their unregistered
recipes directly.

Measurements are memoised in-process (capped LRU; :func:`clear_caches`
resets) and, optionally, on disk (``REPRO_CACHE_DIR``; set
``REPRO_NO_CACHE=1`` to disable). Disk-cache keys embed a **content
fingerprint** of the recipe, the emitted program, and the machine config
(:func:`repro.pipeline.recipe.measurement_fingerprint`), including a
digest of the ``repro`` package's own sources, the machine model's C core
among them — any change to a pass parameter, the emitted code, the cost
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
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import ReproError
from repro.exec import compiled
from repro.experiments.sweep import SweepConfig, resolve_jobs
from repro.ir.program import Program
from repro.kernels.registry import get_kernel, get_recipe
from repro.machine import native
from repro.machine.perfcounters import PerfReport, measure_streaming
from repro.pipeline.manager import PassManager, PipelineReport
from repro.pipeline.passes import PassContext
from repro.pipeline.recipe import VariantRecipe, measurement_fingerprint
from repro.utils.caching import LRUCache, cache_dir


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
#: Sweep inputs per (kernel, params, seed): the variants of one point run
#: on the same arrays, so they are made once and shared read-only.
_inputs: LRUCache = LRUCache(maxsize=4)


def clear_caches() -> None:
    """Drop every in-process memo (measurements, built programs, sweep
    inputs). Disk cache and the built C programs are untouched.

    Also the :func:`measure_points` pool initializer: forked workers
    inherit the parent's memos, and a sweep worker must re-measure (or
    disk-load) rather than answer from inherited state, so each worker
    starts cold in-process and warm on disk.
    """
    from repro.poly import memo as poly_memo

    _memo.clear()
    _built.clear()
    _inputs.clear()
    poly_memo.clear_memos()


def _load_cached(key: str) -> PerfReport | None:
    d = cache_dir()
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
    d = cache_dir()
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


def _build(
    recipe: VariantRecipe, tile: int | None, time_tile: int | None = None
) -> tuple[Program, PipelineReport]:
    """Build *recipe* at one tile binding (memoised on the recipe's
    content, so two recipes share a build only if they describe the same
    passes)."""

    def compute():
        ctx = PassContext(
            kernel=get_kernel(recipe.kernel), tile=tile, time_tile=time_tile
        )
        return PassManager().build(recipe, ctx)

    return _built.get_or_compute((recipe.fingerprint(), tile, time_tile), compute)


def build_program(
    kernel: str, variant: str, *, tile: int | None = None,
    time_tile: int | None = None,
) -> tuple[Program, PipelineReport, VariantRecipe]:
    """Build one variant through its registered recipe (memoised).

    Raises :class:`~repro.errors.ReproError` for unknown kernels/variants,
    listing the registered choices.
    """
    recipe = get_recipe(kernel, variant)
    program, pipeline = _build(recipe, tile, time_tile)
    return program, pipeline, recipe


def _params_for(kernel: str, n: int, config: SweepConfig) -> dict[str, int]:
    params = {"N": n}
    if "M" in get_kernel(kernel).PARAMS:
        params["M"] = config.jacobi_m
    return params


def point_inputs(
    kernel: str, n: int, config: SweepConfig
) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """The parameters and inputs of one sweep point: made once per (kernel,
    params, seed) and shared read-only (the executor copies its inputs)."""
    params = _params_for(kernel, n, config)
    key = (kernel, tuple(sorted(params.items())), config.seed)
    inputs = _inputs.get(key)
    if inputs is None:
        rng = np.random.default_rng(config.seed)
        with telemetry.span("sweep.inputs", kernel=kernel, n=n):
            inputs = get_kernel(kernel).make_inputs(params, rng)
        for array in inputs.values():
            array.flags.writeable = False
        _inputs[key] = inputs
    return params, inputs


def _point(
    recipe: VariantRecipe, n: int, config: SweepConfig, tile: int | None
) -> tuple[int | None, Program, PipelineReport, str]:
    """Resolve one measurement point: tile policy, build, and the memo/disk
    key (a human-readable prefix plus the content fingerprint, shared by
    the parent and every sweep worker).

    A recipe whose :class:`~repro.pipeline.passes.Tile` passes read the
    ``TILE`` placeholder takes the sweep's tile unless *tile* is given.
    """
    if tile is None and recipe.takes_tile:
        tile = config.tile_for(n)
    program, pipeline = _build(recipe, tile)
    key = f"{recipe.kernel}-{recipe.variant}-N{n}-" + measurement_fingerprint(
        recipe,
        program,
        config.machine,
        {
            "params": _params_for(recipe.kernel, n, config),
            "tile": tile,
            "seed": config.seed,
        },
    )
    return tile, program, pipeline, key


def measure_recipe(
    recipe: VariantRecipe,
    n: int,
    config: SweepConfig,
    *,
    tile: int | None = None,
) -> VariantMeasurement:
    """Measure *recipe* at size *n* (memoised in-process and on disk).

    Every printed number goes through here; the recipe need not be
    registered. The trace streams through the fused sink pipeline in
    bounded memory.
    """
    tile, program, pipeline, key = _point(recipe, n, config, tile)
    if key in _memo:
        telemetry.counter("sweep.memo.hit")
        return _memo[key]

    kernel, variant = recipe.kernel, recipe.variant
    # One span per *measured* grid point: memo hits above never reach
    # here, so a sweep's `sweep.point` span count equals the number of
    # points that actually went to disk or to the machine model.
    with telemetry.span(
        "sweep.point", kernel=kernel, variant=variant, n=n
    ) as sp:
        report = _load_cached(key)
        if report is not None:
            telemetry.counter("sweep.cache.hit")
            sp.set(source="disk")
        else:
            telemetry.counter("sweep.cache.miss")
            params, inputs = point_inputs(kernel, n, config)
            cp = compiled.CompiledProgram(program, trace=True)
            _, report = measure_streaming(cp, params, config.machine, inputs)
            _store_cached(key, report)
            sp.set(source="computed")
        result = VariantMeasurement(kernel, variant, n, tile, report, pipeline)
        _memo[key] = result
        return result


def measure_variant(
    kernel: str,
    variant: str,
    n: int,
    config: SweepConfig,
    *,
    tile: int | None = None,
) -> VariantMeasurement:
    """Measure one registered (kernel, variant, N) point: a registry
    lookup in front of :func:`measure_recipe`."""
    return measure_recipe(get_recipe(kernel, variant), n, config, tile=tile)


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
    with ``REPRO_NO_CACHE=1``. Either way the parent first builds the
    programs of every unmemoised point in one ``cc`` call
    (:func:`repro.exec.compiled.build`), and it loads the C memory core
    (:func:`repro.machine.native.lib`) before it forks the pool, so the
    workers share both builds. A worker failure re-raises as a
    :class:`~repro.errors.ReproError` naming the failed point, chained
    to the worker's exception.
    """
    points = [tuple(p) for p in points]
    jobs = resolve_jobs(jobs)
    todo: dict[tuple[str, str, int], tuple[int | None, PipelineReport, str]] = {}
    programs = []
    for point in dict.fromkeys(points):
        kernel, variant, n = point
        tile, program, pipeline, key = _point(get_recipe(kernel, variant), n, config, None)
        if key not in _memo:
            todo[point] = (tile, pipeline, key)
            programs.append(compiled.CompiledProgram(program, trace=True))
    compiled.build(programs)
    if jobs > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Load the C core before forking: the workers inherit it instead
        # of each compiling its own (under REPRO_NO_CACHE=1).
        native.lib()
        with_telemetry = telemetry.enabled()
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
                # Fold each worker's spans/metrics into the parent so a
                # parallel sweep yields one coherent trace.
                telemetry.absorb(state)
                tile, pipeline, key = todo[point]
                _memo[key] = VariantMeasurement(
                    *point, tile, PerfReport(**data), pipeline
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
