"""Running kernel variants under the machine model.

Every printed number takes one code path, :func:`measure_points`: resolve
each point's :class:`~repro.pipeline.recipe.VariantRecipe` at its size
(bind its tile if its ``Tile`` passes ask for one, build its program with
the :class:`~repro.pipeline.manager.PassManager`, keeping the per-pass
timing report, and fingerprint it), compile the programs with tracing in
one batch, run them on deterministic inputs, replay the traces through
the simulated Octane2, and return the
:class:`~repro.machine.perfcounters.PerfReport`\\ s. A point names a
registered variant (:mod:`repro.kernels.recipes`) or an unregistered
recipe of its kernel (the ablations' local recipes), and optionally a
tile edge; without one a tiled point takes the sweep's PDAT edge.

Builds go straight to the manager, whose one memo of built pass
prefixes (:mod:`repro.pipeline.manager`) runs FixDeps once per kernel
however many variants and tile edges follow it. Measurements are
memoised in-process (capped LRU; :func:`clear_caches` resets both) and,
optionally, on disk (``REPRO_CACHE_DIR``; set
``REPRO_NO_CACHE=1`` to disable). Disk-cache keys embed a **content
fingerprint** of the recipe, the emitted program, and the machine config
(:func:`repro.pipeline.recipe.measurement_fingerprint`), including a
digest of the ``repro`` package's own sources, the machine model's C core
among them — any change to a pass parameter, the emitted code, the cost
model, or the executor and machine model that compute the report changes
the filename, so stale entries are simply never read again. No
hand-bumped version tag to forget.

Sweep grids fan out across processes with :func:`measure_points`
(``REPRO_JOBS``, default 1). The parent resolves every point once
(build, fingerprint, generated C, one ``cc`` call for the batch) and
forks the pool; each worker measures points the parent resolved, on the
programs it built, so no worker builds or compiles. Workers share the
fingerprint-keyed disk cache, whose writes are atomic (temp file +
``os.replace``) so a concurrent reader can never observe a truncated
report, and the parent memoises what they return. The figure generators
use the measurements :func:`measure_points` returns, so parallel runs are
byte-identical to serial ones.
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
from repro.pipeline import manager
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
    #: Per-pass build evidence of the measured program.
    pipeline: PipelineReport | None = None


_log = logging.getLogger("repro.sweep")

_memo: LRUCache = LRUCache(maxsize=4096)
#: Sweep inputs per (kernel, params, seed): the variants of one point run
#: on the same arrays, so they are made once and shared read-only.
_inputs: LRUCache = LRUCache(maxsize=4)


def clear_caches() -> None:
    """Drop every in-process memo (measurements, built pass prefixes,
    sweep inputs, the polyhedral analysis memo). Disk cache and the built
    C programs are untouched."""
    from repro.poly import memo as poly_memo

    _memo.clear()
    manager.clear_memo()
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


def _build(recipe: VariantRecipe, tile: int | None) -> tuple[Program, PipelineReport]:
    """Build *recipe* at one tile binding (the manager's prefix memo
    shares every pass two builds have in common)."""
    return PassManager().build(recipe, PassContext(kernel=get_kernel(recipe.kernel), tile=tile))


def build_program(
    kernel: str, variant: str, *, tile: int | None = None
) -> tuple[Program, PipelineReport, VariantRecipe]:
    """Build one variant through its registered recipe (memoised).

    Raises :class:`~repro.errors.ReproError` for unknown kernels/variants,
    listing the registered choices.
    """
    recipe = get_recipe(kernel, variant)
    program, pipeline = _build(recipe, tile)
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


@dataclass(frozen=True)
class _Point:
    """One resolved measurement point: the recipe's build at its tile and
    the memo/disk key (a human-readable prefix plus the content
    fingerprint)."""

    recipe: VariantRecipe
    n: int
    tile: int | None
    program: Program
    pipeline: PipelineReport
    key: str

    def measured(self, report: PerfReport) -> VariantMeasurement:
        r = self.recipe
        return VariantMeasurement(r.kernel, r.variant, self.n, self.tile, report, self.pipeline)


def _point(
    kernel: str, variant: str | VariantRecipe, n: int, tile: int | None, config: SweepConfig
) -> _Point:
    """Resolve one measurement point: recipe, tile, build and key.

    A recipe whose :class:`~repro.pipeline.passes.Tile` passes read the
    ``TILE`` placeholder takes *tile*, else the sweep's edge; a tile on a
    recipe that reads none, or a recipe of another kernel, is a
    :class:`~repro.errors.ReproError` naming the point.
    """
    recipe = get_recipe(kernel, variant) if isinstance(variant, str) else variant
    where = f"point (kernel={kernel}, variant={recipe.variant}, N={n}, tile={tile})"
    if recipe.kernel != kernel:
        raise ReproError(f"{where}: recipe {recipe.name} is not a {kernel} recipe")
    if not recipe.takes_tile:
        if tile is not None:
            raise ReproError(f"{where}: recipe {recipe.name} takes no tile")
    elif tile is None:
        tile = config.tile
    program, pipeline = _build(recipe, tile)
    run = {"params": _params_for(kernel, n, config), "tile": tile, "seed": config.seed}
    fingerprint = measurement_fingerprint(recipe, program, config.machine, run)
    key = f"{kernel}-{recipe.variant}-N{n}-{fingerprint}"
    return _Point(recipe, n, tile, program, pipeline, key)


def _from_disk(point: _Point) -> PerfReport | None:
    """The report of *point* from the disk cache, recorded as its
    ``sweep.point`` span (``source="disk"``); ``None`` on a miss, which
    records no span (the point's computing run records it)."""
    start = telemetry.perf_counter()
    report = _load_cached(point.key)
    if report is not None:
        telemetry.counter("sweep.cache.hit")
        telemetry.record_span(
            "sweep.point", start, telemetry.perf_counter() - start,
            kernel=point.recipe.kernel, variant=point.recipe.variant, n=point.n,
            source="disk",
        )
    return report


def _measure(
    point: _Point, cp: compiled.CompiledProgram, config: SweepConfig
) -> PerfReport:
    """The report of one point that is neither memoised nor on disk: run
    on the machine model through *cp* (its built program) and stored."""
    kernel, n = point.recipe.kernel, point.n
    # One span per *measured* grid point: memo hits never reach here and a
    # disk hit records its own, so a sweep's `sweep.point` span count
    # equals the number of points that went to disk or to the machine model.
    with telemetry.span(
        "sweep.point", kernel=kernel, variant=point.recipe.variant, n=n
    ) as sp:
        telemetry.counter("sweep.cache.miss")
        params, inputs = point_inputs(kernel, n, config)
        _, report = measure_streaming(cp, params, config.machine, inputs)
        _store_cached(point.key, report)
        sp.set(source="computed")
        return report


#: The to-do points of the running parallel sweep, by key, each with its
#: built program. Set before the pool forks, so a worker measures the
#: point the parent resolved instead of building it again.
_pending: dict[str, tuple[_Point, compiled.CompiledProgram]] = {}


def _measure_pending(
    key: str, config: SweepConfig, with_telemetry: bool
) -> tuple[str, dict[str, float], dict | None]:
    """Sweep-pool body: measure one to-do point; return its report as a
    dict and (when the parent is recording) the worker's telemetry, reset
    per point so a forked worker never re-exports inherited parent spans.
    """
    if with_telemetry:
        telemetry.reset()
        telemetry.enable()
    report = _measure(*_pending[key], config).as_dict()
    return key, report, telemetry.export_state() if with_telemetry else None


def _measure_all(
    points: list[_Point], config: SweepConfig, jobs: int
) -> list[VariantMeasurement]:
    """The measurements of resolved *points*, in order.

    Points not yet memoised are looked up on disk first, and only the
    misses are measured, once each: the parent builds their programs in
    one ``cc`` call (:func:`repro.exec.compiled.build`; none when every
    point is on disk) and, with ``jobs`` > 1 and more than one to measure,
    loads the C machine core (:func:`repro.machine.native.lib`) and forks a
    pool whose workers inherit both builds and the resolved points. A
    worker failure re-raises as a :class:`~repro.errors.ReproError` naming
    the failed point, chained to the worker's exception.
    """
    global _pending
    unmemoised: dict[str, _Point] = {}
    for point in points:
        if point.key in _memo:
            telemetry.counter("sweep.memo.hit")
        else:
            unmemoised.setdefault(point.key, point)
    todo: dict[str, tuple[_Point, compiled.CompiledProgram]] = {}
    for key, point in unmemoised.items():
        report = _from_disk(point)
        if report is not None:
            _memo[key] = point.measured(report)
        else:
            todo[key] = (point, compiled.CompiledProgram(point.program, trace=True))
    compiled.build(cp for _, cp in todo.values())
    if jobs < 2 or len(todo) < 2:
        for key, (point, cp) in todo.items():
            _memo[key] = point.measured(_measure(point, cp, config))
        return [_memo[point.key] for point in points]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    native.lib()  # loaded before forking: no worker compiles its own
    with_telemetry = telemetry.enabled()
    _pending = todo
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(todo)), mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = {
                pool.submit(_measure_pending, key, config, with_telemetry): key for key in todo
            }
            for fut in as_completed(futures):
                try:
                    key, data, state = fut.result()
                except Exception as exc:
                    for other in futures:
                        other.cancel()  # fail fast: drop the queued points
                    point, _ = todo[futures[fut]]
                    raise ReproError(
                        f"sweep point (kernel={point.recipe.kernel}, "
                        f"variant={point.recipe.variant}, N={point.n}) "
                        f"failed in a worker: {exc}"
                    ) from exc
                # Fold each worker's spans/metrics into the parent so a
                # parallel sweep yields one coherent trace.
                telemetry.absorb(state)
                _memo[key] = todo[key][0].measured(PerfReport(**data))
    finally:
        _pending = {}
    return [_memo[point.key] for point in points]


def measure_points(
    points: list[tuple],
    config: SweepConfig,
    *,
    jobs: int | None = None,
) -> list[VariantMeasurement]:
    """Measure a grid of points, optionally in parallel, and return them
    in input order (memoised in-process and on disk).

    A point is ``(kernel, variant, n)`` or ``(kernel, variant, n, tile)``:
    *variant* is a registered name or a
    :class:`~repro.pipeline.recipe.VariantRecipe` of *kernel*, and *tile*
    an explicit edge for a recipe that takes one (see :func:`_point`).
    Each distinct point is resolved (built, fingerprinted) once, and each
    one not memoised is measured once: serially with ``jobs`` 1 (the
    default: ``REPRO_JOBS``, i.e. 1), else across a forked
    ``ProcessPoolExecutor`` whose workers measure the parent's resolved
    points on its built programs and share the disk cache. Either way the
    reports land in the parent's memo, so serial and parallel runs return
    identical measurements, even with ``REPRO_NO_CACHE=1``.
    """
    resolved: dict[tuple, _Point] = {}
    grid = []
    for kernel, variant, n, *edge in points:
        tile = edge[0] if edge else None
        # A recipe holds dicts (a Tile's sizes), so it is keyed by identity.
        key = (kernel, variant if isinstance(variant, str) else id(variant), n, tile)
        if key not in resolved:
            resolved[key] = _point(kernel, variant, n, tile, config)
        grid.append(resolved[key])
    return _measure_all(grid, config, resolve_jobs(jobs))
