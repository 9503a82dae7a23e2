"""Workload definitions and the layer-metric map of the benchmark.

Imported by the orchestrator (``run.py``), which must stay free of NumPy
and ``repro`` imports, and by the per-pass worker (``child.py``).

Every workload runs serially in one fresh interpreter per pass (closed
loop, one caller, ``REPRO_JOBS=1``):

- ``fig5_cold``: the paper's Figure-5 grid {lu, qr, cholesky, jacobi} x
  {seq, tiled}, cold (``REPRO_NO_CACHE=1``), through
  ``repro.experiments.runner.measure_points``. The scalar tier cuts its
  traces into many small memory chunks, so the memory sink (register
  filter, L1/L2, per-chunk decode and layout) does most of the work.
- ``guarded_cold``: the same kernels x {tiled_sunk, fixed}, the variants
  Figures 6-8, crossover, ablations and jacobi_stats measure. Guarded
  loop bodies make the trace producer and the branch predictor do most of
  the work; memory chunks are large and L1/L2 is a small share.
- ``registry_build``: build, fingerprint and ``CompiledProgram(trace=True)``
  for all 43 ``registry_build_matrix()`` points with an empty cache
  directory. Nothing executes: the analysis and codegen layers do all the
  work and the machine model none.
"""

from __future__ import annotations

KERNELS = ("lu", "qr", "cholesky", "jacobi")

#: Problem size of the two sweep grids. Above the L2-filling order (64) of
#: the scaled machine, so the cache hierarchy sees capacity misses, and
#: small enough that one cold pass takes a few seconds.
SWEEP_N = 72

#: workload -> variants of the sweep grid (None: the registry build matrix).
WORKLOADS: dict[str, tuple[str, ...] | None] = {
    "fig5_cold": ("seq", "tiled"),
    "guarded_cold": ("tiled_sunk", "fixed"),
    "registry_build": None,
}

#: Power-of-two buckets of the events-per-memory-chunk histogram: bucket
#: ``b`` counts chunks with ``2**b <= events < 2**(b+1)``; the last bucket
#: is open-ended.
CHUNK_HIST_BUCKETS = 17

#: Per-layer metric -> (end-to-end metric it should move, on which
#: workloads). ``compare.py`` prints this next to a layer that moved so a
#: change can be checked against its claim.
LAYER_MAP: dict[str, str] = {
    "machine.regfilter_s": "ref_cpu_s on fig5_cold and guarded_cold; none on registry_build",
    "machine.regfilter_events_per_s": "ref_cpu_s on fig5_cold and guarded_cold",
    "machine.chunks": "ref_cpu_s on fig5_cold (per-chunk overhead); none on guarded_cold; buffering may raise peak_rss_mb",
    "machine.events_per_chunk_p50": "ref_cpu_s on fig5_cold; none on guarded_cold",
    "machine.l1l2_s": "ref_cpu_s on fig5_cold; small on guarded_cold",
    "machine.l1l2_events_per_s": "ref_cpu_s on fig5_cold; small on guarded_cold",
    "machine.decode_s": "ref_cpu_s on fig5_cold (paid per chunk)",
    "machine.layout_s": "ref_cpu_s on fig5_cold (paid per chunk)",
    "machine.memsink_self_s": "ref_cpu_s on fig5_cold (per-chunk glue in the fused memory sink)",
    "machine.branch_s": "ref_cpu_s on guarded_cold; about 0 on fig5_cold",
    "machine.branch_events": "ref_cpu_s on guarded_cold; about 0 on fig5_cold",
    "exec.produce_s": "ref_cpu_s on guarded_cold, and qr/jacobi tiled within fig5_cold",
    "exec.guard_rejected": "ref_cpu_s on guarded_cold and fig5_cold tiled points",
    "exec.below_min_trip": "ref_cpu_s on guarded_cold and fig5_cold tiled points",
    "exec.codegen_s": "ref_cpu_s on registry_build",
    "exec.block_loop_ratio": "ref_cpu_s on registry_build; produce time on the sweeps",
    "pipeline.build_s": "ref_cpu_s and setup_s on registry_build; under 2% of the sweeps",
    "pipeline.programs": "ref_cpu_s on registry_build",
    "poly.memo.hit_ratio": "ref_cpu_s on registry_build",
    "experiments.fingerprint_s": "ref_cpu_s on registry_build and the cold sweeps",
    "experiments.other_s": "unattributed traced wall time; keeps the attribution honest",
    "trace.overhead_ratio": "none; tracing cost of the per-layer run",
}
