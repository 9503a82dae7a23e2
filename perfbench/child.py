"""One benchmark pass in a fresh interpreter.

Started by ``run.py`` with a pinned environment; prints one JSON object
on its last stdout line. The pass runs the workload's points (see
``workloads.py``) one at a time in a fixed order and times each. Then,
outside the timed region, it checks every point: output arrays against
the kernel's own NumPy ``reference()`` and ``PerfReport`` against the
stored golden reports where they apply (sweeps), or the emitted
program's hash against the golden hash (registry build).

    python3 perfbench/child.py --workload fig5_cold --seed 1 --trace 0
    python3 perfbench/child.py --setup-only

Each point's time is kept in wall seconds, CPU seconds and CPU seconds
at reference speed (``calib.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.exec.compiled import CompiledProgram
from repro.experiments import runner
from repro.experiments.sweep import SCALED_JACOBI_M, SweepConfig
from repro.kernels.recipes import registry_build_matrix
from repro.kernels.registry import get_kernel
from repro.kernels.validation import ATOL, RTOL
from repro.machine.configs import default_machine
from repro.pipeline import recipe as recipe_mod

from calib import at_reference, calibrate, warm_up
from tracer import Tracer
from workloads import KERNELS, SWEEP_N, WORKLOADS

#: Interpreter start plus every import above: the set-up a user pays
#: before the first grid point, as wall time and as this process's CPU
#: time (which leaves out time the host gave to other guests).
T_READY = time.monotonic()
CPU_READY = time.process_time()

GOLDEN = Path(__file__).with_name("golden.json")
#: Wall seconds between calibration blocks within a pass (``calib.py``).
CALIB_EVERY_S = 0.25
#: Calibration blocks a set-up probe runs after its imports.
PROBE_CALIBS = 5


def sweep_config(seed: int) -> SweepConfig:
    return SweepConfig(
        machine=default_machine(),
        sizes=(SWEEP_N,),
        jacobi_m=SCALED_JACOBI_M,
        seed=seed,
    )


def sweep_grid(workload: str) -> list[tuple[str, str, int]]:
    return [(k, v, SWEEP_N) for k in KERNELS for v in WORKLOADS[workload]]


def sweep_label(kernel: str, variant: str, n: int) -> str:
    return f"{kernel}/{variant}/N{n}"


def registry_label(kernel: str, variant: str, tile: int | None) -> str:
    """Same labels as ``repro.kernels.recipes.registry_program_hashes``."""
    return f"{kernel}/{variant}" + ("" if tile is None else f"@t{tile}")


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def timed_points(labels, measure_one, tracer: Tracer | None) -> dict:
    """Run ``measure_one(i)`` for each point in order, timing each in wall
    and CPU seconds, with calibration blocks before the first point, after
    the last and between points at least every :data:`CALIB_EVERY_S`; each
    point's CPU time is also rescaled to reference speed with the blocks
    just before and after it. The tracer (if any) is installed only around
    the points."""
    seconds, cpu_seconds, values, errors = [], [], [], []
    warm_up()
    calib_s = [calibrate()]
    #: Index into calib_s of the last block before each point.
    before = []
    last_calib = time.perf_counter()
    if tracer is not None:
        tracer.install()
    for i, label in enumerate(labels):
        if time.perf_counter() - last_calib >= CALIB_EVERY_S:
            calib_s.append(calibrate())
            last_calib = time.perf_counter()
        before.append(len(calib_s) - 1)
        if tracer is not None:
            tracer.row = label
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            values.append(measure_one(i))
            errors.append(None)
        except Exception as exc:  # noqa: BLE001 - reported per point
            values.append(None)
            errors.append(_error(exc))
        seconds.append(time.perf_counter() - t0)
        cpu_seconds.append(time.process_time() - c0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.row = None
        tracer.uninstall()
    calib_s.append(calibrate())
    out = {
        "wall_s": sum(seconds),
        "point_s": seconds,
        "point_cpu_s": cpu_seconds,
        "point_ref_s": [
            at_reference(t, calib_s[b], calib_s[b + 1])
            for t, b in zip(cpu_seconds, before)
        ],
        "calib_s": calib_s,
        "peak_rss_mb": peak_rss_mb,
        "values": values,
        "errors": errors,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(out["wall_s"])
        out["rows"] = tracer.rows(labels)
    return out


def _check_outputs(kernel: str, n: int, config: SweepConfig, program, result) -> str | None:
    mod = get_kernel(kernel)
    params = {"N": n, "M": config.jacobi_m} if "M" in mod.PARAMS else {"N": n}
    inputs = mod.make_inputs(params, np.random.default_rng(config.seed))
    ref = mod.reference(params, inputs)
    for name in program.outputs:
        if name in ref and not np.allclose(
            result.arrays[name], ref[name], rtol=RTOL, atol=ATOL
        ):
            err = float(np.max(np.abs(result.arrays[name] - ref[name])))
            return f"output {name} differs from reference() (max abs error {err:.3g})"
    return None


def run_sweep(workload: str, seed: int, tracer: Tracer | None) -> dict:
    config = sweep_config(seed)
    grid = sweep_grid(workload)
    labels = [sweep_label(*p) for p in grid]
    # Keep each run's (program, RunResult) so outputs can be checked after
    # the timed region: one list append per point.
    runs: list = []
    run_streaming = CompiledProgram.run_streaming

    def capture(cp, *args, **kwargs):
        result = run_streaming(cp, *args, **kwargs)
        runs.append((cp.program, result))
        return result

    CompiledProgram.run_streaming = capture

    def measure_one(i: int):
        (measured,) = runner.measure_points([grid[i]], config, jobs=1)
        return measured.report, runs[-1]

    out = timed_points(labels, measure_one, tracer)
    golden = json.loads(GOLDEN.read_text())
    gold = golden["reports"][workload]
    points = []
    for (kernel, _, n), label, value, why in zip(
        grid, labels, out.pop("values"), out.pop("errors")
    ):
        entry = {"point": label}
        if why is None:
            report, (program, result) = value
            entry["report"] = report = report.as_dict()
            why = _check_outputs(kernel, n, config, program, result)
            checked = seed == golden["seed"] or label in golden["seed_invariant"]
            if why is None and checked and report != gold[label]:
                diff = sorted(k for k in report if report[k] != gold[label][k])
                why = f"PerfReport differs from golden in {diff}"
        points.append({**entry, "ok": why is None, "why": why})
    out["points"] = points
    return out


def run_registry(seed: int, tracer: Tracer | None) -> dict:
    machine = default_machine()
    matrix = registry_build_matrix()
    labels = [registry_label(*p) for p in matrix]

    def measure_one(i: int):
        kernel, variant, tile = matrix[i]
        program, _, recipe = runner.build_program(kernel, variant, tile=tile)
        recipe_mod.measurement_fingerprint(
            recipe, program, machine, {"tile": tile, "seed": seed}
        )
        CompiledProgram(program, trace=True)
        return program

    out = timed_points(labels, measure_one, tracer)
    hashes = json.loads(GOLDEN.read_text())["program_hashes"]
    points = []
    for label, program, why in zip(labels, out.pop("values"), out.pop("errors")):
        if why is None:
            digest = recipe_mod.program_fingerprint(program)
            if digest != hashes.get(label):
                why = f"program hash {digest} != golden {hashes.get(label)}"
        points.append({"point": label, "ok": why is None, "why": why})
    out["points"] = points
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only time the imports (set-up probe)")
    args = ap.parse_args()
    out: dict = {"t_ready": T_READY, "cpu_ready": CPU_READY, "numpy": np.__version__}
    if args.setup_only:
        warm_up()
        out["calib_s"] = [calibrate() for _ in range(PROBE_CALIBS)]
        out["setup_s"] = at_reference(CPU_READY, *out["calib_s"])
    else:
        if args.workload is None:
            ap.error("--workload is required")
        tracer = Tracer() if args.trace else None
        if WORKLOADS[args.workload] is None:
            out.update(run_registry(args.seed, tracer))
        else:
            out.update(run_sweep(args.workload, args.seed, tracer))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
