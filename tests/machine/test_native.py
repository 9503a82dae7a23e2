"""The loader of the machine model's C core (:mod:`repro.machine.native`).

The loops themselves are checked against the per-access oracles by the
differential tests next to this file; these tests cover how the shared
object is built, cached, verified and reported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.errors import MachineError
from repro.machine import native

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def spans():
    """Record telemetry; yields a getter for the ``machine.native.build``
    spans recorded so far."""
    telemetry.reset()
    telemetry.enable()
    yield lambda: [s for s in telemetry.spans() if s.name == "machine.native.build"]
    telemetry.disable()
    telemetry.reset()


def _works(core) -> bool:
    """A one-element register window compacts two loads of one element to
    the first one's address."""
    state = np.full(3 + 3 + 4, -1, dtype=np.int64)  # 3 + 3 * capacity + 2**2
    state[0] = 0
    events = np.array([40 << 1, 44 << 1], dtype=np.int64)
    kept = core.regfilter(state.ctypes.data, 1, 2, events.ctypes.data, 2, 3, events.ctypes.data)
    return kept == 1 and events[0] == 40


def _objects(directory: Path) -> list[Path]:
    return sorted(directory.glob("native-*.so"))


def test_missing_compiler_is_named(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CC", "no-such-cc-for-repro")
    with pytest.raises(MachineError, match="no-such-cc-for-repro"):
        native.load(tmp_path)
    assert not _objects(tmp_path)


def test_failed_compile_shows_command_and_stderr(tmp_path, monkeypatch):
    broken = tmp_path / "broken.c"
    broken.write_text("int regfilter(void) { return undeclared_name; }\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    with pytest.raises(MachineError, match=r"(?s)-shared -fPIC -o .*broken\.c.*undeclared_name"):
        native.load(tmp_path / "cache")
    # No temporary or partial object is left behind.
    assert not list((tmp_path / "cache").iterdir())


def test_build_then_cache_hit(tmp_path, spans):
    first = native.load(tmp_path)
    [obj] = _objects(tmp_path)
    second = native.load(tmp_path)
    assert _works(first) and _works(second)
    assert _objects(tmp_path) == [obj]
    built, cached = spans()
    assert built.attrs["cached"] is False
    assert built.attrs["compile_wall_s"] > 0
    assert built.attrs["compile_cpu_s"] >= 0
    assert cached.attrs["cached"] is True
    assert "compile_wall_s" not in cached.attrs


def test_truncated_object_is_rebuilt(tmp_path, spans):
    native.load(tmp_path / "a")
    [good] = _objects(tmp_path / "a")
    torn = tmp_path / "b" / good.name
    torn.parent.mkdir()
    torn.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
    assert _works(native.load(tmp_path / "b"))
    assert torn.read_bytes() == good.read_bytes()
    assert [s.attrs["cached"] for s in spans()] == [False, False]


def test_foreign_object_is_never_loaded(tmp_path, spans):
    # Bytes that do not match the digest in the name: rebuilt, not loaded.
    native.load(tmp_path / "a")
    [good] = _objects(tmp_path / "a")
    foreign = tmp_path / "b" / good.name.replace(good.stem[-16:], "0" * 16)
    foreign.parent.mkdir()
    foreign.write_bytes(good.read_bytes())
    assert _works(native.load(tmp_path / "b"))
    assert [s.attrs["cached"] for s in spans()] == [False, False]
    assert (tmp_path / "b" / good.name).read_bytes() == good.read_bytes()


def _python(code: str, **env) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_two_processes_share_one_empty_cache_dir(tmp_path):
    code = "from repro.machine import native; print(native.lib()._name)"
    env = {"REPRO_CACHE_DIR": str(tmp_path), "REPRO_NO_CACHE": "0"}
    procs = [_python(code, **env) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    [obj] = _objects(tmp_path)
    assert {out.strip() for out, _ in outs} == {str(obj)}
    assert list(tmp_path.iterdir()) == [obj]  # no temporary file left
    assert _works(native.load(tmp_path))


def test_no_cache_builds_into_a_private_directory(tmp_path):
    code = (
        "from repro.machine import native; import os; p = native.lib()._name; "
        "print(p); print(os.path.exists(p))"
    )
    proc = _python(code, REPRO_CACHE_DIR=str(tmp_path), REPRO_NO_CACHE="1")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    path, exists = out.split()
    assert not path.startswith(str(tmp_path)) and exists == "False"
    assert not list(tmp_path.iterdir())


def test_import_and_registry_build_never_touch_the_compiler():
    # Importing the package and building, fingerprinting and compiling a
    # registry program (the registry_build workload) start no child
    # process and load no shared object.
    code = """
import subprocess
def refuse(*args, **kwargs):
    raise AssertionError(f"child process started: {args}")
subprocess.Popen.__init__ = refuse
import repro, repro.machine, repro.experiments, repro.exec
from repro.exec.compiled import CompiledProgram
from repro.experiments import runner
from repro.machine import native
from repro.machine.configs import default_machine
from repro.pipeline.recipe import measurement_fingerprint
program, _, recipe = runner.build_program("lu", "tiled", tile=4)
measurement_fingerprint(recipe, program, default_machine(), {"tile": 4})
CompiledProgram(program, trace=True)
assert native._lib is None
with open("/proc/self/maps") as maps:
    assert "native-" not in maps.read()
print("clean")
"""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps")
    proc = _python(code)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.strip() == "clean"
