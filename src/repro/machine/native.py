"""The machine model's C memory core (``native.c``), compiled on first use.

:func:`lib` compiles the loops (decode, layout, register window, L1/L2
and the write-back level) with ``cc -O2 -shared -fPIC`` and loads them with :mod:`ctypes`;
nothing compiles or loads at import time. The object is cached in the
sweep cache directory (a per-process temporary one under
``REPRO_NO_CACHE=1``) as ``native-<key>-<digest>.so``: the key hashes the
C source, the resolved compiler, its ``--version`` and the flags; the
digest, of the file's own bytes, is checked before loading, so a torn or
foreign file is rebuilt, never loaded. Builds ``os.replace`` a temporary
file into place. A missing compiler or a failed compile raises
:class:`~repro.errors.MachineError` naming the command and its stderr;
there is no fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro import telemetry
from repro.errors import MachineError
from repro.utils.caching import cache_dir

SOURCE = Path(__file__).with_name("native.c")
#: The compiler command, looked up on ``PATH``.
CC = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")

_P, _I = ctypes.c_void_p, ctypes.c_int64
#: name -> (argument types, result type) of every entry point.
_SIGNATURES = {
    "decode": ((_P, _I, _I, _P, _P, _P), None),
    "layout": ((_P, _P, _I, _P, _P, _I, _I, _P), _I),
    "regfilter": ((_P, _I, _I, _P, _P, _I, _I, _P), _I),
    "cache": ((_P, _I, _I, _I, _P, _I, _I, _I, _P, _I, _P, _P), _I),
    "writeback": ((_P, _P, _I, _I, _I, _P, _P, _I, _P, _P), _I),
}

_lib: ctypes.CDLL | None = None


def lib() -> ctypes.CDLL:
    """The loaded core, compiled or fetched from the cache on first use."""
    global _lib
    if _lib is None:
        directory = cache_dir()
        if directory is not None:
            _lib = load(directory)
        else:
            # The loaded object outlives its file.
            with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
                _lib = load(Path(tmp))
    return _lib


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(cmd: list[str]):
    """Run *cmd*; MachineError naming it and its stderr unless it succeeds."""
    import subprocess  # only a load needs it; keeps `import repro` light

    shown = " ".join(cmd)
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise MachineError(f"`{shown}` could not run ({exc}); a C compiler is required") from None
    if done.returncode:
        raise MachineError(f"`{shown}` exited with status {done.returncode}:\n{done.stderr}")
    return done


def _open(path: Path) -> ctypes.CDLL | None:
    """Load *path* if its bytes match the digest in its name."""
    try:
        if _digest(path.read_bytes()) != path.stem.rsplit("-", 1)[1]:
            return None
        core = ctypes.CDLL(str(path))
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(core, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError):
        return None
    return core


def load(directory: Path) -> ctypes.CDLL:
    """Load the core cached in *directory*, building it there if no valid
    object exists. Records a ``machine.native.build`` span: ``cached``,
    and for a build its wall time and ``RUSAGE_CHILDREN`` CPU time."""
    import resource

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    with telemetry.span("machine.native.build") as sp:
        compiler = os.path.realpath(shutil.which(CC) or CC)
        version = _run([compiler, "--version"]).stdout
        parts = [SOURCE.read_bytes(), *(s.encode() for s in (compiler, version, *FLAGS))]
        key = _digest(b"\0".join(parts))
        for path in sorted(directory.glob(f"native-{key}-*.so")):
            if (core := _open(path)) is not None:
                sp.set(cached=True, path=str(path))
                return core
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"native-{key}-", suffix=".tmp", dir=directory)
        os.close(fd)
        try:
            cpu, t0 = children_cpu(), time.perf_counter()
            _run([compiler, *FLAGS, "-o", tmp, str(SOURCE)])
            sp.set(compile_wall_s=time.perf_counter() - t0, compile_cpu_s=children_cpu() - cpu)
            path = directory / f"native-{key}-{_digest(Path(tmp).read_bytes())}.so"
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if (core := _open(path)) is None:
            raise MachineError(f"{path}: built but could not be loaded")
        sp.set(cached=False, path=str(path))
        return core
