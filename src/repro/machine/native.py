"""The one loader of compiled C: the machine model's memory and branch
core (``native.c``; :func:`lib`: register window, L1/L2, the write-back
level and the 2-bit branch predictor) and the programs
:mod:`repro.exec.compiled` emits.

:func:`build` compiles C with ``cc <opt> -ffp-contract=off -shared -fPIC``
(``-O2`` for the core; ``-O1`` for programs, whose compile time counts
more than their run time) and loads it with :mod:`ctypes`; nothing
compiles or loads at import time. An object is cached in the sweep cache
directory (a per-process temporary one under ``REPRO_NO_CACHE=1``) as
``<stem>-<key>-<digest>.so``: the key hashes the C source, the resolved
compiler, its ``--version`` and the flags; the digest, of the file's own
bytes, is checked before loading, so a torn or foreign file is rebuilt,
never loaded. Builds ``os.replace`` a temporary file into place. A
missing compiler or a failed compile raises
:class:`~repro.errors.MachineError` naming the command and its stderr;
there is no fallback.
"""

from __future__ import annotations

import ctypes
import functools
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
#: No contraction into fused multiply-adds and no fast-math: a compiled
#: program rounds every operation as Python does.
FLAGS = ("-ffp-contract=off", "-shared", "-fPIC")

_P, _I = ctypes.c_void_p, ctypes.c_int64
#: name -> (argument types, result type) of every entry point of the core.
_SIGNATURES = {
    "regfilter": ((_P, _I, _I, _P, _I, _I, _P), _I),
    "cache": ((_P, _I, _I, _I, _P, _I, _I, _I, _P, _I, _P, _P), _I),
    "writeback": ((_P, _P, _I, _I, _I, _P, _I, _P, _P), _I),
    "branch": ((_P, _P, _I), _I),
}

_lib: ctypes.CDLL | None = None


def lib() -> ctypes.CDLL:
    """The memory and branch core, compiled or fetched from the cache on
    first use."""
    global _lib
    if _lib is None:
        _lib = build()
    return _lib


def build(code: str | None = None, signatures=_SIGNATURES, **kwargs) -> ctypes.CDLL:
    """:func:`load` in the cache directory, or in a temporary one under
    ``REPRO_NO_CACHE=1`` (the loaded object outlives its file)."""
    directory = cache_dir()
    if directory is not None:
        return load(directory, code, signatures, **kwargs)
    with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
        return load(Path(tmp), code, signatures, **kwargs)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(cmd: list[str], stdin: str | None = None):
    """Run *cmd*; MachineError naming it and its stderr unless it succeeds."""
    import subprocess  # only a load needs it; keeps `import repro` light

    shown = " ".join(cmd)
    try:
        done = subprocess.run(cmd, input=stdin, capture_output=True, text=True)
    except OSError as exc:
        raise MachineError(f"`{shown}` could not run ({exc}); a C compiler is required") from None
    if done.returncode:
        raise MachineError(f"`{shown}` exited with status {done.returncode}:\n{done.stderr}")
    return done


@functools.lru_cache(maxsize=None)
def _compiler(command: str) -> tuple[str, str]:
    """The resolved path of *command* and its ``--version`` output."""
    path = os.path.realpath(shutil.which(command) or command)
    return path, _run([path, "--version"]).stdout


def _open(path: Path, signatures) -> ctypes.CDLL | None:
    """Load *path* if its bytes match the digest in its name, with every
    entry point of *signatures* typed."""
    try:
        if _digest(path.read_bytes()) != path.stem.rsplit("-", 1)[1]:
            return None
        core = ctypes.CDLL(str(path))
        for name, (argtypes, restype) in signatures.items():
            fn = getattr(core, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError):
        return None
    return core


def load(
    directory: Path,
    code: str | None = None,
    signatures=_SIGNATURES,
    *,
    opt: str = "-O2",
    stem: str = "native",
    span: str = "machine.native.build",
    **attrs,
) -> ctypes.CDLL:
    """Load the object of C *code* (default: the core's source file)
    cached in *directory*, building it there at optimisation level *opt*
    if no valid object exists. Records a *span* with *attrs*: ``cached``,
    and for a build its wall time and ``RUSAGE_CHILDREN`` CPU time."""
    import resource

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    with telemetry.span(span, **attrs) as sp:
        compiler, version = _compiler(CC)
        text = SOURCE.read_bytes() if code is None else code.encode()
        flags = (opt, *FLAGS)
        key = _digest(b"\0".join([text, *(s.encode() for s in (compiler, version, *flags))]))
        for path in sorted(directory.glob(f"{stem}-{key}-*.so")):
            if (core := _open(path, signatures)) is not None:
                sp.set(cached=True, path=str(path))
                return core
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{stem}-{key}-", suffix=".tmp", dir=directory)
        os.close(fd)
        try:
            cpu, t0 = children_cpu(), time.perf_counter()
            if code is None:
                _run([compiler, *flags, "-o", tmp, str(SOURCE)])
            else:
                _run([compiler, *flags, "-o", tmp, "-x", "c", "-"], stdin=code)
            sp.set(compile_wall_s=time.perf_counter() - t0, compile_cpu_s=children_cpu() - cpu)
            path = directory / f"{stem}-{key}-{_digest(Path(tmp).read_bytes())}.so"
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if (core := _open(path, signatures)) is None:
            raise MachineError(f"{path}: built but could not be loaded")
        sp.set(cached=False, path=str(path))
        return core
