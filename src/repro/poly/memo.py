"""Process-wide memoisation for the exact polyhedral engine.

Every expensive polyhedral operation (Fourier–Motzkin elimination and
projection, rational emptiness, integer feasibility, parametric lexmin)
is a pure function of immutable inputs, so its result can be keyed by the
inputs' structural fingerprints and reused through one capped in-process
LRU memo (65536 entries), shared by all operations and cleared
by :func:`clear_memos` (which `repro.experiments.clear_caches` calls, so
sweep-pool workers start from a clean slate). Nothing is persisted: a
cold 43-program registry build takes about a second, so an on-disk layer
would save nothing measurable and could replay answers from older code.

Negative results are cached too: a ``CaseSplitError`` raised by the
parametric solver is as expensive to rediscover as a solution, and
``lexmin_with_fallback`` branches on it, so cached errors re-raise with
the original message.

``REPRO_POLY_CACHE=off`` is the differential oracle, and it bypasses
exactly one thing: :func:`memoize`, the only reader of
:func:`caching_enabled`, calls ``compute()`` directly. Every analysis
operation runs the same code either way (hash-consing and the FM
unit-coefficient fast path included), so an ``off`` build must produce
byte-identical dependence graphs, FixDeps output and program hashes —
asserted by ``tests/experiments/test_poly_cache_differential.py``, by the
golden corpus (``tests/golden``, whose 43 program hashes are written with
the memo off and compared in tier-1 with it on) and by CI jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable

from repro import telemetry
from repro.errors import CaseSplitError, PolyhedronError, UnboundedError
from repro.utils.caching import LRUCache

#: Capacity of the process-wide memo (entries, shared by all operations).
_MEMO_SIZE = 65536

#: Deterministic analysis failures worth caching (re-raised on hit).
_CACHEABLE_ERRORS = (CaseSplitError, UnboundedError, PolyhedronError)


_enabled: bool | None = None


def caching_enabled() -> bool:
    """Is the analysis memo on? (``REPRO_POLY_CACHE``, default on.)

    The answer is cached — :func:`memoize` asks on every analysis call —
    and re-read from the environment by :func:`clear_memos`, so toggling
    ``REPRO_POLY_CACHE`` mid-process requires a
    ``clear_caches()``/``clear_memos()`` call (as the sweep pool
    initializer and the tests already do).
    """
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get("REPRO_POLY_CACHE", "on").lower() not in (
            "off", "0", "no", "false",
        )
    return _enabled


_memo: LRUCache = LRUCache(maxsize=_MEMO_SIZE)

#: Extra caches (hash-consing intern tables, …) cleared with the memo.
_registered: list[LRUCache] = []

#: Per-operation hit/miss counts, always maintained (telemetry
#: counters mirror the aggregates only while telemetry is enabled).
_stats: dict[str, dict[str, int]] = {}


def register_cache(cache: LRUCache) -> LRUCache:
    """Register an auxiliary cache for :func:`clear_memos` to clear."""
    _registered.append(cache)
    return cache


def _count(op: str, outcome: str) -> None:
    per_op = _stats.setdefault(op, {"hit": 0, "miss": 0})
    per_op[outcome] += 1
    telemetry.counter(f"poly.memo.{outcome}")


class _Raise:
    """Memo entry wrapping a cached (deterministic) analysis error."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


def memoize(op: str, key: tuple, compute: Callable[[], Any]) -> Any:
    """In-process memoisation of ``compute()`` under ``(op, *key)``.

    Deterministic analysis errors (:data:`_CACHEABLE_ERRORS`) are cached
    and re-raised on later hits. Under ``REPRO_POLY_CACHE=off`` this is
    a plain ``compute()`` call: the oracle's single bypass.
    """
    if not caching_enabled():
        return compute()
    full = (op, *key)
    try:
        value = _memo[full]
    except KeyError:
        pass
    else:
        _count(op, "hit")
        if type(value) is _Raise:
            raise value.exc
        return value
    _count(op, "miss")
    try:
        value = compute()
    except _CACHEABLE_ERRORS as exc:
        _memo[full] = _Raise(exc)
        raise
    _memo[full] = value
    return value


# -- lifecycle / stats -----------------------------------------------------


def clear_memos() -> None:
    """Drop every analysis memo and intern table, and re-read
    ``REPRO_POLY_CACHE``."""
    global _memo, _stats, _enabled
    _memo = LRUCache(maxsize=_MEMO_SIZE)
    for cache in _registered:
        cache.clear()
    _stats = {}
    _enabled = None


def stats() -> dict[str, Any]:
    """Hit/miss counters per operation plus memo occupancy (for benches,
    tests and the telemetry summary)."""
    totals = {"hit": 0, "miss": 0}
    for per_op in _stats.values():
        for k in totals:
            totals[k] += per_op[k]
    return {
        "enabled": caching_enabled(),
        "ops": {op: dict(v) for op, v in sorted(_stats.items())},
        "totals": totals,
        "memo_entries": len(_memo),
    }


def stable_key(data: Any) -> str:
    """Short stable digest of any JSON-serialisable value."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def env_key(env) -> str:
    """Canonical key fragment for a parameter binding / bound mapping."""
    if env is None:
        return "-"
    if isinstance(env, int):
        return str(env)
    return ",".join(f"{k}={env[k]}" for k in sorted(env))
