"""Process-wide memoisation for the exact polyhedral engine.

Every expensive polyhedral operation (Fourier–Motzkin projection,
rational emptiness, integer feasibility, implication) is a pure function
of immutable inputs, so its result can be keyed by the inputs'
structural fingerprints and reused through one capped in-process LRU
memo (65536 entries), shared by all operations and cleared by
:func:`clear_memos` (which `repro.experiments.clear_caches` calls, so
sweep-pool workers start from a clean slate). Violated dependences are
not memoised here: FixDeps asks them through one
:class:`~repro.deps.fusionpreventing.DependenceSession` per run, which
reuses references and pair verdicts only while their objects are
unchanged. Nothing is persisted: a cold 43-program registry build
takes about a second, so an on-disk layer would save nothing measurable
and could replay answers from older code.

Negative results are cached too: a deterministic failure (an FM blow-up,
an inexact elimination under ``require_exact``) is as expensive to
rediscover as a solution, so cached errors re-raise with the original
message.

The memo has no off switch. Its oracle lives in tests
(``tests/poly/memo_oracle.py``): it replaces :func:`memoize` with a plain
``compute()`` call, which reaches every analysis operation because each
caller looks the function up as ``memo.memoize`` at call time. The memo
is the analysis layer's only process-wide cache (the Fourier–Motzkin
steps inside one projection are never memoised, and a dependence session
lives only for one FixDeps run), so a bypassed build runs the same code
and must produce byte-identical dependence graphs, FixDeps output and
program hashes —
asserted by ``tests/experiments/test_poly_cache_differential.py``, by the
golden corpus (``tests/golden``, whose 43 program hashes are written with
the memo bypassed and compared in tier-1 with it on) and by CI jobs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import telemetry
from repro.errors import CaseSplitError, PolyhedronError, UnboundedError
from repro.utils.caching import LRUCache

#: Capacity of the process-wide memo (entries, shared by all operations).
_MEMO_SIZE = 65536

#: Deterministic analysis failures worth caching (re-raised on hit).
_CACHEABLE_ERRORS = (CaseSplitError, UnboundedError, PolyhedronError)


_memo: LRUCache = LRUCache(maxsize=_MEMO_SIZE)

#: Per-operation hit/miss counts, always maintained (telemetry
#: counters mirror the aggregates only while telemetry is enabled).
_stats: dict[str, dict[str, int]] = {}


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
    and re-raised on later hits.
    """
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
    """Drop the analysis memo and its stats."""
    global _memo, _stats
    _memo = LRUCache(maxsize=_MEMO_SIZE)
    _stats = {}


def stats() -> dict[str, Any]:
    """Hit/miss counters per operation plus memo occupancy (for benches,
    tests and the telemetry summary)."""
    totals = {"hit": 0, "miss": 0}
    for per_op in _stats.values():
        for k in totals:
            totals[k] += per_op[k]
    return {
        "ops": {op: dict(v) for op, v in sorted(_stats.items())},
        "totals": totals,
        "memo_entries": len(_memo),
    }


def env_key(env) -> str:
    """Canonical key fragment for a parameter binding."""
    if env is None:
        return "-"
    return ",".join(f"{k}={env[k]}" for k in sorted(env))
