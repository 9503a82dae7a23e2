"""Static analysis and runtime guards for the block (vectorized) exec tier.

The compiled executor (:mod:`repro.exec.compiled`) has two codegen tiers.
The scalar tier executes one Python statement per IR statement *per
iteration*; the block tier compiles an eligible innermost ``Loop`` into
whole-trip NumPy array operations — one gather/compute/scatter per body
statement and one ``(trip, events_per_iter)`` event matrix per loop entry
— which is how a trace producer gets within shouting distance of the
vectorized trace consumers.

Eligibility is decided in two stages, both conservative:

**Static** (:func:`classify_block_loop`, once per loop at compile time): the body must be
straight-line ``Assign`` statements into array elements, the value
expressions must use only elementwise-safe operations (``+ - * /``,
unary ``-``, ``sqrt``, ``abs``), and every subscript must be affine with
integral coefficients and free of array references, intrinsics and
division. Anything else — guards, scalar reductions, ``Select``,
non-affine subscripts — compiles on the scalar tier, per loop.

**Runtime** (:func:`block_guard`, at every loop entry): block execution
runs each statement over the whole trip range (all gathers of a statement
before all its scatters, statements in order), which reorders accesses
across iterations. The guard proves, from the concrete affine form
``index(t) = a*t + b`` of every access (``t`` = 0-based iteration
number), that no reordered pair can ever touch the same element in a
different order than the scalar tier would — otherwise that loop *entry*
falls back to the scalar code, keeping traces and values bit-identical.

The pair conditions (``W`` a write with slope ``a_w != 0``, ``R`` a read
or a later write; ``T`` the trip count):

- identical index expressions collide only at the same iteration, where
  statement order is preserved — statically safe, no runtime check;
- equal slopes collide at iteration distance ``q = (b_r - b_w) / a_w``;
  unsafe only if ``q`` is integral, ``|q| <= T - 1`` and its sign matches
  the one program order forbids;
- a loop-invariant read (``a_r == 0``) collides at the single iteration
  ``q = (b_r - b_w) / a_w``; unsafe only if ``q`` lands inside the trip
  range with an iteration on the forbidden side;
- any other slope combination is not analyzed: the guard reports unsafe
  and the entry runs on the scalar tier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NotAffineError
from repro.ir.affine import expr_to_linexpr
from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Const,
    Expr,
    UnOp,
    VarRef,
    walk_expr,
)
from repro.ir.stmt import Assign, Loop

#: Default minimum trip count before the block tier is worth entering
#: (NumPy per-call overhead beats the scalar tier only past a few
#: elements). Override per-compile with ``min_block_trip``.
DEFAULT_MIN_BLOCK_TRIP = 16

#: Intrinsics with bit-identical NumPy elementwise equivalents.
_VECTOR_CALLS = ("sqrt", "abs")

#: Static reasons :func:`classify_block_loop` rejects a loop, in the
#: order the checks run. These are the structured fallback-reason
#: counter suffixes telemetry records (``exec.fallback.static.<reason>``).
STATIC_FALLBACK_REASONS = (
    "non_const_step",      # step is not a positive integer constant
    "non_assign_body",     # body has guards / nested loops / scalar targets
    "non_vector_value",    # value uses Select/Cmp/non-elementwise calls
    "non_affine_subscript",  # a subscript is non-affine or non-integral
)


@dataclass(frozen=True)
class BlockAccess:
    """One traced memory access of a block body, in event-emission order."""

    pattern: int  #: index into :attr:`BlockPlan.patterns`
    is_write: bool
    array: str


@dataclass(frozen=True)
class BlockPlan:
    """Everything codegen needs to emit the block tier for one loop.

    ``patterns`` holds the distinct ``(array, subscript-exprs)`` shapes;
    the generated code computes one index vector and one runtime
    ``(slope, intercept)`` pair per pattern. ``accesses`` lists every
    traced access in the exact order the scalar tier would emit its
    events. ``write_patterns`` / ``pairs`` drive :func:`block_guard`.
    """

    loop: Loop
    patterns: tuple[tuple[str, tuple[Expr, ...]], ...]
    accesses: tuple[BlockAccess, ...]
    write_patterns: tuple[int, ...]
    #: (write pattern, other pattern, need_pos): unsafe when a collision
    #: exists at positive (True) / negative (False) iteration distance.
    pairs: tuple[tuple[int, int, bool], ...]


def _subscript_ok(sub: Expr, var: str) -> bool:
    """Affine, integral, and free of arrays/calls/division/comparison."""
    for node in walk_expr(sub):
        if isinstance(node, (ArrayRef, Call)):
            return False
        if isinstance(node, BinOp) and node.op == "/":
            return False
        if not isinstance(node, (Const, VarRef, BinOp, UnOp)):
            return False
    try:
        lin = expr_to_linexpr(sub)
    except NotAffineError:
        return False
    return lin.is_integral()


def _value_ok(expr: Expr) -> bool:
    """Only nodes with bit-identical elementwise NumPy equivalents."""
    if isinstance(expr, (Const, VarRef)):
        return True
    if isinstance(expr, ArrayRef):
        return True  # subscripts are checked separately
    if isinstance(expr, (BinOp, UnOp)):
        return all(_value_ok(c) for c in expr.children())
    if isinstance(expr, Call):
        return expr.func in _VECTOR_CALLS and all(_value_ok(a) for a in expr.args)
    return False  # Select / Cmp / logical nodes: scalar tier


def _reads_in_order(expr: Expr) -> list[ArrayRef]:
    """Array reads in the scalar tier's event-emission (DFS) order."""
    out: list[ArrayRef] = []
    if isinstance(expr, ArrayRef):
        out.append(expr)  # subscripts hold no reads (checked)
        return out
    for child in expr.children():
        out.extend(_reads_in_order(child))
    return out


def classify_block_loop(loop: Loop) -> tuple[BlockPlan | None, str | None]:
    """Classify *loop* for the block tier, naming any rejection.

    Returns ``(plan, None)`` for an eligible loop, else ``(None,
    reason)`` with *reason* one of :data:`STATIC_FALLBACK_REASONS`.
    """
    if not (isinstance(loop.step, Const) and isinstance(loop.step.value, int)
            and loop.step.value >= 1):
        return None, "non_const_step"
    for stmt in loop.body:
        if not isinstance(stmt, Assign) or not isinstance(stmt.target, ArrayRef):
            return None, "non_assign_body"
        if not _value_ok(stmt.value):
            return None, "non_vector_value"

    var = loop.var
    patterns: list[tuple[str, tuple[Expr, ...]]] = []
    pattern_ids: dict[tuple[str, tuple[Expr, ...]], int] = {}

    def pattern_id(ref: ArrayRef) -> int | None:
        for sub in ref.indices:
            if not _subscript_ok(sub, var):
                return None
        key = (ref.name, ref.indices)
        if key not in pattern_ids:
            pattern_ids[key] = len(patterns)
            patterns.append(key)
        return pattern_ids[key]

    # (pattern, is_write, stmt position) in event-emission order.
    accesses: list[BlockAccess] = []
    ordered: list[tuple[int, bool, int]] = []
    for pos, stmt in enumerate(loop.body):
        assert isinstance(stmt, Assign) and isinstance(stmt.target, ArrayRef)
        for ref in _reads_in_order(stmt.value):
            pid = pattern_id(ref)
            if pid is None:
                return None, "non_affine_subscript"
            ordered.append((pid, False, pos))
            accesses.append(BlockAccess(pid, False, ref.name))
        pid = pattern_id(stmt.target)
        if pid is None:
            return None, "non_affine_subscript"
        ordered.append((pid, True, pos))
        accesses.append(BlockAccess(pid, True, stmt.target.name))

    write_patterns = tuple(sorted({pid for pid, w, _ in ordered if w}))
    pairs: list[tuple[int, int, bool]] = []
    seen: set[tuple[int, int, bool]] = set()
    for wpid, w_is_write, wpos in ordered:
        if not w_is_write:
            continue
        warr = patterns[wpid][0]
        for opid, o_is_write, opos in ordered:
            if patterns[opid][0] != warr:
                continue
            if opid == wpid:
                continue  # identical index shape: same-iteration only
            if o_is_write and opos <= wpos:
                continue  # W-W pairs once, earlier write as the probe
            # Scalar order within one iteration: all reads of a statement
            # precede its write. The write precedes the partner iff the
            # partner sits in a later statement (reads of the same
            # statement come first; a later write always does).
            precedes = wpos < opos
            key = (wpid, opid, precedes)
            if key not in seen:
                seen.add(key)
                pairs.append(key)
    return BlockPlan(
        loop=loop,
        patterns=tuple(patterns),
        accesses=tuple(accesses),
        write_patterns=write_patterns,
        pairs=tuple(pairs),
    ), None


def _pair_unsafe(
    aw: int, bw: int, ar: int, br: int, trip: int, need_pos: bool
) -> bool:
    """Can write (aw, bw) and partner (ar, br) collide on the forbidden
    side of program order within ``trip`` iterations? Conservative: any
    slope combination this does not model reports unsafe."""
    d = br - bw
    if ar == aw:
        if d == 0 or d % aw:
            return False
        q = d // aw  # collision iteration distance i_w - i_partner
        if need_pos:
            return 0 < q <= trip - 1
        return -(trip - 1) <= q < 0
    if ar == 0:
        if d % aw:
            return False
        q = d // aw  # the one iteration whose write hits the location
        if q < 0 or q > trip - 1:
            return False
        return q >= 1 if need_pos else q <= trip - 2
    return True


def block_guard(
    ab: tuple[tuple[int, int], ...],
    writes: tuple[int, ...],
    pairs: tuple[tuple[int, int, bool], ...],
    trip: int,
) -> bool:
    """Runtime go/no-go for one block-loop entry.

    ``ab[p]`` is the concrete ``(slope, intercept)`` of pattern ``p``'s
    linear element index over 0-based iteration numbers. True means the
    vectorized schedule is provably order-equivalent to the scalar tier
    for this entry; False routes the entry to the scalar fallback.
    """
    for w in writes:
        if ab[w][0] == 0:
            return False  # invariant write target: a recurrence shape
    for wpid, opid, need_pos in pairs:
        aw, bw = ab[wpid]
        ar, br = ab[opid]
        if _pair_unsafe(aw, bw, ar, br, trip, need_pos):
            return False
    return True
