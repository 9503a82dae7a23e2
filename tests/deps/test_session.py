"""FixDeps's dependence session: every answer equals a fresh one, and each
question is asked once per run.

``fix_dependences`` asks every ElimWW_WR round, ElimRW and the final
verification through one :class:`DependenceSession`. These tests record
each question the session answers inside a FixDeps run and check it
against a call through a session of its own, and count what the session
extracts and tests.
"""

import gc
import weakref

import pytest

from repro import telemetry
from repro.deps import fusionpreventing
from repro.deps.fusionpreventing import DependenceSession, violated_dependences
from repro.kernels.recipes import build_fused_nest
from repro.kernels.registry import get_kernel
from repro.trans.fixdeps import fix_dependences
from tests.trans import shift_scale

KERNELS = ("lu", "qr", "cholesky", "jacobi")


def _value_ranges(kernel):
    return getattr(get_kernel(kernel), "VALUE_RANGES", None)


def _fields(violations):
    """Every field of each violation, the polyhedron by its ordered
    fingerprint, in order."""
    return [
        (
            v.kind, v.name, v.src, v.src.domain.fingerprint(), v.dst,
            v.dst.domain.fingerprint(), v.level, v.poly.variables,
            v.poly.fingerprint(), v.witness, v.exact,
        )
        for v in violations
    ]


def _record_questions(monkeypatch):
    """Record (nest, kinds, options, answer) of every session question."""
    asked = []
    violated = DependenceSession.violated

    def recording(self, nest, kinds, **options):
        answer = violated(self, nest, kinds, **options)
        asked.append((nest, kinds, options, answer))
        return answer

    monkeypatch.setattr(DependenceSession, "violated", recording)
    return asked


@pytest.mark.parametrize("kernel", KERNELS)
def test_shared_session_answers_equal_fresh_ones(kernel, monkeypatch):
    asked = _record_questions(monkeypatch)
    fix_dependences(build_fused_nest(kernel), value_ranges=_value_ranges(kernel))
    monkeypatch.undo()
    assert asked
    for nest, kinds, options, answer in asked:
        fresh = violated_dependences(nest, kinds, **options)
        assert _fields(answer) == _fields(fresh)


def test_lu_asks_each_question_once(monkeypatch):
    """Each distinct group (index, body, domain) is extracted once, and
    each pair key (references and execution order) tested once."""
    asked_groups = {}
    asks = []
    references = DependenceSession.references
    violated = DependenceSession.violated

    def asking(self, nest, kinds, **options):
        src_group = options["src_group"]
        for g in nest.groups:
            if src_group is None or g.index >= src_group:
                asked_groups[(g.index, id(g.body), id(g.domain))] = g
                asks.append(g.index)
        return violated(self, nest, kinds, **options)

    def asking_refs(self, nest, group, value_ranges=None):
        asked_groups[(group.index, id(group.body), id(group.domain))] = group
        asks.append(group.index)
        return references(self, nest, group, value_ranges)

    extracted = []
    extract = fusionpreventing.extract_references

    def extracting(nest, group, value_ranges=None):
        extracted.append(((group.index, id(group.body), id(group.domain)), group))
        return extract(nest, group, value_ranges)

    tested = []
    test = DependenceSession._test

    def testing(self, src, dst, fused, orders):
        key = (src, dst, tuple(str(c) for order in orders for c in order))
        tested.append(key)
        return test(self, src, dst, fused, orders)

    monkeypatch.setattr(DependenceSession, "violated", asking)
    monkeypatch.setattr(DependenceSession, "references", asking_refs)
    monkeypatch.setattr(fusionpreventing, "extract_references", extracting)
    monkeypatch.setattr(DependenceSession, "_test", testing)
    fix_dependences(build_fused_nest("lu"), value_ranges=_value_ranges("lu"))

    keys = [key for key, _group in extracted]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(asked_groups)
    assert len(tested) == len({(id(s), id(d), o) for s, d, o in tested})
    # The rounds re-ask groups that did not change.
    assert len(asks) > len(keys)


def test_pair_counters(monkeypatch):
    telemetry.reset()
    telemetry.enable()
    try:
        tests = []
        test = DependenceSession._test

        def counting(self, *args):
            tests.append(args)
            return test(self, *args)

        monkeypatch.setattr(DependenceSession, "_test", counting)
        fix_dependences(build_fused_nest("lu"), value_ranges=_value_ranges("lu"))
        assert telemetry.counter_value("deps.pairs.tested") == len(tests) > 0
        assert telemetry.counter_value("deps.pairs.reused") > 0
    finally:
        telemetry.disable()
        telemetry.reset()


def test_collapse_and_rewrite_force_a_retest():
    """A collapse (new execution coordinates) and a new body (new
    references) each change the answer a shared session gives."""
    session = DependenceSession()
    nest = shift_scale.fused_nest()
    before = violated_dependences(nest, ("flow", "output"), session=session)
    assert before
    source = nest.groups[0]
    collapsed = nest.with_groups(
        (source.with_collapsed({"i": nest.fused_lower_bound("i")}), *nest.groups[1:])
    )
    after = violated_dependences(collapsed, ("flow", "output"), session=session)
    assert _fields(after) == _fields(violated_dependences(collapsed, ("flow", "output")))
    assert after != before

    # The anti-dependence on A goes once the sink no longer writes A.
    sink = nest.groups[1]
    rewritten = nest.with_groups(
        (nest.groups[0], sink.with_body(sink.body[:0]))
    )
    assert violated_dependences(nest, ("anti",), session=session)
    assert violated_dependences(rewritten, ("anti",), session=session) == []


def test_session_ends_with_the_run(monkeypatch):
    sessions = []
    init = DependenceSession.__init__

    def tracking(self):
        init(self)
        sessions.append(weakref.ref(self))

    monkeypatch.setattr(DependenceSession, "__init__", tracking)
    report = fix_dependences(build_fused_nest("lu"), value_ranges=_value_ranges("lu"))
    gc.collect()
    assert len(sessions) == 1
    assert sessions[0]() is None
    assert report.ww_wr.rounds
