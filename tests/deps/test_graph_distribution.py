"""Unit tests for statement dependence graphs and loop distribution."""

import numpy as np

from repro.deps.graph import dependence_graph
from repro.exec import run_compiled
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.trans.distribution import (
    distribute_loop,
    distribution_partition,
)

N, i, j, k = sym("N"), sym("i"), sym("j"), sym("k")


class TestDependenceGraph:
    def test_independent_statements(self):
        l = loop("i", 1, N, [assign(idx("A", i), 1.0), assign(idx("B", i), 2.0)])
        g = dependence_graph(l)
        assert g.number_of_edges() == 0

    def test_same_iteration_flow(self):
        l = loop(
            "i", 1, N, [assign(idx("A", i), 1.0), assign(idx("B", i), idx("A", i))]
        )
        g = dependence_graph(l)
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)

    def test_backward_carried_dependence(self):
        # S2 writes A(i); S1 reads A(i-1): S2@i-1 -> S1@i (flow, carried).
        l = loop(
            "i",
            2,
            N,
            [assign(idx("B", i), idx("A", i - 1)), assign(idx("A", i), 3.0)],
        )
        g = dependence_graph(l)
        assert g.has_edge(1, 0)

    def test_cycle_detected(self):
        # mutual recurrence: A(i) uses B(i-1), B(i) uses A(i).
        l = loop(
            "i",
            2,
            N,
            [
                assign(idx("A", i), idx("B", i - 1)),
                assign(idx("B", i), idx("A", i)),
            ],
        )
        g = dependence_graph(l)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_inner_loops_handled(self):
        inner = loop("k", 1, N, [assign(idx("C", i, k), idx("A", k) + 1.0)])
        l = loop("i", 1, N, [assign(idx("A", i), 1.0), inner])
        g = dependence_graph(l)
        # A written by S1 at i, read by S2 (inner k loop) at every i' with
        # k = i: both directions exist across iterations.
        assert g.has_edge(0, 1)

    def test_scalar_dependences(self):
        l = loop(
            "i", 1, N, [assign("s", sym("s") + 1.0), assign(idx("A", i), sym("s"))]
        )
        g = dependence_graph(l, scalars=frozenset({"s"}))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)  # s carried both ways


class TestDistribution:
    def make_program(self, body_loop, arrays=("A", "B"), scalars=()):
        return Program(
            "p",
            ("N",),
            tuple(ArrayDecl(a, (N,)) for a in arrays),
            tuple(ScalarDecl(s) for s in scalars),
            (body_loop,),
        )

    def test_independent_split(self):
        l = loop("i", 1, N, [assign(idx("A", i), 1.0), assign(idx("B", i), 2.0)])
        out = distribute_loop(l)
        assert len(out) == 2

    def test_split_preserves_semantics(self):
        l = loop(
            "i",
            2,
            N,
            [assign(idx("B", i), idx("A", i - 1)), assign(idx("A", i), i * 1.0)],
        )
        p = self.make_program(l)
        parts = distribute_loop(l)
        q = p.with_body(tuple(parts)).with_name("q")
        rng = np.random.default_rng(3)
        a0 = rng.random(8)
        x = run_compiled(p, {"N": 8}, {"A": a0})
        y = run_compiled(q, {"N": 8}, {"A": a0})
        assert np.allclose(x.arrays["A"], y.arrays["A"])
        assert np.allclose(x.arrays["B"], y.arrays["B"])

    def test_backward_dep_orders_loops(self):
        # B(i) = A(i-1) then A(i) = ... : the A-producing loop must come
        # first after distribution (the dependence edge points 1 -> 0).
        l = loop(
            "i",
            2,
            N,
            [assign(idx("B", i), idx("A", i - 1)), assign(idx("A", i), i * 1.0)],
        )
        parts = distribute_loop(l)
        assert len(parts) == 2
        # first emitted loop writes A
        first_writes = {
            s.target.name for s in parts[0].body
        }
        assert first_writes == {"A"}

    def test_cycle_keeps_statements_together(self):
        l = loop(
            "i",
            2,
            N,
            [
                assign(idx("A", i), idx("B", i - 1)),
                assign(idx("B", i), idx("A", i)),
            ],
        )
        out = distribute_loop(l)
        assert len(out) == 1

    def test_partition_stable_order(self):
        l = loop(
            "i",
            1,
            N,
            [assign(idx("A", i), 1.0), assign(idx("B", i), 2.0)],
        )
        assert distribution_partition(l) == [[0], [1]]

    def test_qr_x_nest_distributes(self):
        from repro.kernels import qr

        program = qr.fusable()
        # init and accumulation became separate j loops (9 items total).
        outer = program.body[0]
        assert len(outer.body) == 9
