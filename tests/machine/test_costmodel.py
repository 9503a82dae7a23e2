"""Unit tests for the perfex-style cost model and configs."""

import pytest

from repro.exec.events import Counters
from repro.machine.configs import octane2, octane2_scaled
from repro.machine.costmodel import CostModel


class TestCostModel:
    def test_paper_constants(self):
        m = CostModel()
        assert m.l1_miss_cycles == 9.92
        assert m.l2_miss_cycles == 162.55
        assert m.branch_mispredict_cycles == 5.0

    def test_graduated_instructions(self):
        c = Counters(loads=10, stores=5, flops=7, intops=20, branches=3, loop_iters=4)
        assert CostModel().graduated_instructions(c) == 49

    def test_memory_stall_split(self):
        m = CostModel()
        # 10 L1 misses of which 4 also miss L2
        stall = m.memory_stall_cycles(10, 4)
        assert stall == pytest.approx(6 * 9.92 + 4 * 162.55)

    def test_fig6_convention_totals(self):
        m = CostModel()
        assert m.l1_miss_cycle_total(100) == pytest.approx(992.0)
        assert m.l2_miss_cycle_total(10) == pytest.approx(1625.5)

    def test_total_cycles_composition(self):
        m = CostModel(instruction_cycles=1.0)
        c = Counters(loads=1, stores=1, flops=1, intops=1, branches=1, loop_iters=1)
        total = m.total_cycles(c, l1_misses=1, l2_misses=0, mispredicted=1)
        assert total == pytest.approx(6 + 9.92 + 5)

    def test_superscalar_default(self):
        assert CostModel().instruction_cycles == 0.25


class TestConfigs:
    def test_octane2_geometry(self):
        m = octane2()
        assert m.l1.size_bytes == 32 * 1024 and m.l1.line_bytes == 32
        assert m.l2.size_bytes == 2 * 1024 * 1024 and m.l2.line_bytes == 128
        assert m.l1.assoc == m.l2.assoc == 2

    def test_l2_fill_order_landmarks(self):
        assert octane2().l2_fill_order() == 512
        assert octane2_scaled().l2_fill_order() == 64

    def test_scaled_ratios(self):
        s = octane2_scaled()
        assert s.l2.size_bytes // s.l1.size_bytes == 16

    def test_default_machine_env(self, monkeypatch):
        from repro.machine.configs import default_machine

        # No environment variable selects the machine.
        monkeypatch.setenv("REPRO_FULL_MACHINE", "1")
        assert default_machine() == octane2_scaled()

    def test_registers_default(self):
        assert octane2().registers == 32
