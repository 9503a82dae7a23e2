"""Unit tests for the utility helpers."""

import time

import pytest

from repro.utils.naming import NameGenerator, fresh_name
from repro.utils.tables import render_table
from repro.utils.timing import Timer
from repro.utils.validation import check_positive_int, check_type


class TestNaming:
    def test_fresh_avoids_reserved(self):
        g = NameGenerator(["x"])
        assert g.fresh("x") == "x_2"

    def test_fresh_unique_sequence(self):
        g = NameGenerator()
        assert [g.fresh("t"), g.fresh("t"), g.fresh("t")] == ["t", "t_2", "t_3"]

    def test_keywords_avoided(self):
        g = NameGenerator()
        assert g.fresh("is") != "is"
        assert g.fresh("for") != "for"

    def test_reserve(self):
        g = NameGenerator()
        g.reserve("a")
        assert "a" in g
        assert g.fresh("a") == "a_2"

    def test_one_shot_helper(self):
        assert fresh_name("i", {"i", "i_2"}) == "i_3"


class TestTables:
    def test_alignment_and_headers(self):
        text = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert lines[-1].endswith("22")

    def test_floats_formatted(self):
        text = render_table(["x"], [[1.23456]], float_fmt=".2f")
        assert "1.23" in text

    def test_bools_rendered(self):
        text = render_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_title(self):
        assert render_table(["a"], [[1]], title="T").startswith("T")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])


class TestTiming:
    def test_timer_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.001)
        with t:
            pass
        assert t.elapsed > 0

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0


class TestValidation:
    def test_check_type(self):
        assert check_type(3, int, "x") == 3
        with pytest.raises(TypeError):
            check_type("3", int, "x")

    def test_check_type_union(self):
        assert check_type(3.5, (int, float), "x") == 3.5

    def test_positive_int(self):
        assert check_positive_int(2, "n") == 2
        with pytest.raises(ValueError):
            check_positive_int(0, "n")
        with pytest.raises(TypeError):
            check_positive_int(True, "n")
