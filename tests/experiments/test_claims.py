"""The claim checks, run on the committed full-sweep results.

The rows are rebuilt from ``results/*.csv`` (floats round-trip exactly), so
these tests check the claims on the same numbers the ``all --full`` run
pinned, without measuring anything.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

import pytest

from repro.experiments import (
    ablations,
    claims,
    crossover,
    figure5,
    figure678,
    jacobi_stats,
    paperpoint,
    table1,
)
from repro.experiments.__main__ import main
from repro.experiments.crossover import Crossover
from repro.experiments.figure5 import Figure5Row
from repro.experiments.figure678 import CholRow
from repro.experiments.jacobi_stats import JacobiStatsRow
from repro.experiments.paperpoint import PaperPoint
from repro.machine.configs import octane2_scaled
from tests.experiments.test_ablations import ROWS as ABLATION_ROWS

RESULTS = Path(__file__).resolve().parents[2] / "results"
_TYPES = {"int": int, "float": float, "str": str}


def _load(name: str, cls) -> list:
    types = {f.name: _TYPES[f.type] for f in dataclasses.fields(cls)}
    with open(RESULTS / name, newline="") as fh:
        return [cls(**{k: types[k](v) for k, v in r.items()}) for r in csv.DictReader(fh)]


def _table() -> dict[str, dict[str, bool]]:
    with open(RESULTS / "table1.csv", newline="") as fh:
        return {r.pop("method"): {k: v == "True" for k, v in r.items()}
                for r in csv.DictReader(fh)}


def _with_tiled_l2_at_seq(rows: list[CholRow], n: int) -> list[CholRow]:
    """Cholesky's tiled L2 miss cycles at *n* raised to the sequential value."""
    return [
        dataclasses.replace(r, tiled_l2_cycles=r.seq_l2_cycles) if r.n == n else r
        for r in rows
    ]


@pytest.fixture(scope="module")
def rows():
    return {
        "f5": _load("figure5.csv", Figure5Row),
        "chol": _load("figure678.csv", CholRow),
        "table": _table(),
        "js": _load("jacobi_stats.csv", JacobiStatsRow),
    }


def _check(rows, chol=None) -> list[claims.Claim]:
    return claims.check(
        rows["f5"], chol or rows["chol"], rows["table"], rows["js"], octane2_scaled()
    )


def test_committed_results_hold_every_claim(rows):
    checked = _check(rows)
    assert [c.claim for c in checked if not c.holds] == []
    assert {c.place for c in checked} == {
        "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Table 1", "Sec. 4"
    }
    # results/claims.md is exactly these rows, rendered
    assert (RESULTS / "claims.md").read_text() == claims.render(checked) + "\n"


def test_cholesky_l2_perturbation_fails_figure6(rows):
    checked = _check(rows, _with_tiled_l2_at_seq(rows["chol"], 184))
    l2 = next(c for c in checked if c.claim.startswith("Tiling cuts Cholesky's L2"))
    assert l2.place == "Fig. 6" and l2.verdict == "FAILS"
    assert "N=184 1.00x" in l2.measured
    # Nothing saved at N=184 also sinks the L1-vs-L2 and branch-overhead rows.
    assert [c.place for c in checked if not c.holds] == ["Fig. 6", "Fig. 6", "Fig. 7"]
    assert "3 of 13 claims FAIL" in claims.render(checked)


@pytest.mark.parametrize("share", [4, 5])
def test_cholesky_misprediction_perturbation_fails_figure7(rows, share):
    """A fifth (or a quarter) of the tiled branches at N=88 mispredicted:
    their cycles reach the resolution cycles, and that row alone FAILS."""
    chol = [
        dataclasses.replace(r, tiled_branch_mispredicted=-(-r.tiled_branch_resolved // share))
        if r.n == 88 else r
        for r in rows["chol"]
    ]
    checked = _check(rows, chol)
    assert [c.claim for c in checked if not c.holds] == [
        "Misprediction cycles stay below resolution cycles at every N"
    ]
    row = next(c for c in checked if not c.holds)
    assert row.place == "Fig. 7" and row.bound == "tiled 5 x mispredicted < 1 x resolved at every N"


def test_table1_mismatch_fails(rows):
    table = {m: dict(cols) for m, cols in rows["table"].items()}
    table["this-work"]["qr"] = False
    (row,) = claims.table1_claims(table)
    assert row.verdict == "FAILS" and "this-work/qr" in row.measured


@pytest.mark.parametrize("perturb", [False, True])
def test_all_exit_code_follows_claims(rows, monkeypatch, capsys, perturb):
    chol = _with_tiled_l2_at_seq(rows["chol"], 184) if perturb else rows["chol"]
    monkeypatch.delenv("REPRO_SIZES", raising=False)
    monkeypatch.setattr(figure5, "generate", lambda config=None: rows["f5"])
    monkeypatch.setattr(figure678, "generate", lambda config=None: chol)
    monkeypatch.setattr(table1, "generate", lambda: rows["table"])
    monkeypatch.setattr(jacobi_stats, "generate", lambda config=None: rows["js"])
    monkeypatch.setattr(ablations, "generate", lambda config=None: ABLATION_ROWS)
    assert main(["all", "--full"]) == (1 if perturb else 0)
    assert ("3 of 13 claims FAIL" if perturb else "13 of 13 claims hold") in (
        capsys.readouterr().out
    )


ANCHOR = PaperPoint(
    n=238, tile=45, speedup=1.19, seq_l1=549_595, tiled_l1=306_939,
    seq_l2=1_987, tiled_l2=1_987,
    seq_instructions=36_347_817, tiled_instructions=36_321_799,
)


@pytest.mark.parametrize(
    "change,fails",
    [
        ({}, []),
        ({"speedup": 1.0}, ["A modest small-end speedup (paper: 1.11)"]),
        ({"tiled_l1": 412_197}, ["The win comes from L1: its misses drop"]),
        ({"tiled_l2": 1_986}, ["The matrix fits L2: only cold misses there"]),
        ({"tile": 44}, ["PDAT picks the tile for the real 32 KB L1"]),
    ],
)
def test_paperpoint_claims(change, fails):
    checked = claims.paperpoint_claims(dataclasses.replace(ANCHOR, **change))
    assert [c.claim for c in checked if not c.holds] == fails


def _scan(break_even: dict[str, int | None]) -> list[Crossover]:
    return [Crossover(k, n, ((16, 0.5), (24, 0.6))) for k, n in break_even.items()]


@pytest.mark.parametrize(
    "break_even,failing",
    [
        ({"lu": 80, "qr": 72, "cholesky": 88, "jacobi": 16}, 0),
        ({"lu": 64, "qr": 72, "cholesky": 88, "jacobi": 16}, 1),
        ({"lu": 80, "qr": 72, "cholesky": 96, "jacobi": 16}, 1),
        ({"lu": None, "qr": 72, "cholesky": 88, "jacobi": 16}, 1),
        ({"lu": 80, "qr": 72, "cholesky": 88, "jacobi": 24}, 1),
    ],
)
def test_crossover_claims(break_even, failing):
    checked = claims.crossover_claims(_scan(break_even), octane2_scaled())
    assert sum(not c.holds for c in checked) == failing


def test_crossover_and_paperpoint_targets_exit_on_fails(monkeypatch, capsys):
    monkeypatch.setattr(
        crossover, "generate",
        lambda config=None: _scan({"lu": None, "qr": 72, "cholesky": 88, "jacobi": 16}),
    )
    assert main(["crossover"]) == 1
    monkeypatch.setattr(paperpoint, "measure", lambda: ANCHOR)
    assert main(["paperpoint"]) == 0
    out = capsys.readouterr().out
    assert "Claims — crossover" in out and "Claims — anchor point" in out
