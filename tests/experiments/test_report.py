"""The target table: one run prints and writes the same sections, each
table generated once."""

import csv
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import (
    ablations,
    figure5,
    figure678,
    jacobi_stats,
    paperpoint,
    report,
    runner,
    table1,
)
from repro.experiments.__main__ import main
from repro.experiments.sweep import default_config
from tests.experiments.test_claims import ANCHOR


def _count_calls(monkeypatch, functions) -> Counter:
    calls = Counter()
    for module, name in functions:
        original = getattr(module, name)

        def wrapper(*args, _original=original, _name=f"{module.__name__}.{name}", **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_all_output_generates_once_and_writes_what_it_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SIZES", "12")
    runner.clear_caches()
    generators = [(m, "generate") for m in (figure5, figure678, table1, jacobi_stats)]
    calls = _count_calls(monkeypatch, [*generators, (ablations, "tile_rows")])
    code = main(["all", "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert sorted(calls.values()) == [1] * 5, calls
    # One size cannot show a trend: some sweep claims FAIL.
    assert code == 1
    names = ["figure5", "figure678", "table1", "jacobi_stats", "claims", "ablations"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{n}.md" for n in names] + [f"{n}.csv" for n in names[:4]] + ["config.md"]
    )
    lines = out.split("\n", len(names))
    assert lines[:-1] == [f"wrote {n}: {tmp_path / n}.md" for n in names]
    # stdout after the "wrote" lines is every markdown file, in order.
    assert lines[-1] == "\n".join((tmp_path / f"{n}.md").read_text() for n in names)
    csv_text = (tmp_path / "figure5.csv").read_text()
    assert "speedup" in csv_text.splitlines()[0]
    assert len(csv_text.splitlines()) == 1 + 4  # header + four kernels
    assert "Claims — the ablations" in (tmp_path / "ablations.md").read_text()
    claims_md = (tmp_path / "claims.md").read_text()
    assert "| Each kernel gains more at the largest N than at the smallest |" in claims_md
    assert "claims FAIL" in claims_md
    assert "- sizes: [12]" in (tmp_path / "config.md").read_text()


def test_pipeline_output(tmp_path, capsys):
    assert main(["pipeline", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    pipeline_md = (tmp_path / "pipeline.md").read_text()
    assert "ms total" in pipeline_md and "FixDeps" in pipeline_md
    assert "seconds" in (tmp_path / "pipeline.csv").read_text().splitlines()[0]


def test_pipeline_output_leaves_config_md_alone(tmp_path, capsys):
    # The pipeline builds use no sweep configuration, so writing them
    # beside the sweep's results must not rewrite its config.md.
    sentinel = b"# sweep configuration\n- sizes: [88, 120, 152, 184]\n"
    (tmp_path / "config.md").write_bytes(sentinel)
    assert main(["pipeline", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "config.md").read_bytes() == sentinel
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.md", "pipeline.csv", "pipeline.md"
    ]


def test_committed_pipeline_matches_a_fresh_build(tmp_path):
    # results/pipeline.csv comes from a `pipeline --output` run that no CI
    # step repeats (its timings vary); every other column must still
    # describe the recipes as they build now.
    def rows(path):
        with path.open(newline="") as fh:
            return [{k: v for k, v in row.items() if k != "seconds"}
                    for row in csv.DictReader(fh)]

    report.write(report.sections("pipeline", default_config()), tmp_path)
    committed = Path(__file__).parents[2] / "results" / "pipeline.csv"
    assert rows(committed) == rows(tmp_path / "pipeline.csv")


@pytest.mark.parametrize("target", ["figure6", "figure7", "figure8"])
def test_figure_targets_print_one_figure_each(target, monkeypatch):
    monkeypatch.setenv("REPRO_SIZES", "12")
    [section] = report.sections(target, default_config())
    title = {"figure6": "Figure 6", "figure7": "Figure 7", "figure8": "Figure 8"}[target]
    assert section.name == target and title in section.text
    assert all(other not in section.text for other in ("Figure 6", "Figure 7", "Figure 8")
               if other != title)
    assert [row["n"] for row in section.csv] == [12]


def test_paperpoint_output_writes_the_config_it_measured_on(tmp_path, monkeypatch, capsys):
    # The anchor point's numbers stand in for the measurement.
    monkeypatch.setattr(paperpoint, "measure", lambda: ANCHOR)
    assert main(["paperpoint", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "config.md").read_text() == "\n".join([
        "# sweep configuration",
        "- machine: octane2",
        "- L1: 32768 B, 32 B lines, 2-way",
        "- L2: 2097152 B, 128 B lines, 2-way",
        "- registers: 32",
        "- instruction cycles: 0.25",
        "- sizes: [238]",
        "- jacobi M: 500",
        "- tile: pdat (45)",
        "- seed: 20050615",
        "",
    ])


def test_write_names_the_sections_of_each_config(tmp_path):
    scaled = default_config()
    true = paperpoint.paper_config()
    sections = [report.Section("a", "A", scaled), report.Section("b", "B", true),
                report.Section("c", "C", scaled, csv=[{"x": 1}])]
    paths = report.write(sections, tmp_path)
    assert list(paths) == ["a", "b", "c"]
    config_md = (tmp_path / "config.md").read_text()
    first, second = config_md.split("\n\n")
    assert first.startswith("# sweep configuration (a, c)\n- machine: octane2-scaled\n")
    assert second.startswith("# sweep configuration (b)\n- machine: octane2\n")
    assert second.endswith("- sizes: [238]\n- jacobi M: 500\n- tile: pdat (45)\n- seed: 20050615\n")
