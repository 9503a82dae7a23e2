"""Tests for the report writer."""

from repro.experiments import ablations
from repro.experiments.report import write_all
from repro.experiments.sweep import SweepConfig
from repro.machine.configs import octane2_scaled


def test_write_all_artifacts(tmp_path):
    config = SweepConfig(
        machine=octane2_scaled(), sizes=(12,), jacobi_m=2, tile_policy="pdat"
    )
    written = write_all(tmp_path, config)
    assert set(written) == {
        "figure5", "figure678", "table1", "jacobi_stats", "claims", "ablations",
        "pipeline",
    }
    for path in written.values():
        assert path.exists() and path.read_text().strip()
    # CSVs alongside the markdown
    assert (tmp_path / "figure5.csv").exists()
    csv_text = (tmp_path / "figure5.csv").read_text()
    assert "speedup" in csv_text.splitlines()[0]
    assert len(csv_text.splitlines()) == 1 + 4  # header + four kernels
    # per-pass timing shows up in the pipeline report
    pipeline_md = (tmp_path / "pipeline.md").read_text()
    assert "ms total" in pipeline_md and "FixDeps" in pipeline_md
    assert "seconds" in (tmp_path / "pipeline.csv").read_text().splitlines()[0]
    # the ablations file is exactly what the CLI target prints
    ablations_md = (tmp_path / "ablations.md").read_text()
    assert ablations_md == ablations.main(config)[0] + "\n"
    assert "Claims — the ablations" in ablations_md
    # the claims are checked on the same rows; one size cannot show a trend
    claims_md = (tmp_path / "claims.md").read_text()
    assert "| Each kernel gains more at the largest N than at the smallest |" in claims_md
    assert "claims FAIL" in claims_md
    # provenance
    assert "octane2-scaled" in (tmp_path / "config.md").read_text()
