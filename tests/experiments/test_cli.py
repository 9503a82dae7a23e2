"""End-to-end CLI tests for ``python -m repro.experiments``."""

import subprocess
import sys

import pytest


def run_cli(*args: str, code: int = 0) -> str:
    import os

    env = dict(os.environ)
    env.update({"REPRO_NO_CACHE": "1", "REPRO_SIZES": "12"})
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert out.returncode == code, out.stderr
    return out.stdout


class TestCLI:
    def test_table1(self):
        text = run_cli("table1")
        assert "matches the paper's Table 1" in text

    def test_figure5_tiny(self):
        text = run_cli("figure5")
        assert "Figure 5" in text
        assert "speedup ranges" in text

    def test_figure6_tiny(self):
        text = run_cli("figure6")
        assert "Figure 6" in text

    def test_jacobi_tiny(self):
        text = run_cli("jacobi")
        assert "Jacobi in-text statistics" in text

    def test_ablations_tiny(self):
        # N = 12 never fills L2, so the claims about N past the fill FAIL
        # and the target exits 1, as `claims` does at tiny sizes.
        text = run_cli("ablations", code=1)
        for title in (
            "tile-size policy", "Jacobi skewing", "ElimRW copy widening",
            "cache associativity", "undoing code sinking (N = 12)",
            "dirty L2 write-back lines",
        ):
            assert f"Ablation — {title}" in text
        assert "exact    12" in text
        assert "Claims — the ablations" in text
        assert "| Tiling cuts Cholesky's dirty L2 write-backs past the L2 fill |" in text
        assert "claims FAIL" in text

    def test_output_dir(self, tmp_path):
        text = run_cli("table1", "--output", str(tmp_path))
        assert (tmp_path / "figure5.csv").exists()
        assert "wrote figure5" in text

    def test_bad_target_rejected(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "figure99"],
            capture_output=True,
            text=True,
        )
        assert out.returncode != 0


    @pytest.mark.parametrize("flag", ["--quick", "--full"])
    def test_crossover_rejects_sweep_flags(self, flag, capsys):
        # The scan is fixed; a sweep-size flag would only look meaningful.
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["crossover", flag])
        assert exc.value.code == 2
        assert "crossover always scans N = 16..120" in capsys.readouterr().err


class TestTelemetryCLI:
    def test_telemetry_flag_writes_artifacts(self, tmp_path):
        run_dir = tmp_path / "run"
        text = run_cli("table1", "--telemetry", str(run_dir))
        for artifact in (
            "trace.jsonl", "metrics.json", "summary.txt", "trace_chrome.json"
        ):
            assert (run_dir / artifact).exists(), artifact
            assert f"telemetry {artifact}" in text
        summary = (run_dir / "summary.txt").read_text()
        assert "== span tree ==" in summary
        assert "== sweep cache ==" in summary

    def test_stdout_identical_with_and_without_telemetry(self, tmp_path):
        plain = run_cli("table1")
        traced = run_cli("table1", "--telemetry", str(tmp_path / "t"))
        assert traced.startswith(plain)  # report text unchanged; paths appended

    def test_telemetry_report_diff(self, tmp_path):
        run_cli("table1", "--telemetry", str(tmp_path / "a"))
        run_cli("table1", "--telemetry", str(tmp_path / "b"))
        text = run_cli(
            "telemetry_report", "--diff", str(tmp_path / "a"), str(tmp_path / "b")
        )
        assert "Telemetry diff" in text
        assert "Time per layer" in text

    def test_telemetry_report_requires_diff(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "telemetry_report"],
            capture_output=True,
            text=True,
        )
        assert out.returncode != 0
        assert "--diff" in out.stderr
