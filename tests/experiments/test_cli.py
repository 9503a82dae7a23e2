"""End-to-end CLI tests for ``python -m repro.experiments``."""

import subprocess
import sys

import pytest


def run_cli(*args: str, env_extra: dict | None = None) -> str:
    import os

    env = dict(os.environ)
    env.update(
        {
            "REPRO_NO_CACHE": "1",
            "REPRO_SIZES": "12",
            **(env_extra or {}),
        }
    )
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
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

    def test_env_var_equivalent(self, tmp_path):
        run_dir = tmp_path / "envrun"
        run_cli("table1", env_extra={"REPRO_TELEMETRY": str(run_dir)})
        assert (run_dir / "trace.jsonl").exists()

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
