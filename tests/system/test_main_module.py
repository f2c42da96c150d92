"""``python -m repro`` entry point."""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestMainModule:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )

    def test_python_m_repro_demo_smoke(self):
        proc = self._run("demo", "--frames", "2", "--size", "40x40",
                         "--levels", "2", "--engine", "neon", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        assert "frames fused" in proc.stdout

    def test_python_m_repro_batch_executor_flag(self):
        proc = self._run("demo", "--frames", "3", "--size", "40x40",
                         "--levels", "2", "--engine", "neon", "--seed", "7",
                         "--executor", "batch", "--batch-size", "2",
                         "--json")
        assert proc.returncode == 0, proc.stderr
        assert '"executor": "batch"' in proc.stdout

    def test_python_m_repro_error_path(self):
        proc = self._run("demo", "--size", "not-a-size")
        assert proc.returncode == 2  # argparse usage error
        assert "88x72" in proc.stderr

