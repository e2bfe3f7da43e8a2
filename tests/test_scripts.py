import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_coverage_study_smoke():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "coverage_study.py"),
            "--seeds", "1",
            "--monotonicity-seeds", "1",
            "--perturbations", "0.0",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "coverage: 1/1" in proc.stdout
