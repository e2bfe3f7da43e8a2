import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, timeout=120):
    """Run `python <args>` from the repository root with the package on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_coverage_study_smoke():
    out = run_python(
        str(ROOT / "scripts" / "coverage_study.py"),
        "--seeds", "1",
        "--monotonicity-seeds", "1",
        "--perturbations", "0.0",
    )
    assert "coverage: 1/1" in out


def test_magnus_slopes_smoke():
    out = run_python(str(ROOT / "scripts" / "magnus_slopes.py"), "--n-sites", "4", "--n-steps", "64")
    header, row = out.splitlines()
    assert header.split() == ["omega", "order-1", "slope", "order-2", "slope"]
    assert len(row.split()) == 3


def test_reconstruction_demo_smoke():
    out = run_python(str(ROOT / "scripts" / "reconstruction_demo.py"))
    error = float(out.splitlines()[-1].split()[-1])
    assert error < 1e-8


def test_bench_smoke():
    # bench/ lies outside `testpaths`; run each micro-benchmark once, untimed
    pytest.importorskip("pytest_benchmark")
    out = run_python("-m", "pytest", "bench", "--benchmark-disable", "-q", "-p", "no:cacheprovider")
    assert "passed" in out and "failed" not in out
