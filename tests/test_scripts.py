import json
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


def test_coverage_study_zero_slack_smoke():
    out = run_python(str(ROOT / "scripts" / "coverage_study.py"), "--zero-slack", "--seeds", "1")
    rows = out.splitlines()[1:-1]
    # one row per regime, each run (momentum-proxy included) covered or not, none failed
    assert len(rows) == 7 and not any("failed" in row for row in rows)
    assert rows[-1].split()[:3] == ["observable", "momentum-proxy", "1/1"]


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


@pytest.mark.parametrize("workload", ["noisy-16", "simulable-twirl"])
def test_perfbench_tracer_smoke(workload):
    # the tracer binds library functions and their argument names; a traced
    # run must still bind them all and check out
    out = run_python(
        "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"
    )
    assert json.loads(out.splitlines()[-1])["correct"] is True
