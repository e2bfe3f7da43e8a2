"""userkit benchmark: one workload, closed loop, outputs checked.

    python3 perfbench/run.py --workload noisy-16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src`
directory and nowhere else.  The load is one client in a closed loop: each
`userkit.cli.main([...])` call starts after the previous one returned.  The
benchmark and its children run on one CPU with one BLAS thread.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the per-layer
metrics of a traced run instead.  The lines before it give the machine, every
metric by name and unit (also those BENCHMARK.json does not bound: run_s,
runs_per_s, fail_ratio, abs_err, coverage), the checks that failed, and all
metrics again as JSON on the line starting "# all metrics: ".
Exit status is 2 when the checkout has no userkit sources, 1 when the worker
dies; no result line is printed in either case.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CONFIG_FILE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def pin_to_one_cpu() -> None:
    """Run this process and its children on the highest-numbered allowed CPU.

    On a shared two-CPU machine, six interleaved runs of `noisy-16` each gave
    per-run medians of 0.45-0.74 s unpinned and 0.58-0.72 s pinned: an
    unpinned worker moves between CPUs whose load from other tenants differs.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def blas_env() -> dict[str, str]:
    """Environment of the worker: userkit from this checkout, one BLAS thread per allowed CPU."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONNOUSERSITE="1")
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def time_setup(workdir: Path, env: dict) -> float:
    """Seconds from starting a fresh interpreter to the point the first call could start."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), "setup"], cwd=workdir, env=env, stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_worker(workdir: Path, env: dict, args) -> dict:
    cmd = [sys.executable, str(WORKER), "run", args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    proc = subprocess.run(
        cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((workdir / "worker.json").read_text())


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples above it.

    That percentile lies above the median only from 21 samples on.  With
    fewer, no tail percentile qualifies; the maximum is reported and labelled
    as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# The end-to-end metrics that BENCHMARK.json bounds.  The median `run_s` and
# `runs_per_s` are printed but not bounded: on the reference machine their
# spread over ten seeds reached 0.26 and 0.23, against the widest allowed
# bound of 0.25, because the machine's own speed drifts (see README.md).
BOUNDED = ("run_s_tail", "setup_s", "peak_rss_mb")


def accuracy(res: dict) -> dict:
    m = {"fail_ratio": metric(res["failed"] / res["attempted"], "share")}
    if res["abs_err"]:
        m["abs_err"] = metric(statistics.median(res["abs_err"]), "share")
        m["coverage"] = metric(sum(res["covered"]) / len(res["covered"]), "share")
    return m


def end_to_end(res: dict, setup_times: list[float]) -> dict:
    times = res["times"]
    tail_s, _ = tail(times)
    return {
        "run_s": metric(statistics.median(times), "s"),
        "run_s_tail": metric(tail_s, "s"),
        "runs_per_s": metric(len(times) / sum(times), "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        **accuracy(res),
    }


LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "_flops": "flop"}


def per_layer(res: dict) -> dict:
    out = {}
    for name, value in res["layers"].items():
        unit = next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")
        out[name] = metric(value, unit)
    return out


def report(args, res: dict, shown: dict) -> None:
    """Readable lines: the machine, every metric with its unit, and failed checks."""
    times = res["times"]
    _, pct = tail(times)
    print(f"# machine: {json.dumps(res['machine'], sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"#   calls: {res['attempted']} attempted, {res['failed']} failed, {len(times)} untraced timed")
    if args.trace:
        print(f"#   traced calls: {len(res['traced_times'])}; per-layer counts repeat: {res['counts_repeat']}")
    else:
        print(f"#   run_s_tail is the p{pct:.1f} of {len(times)} calls")
    for name, m in shown.items():
        print(f"#   {name}: {m['value']:.6g} {m['unit']}")
    for p in res["problems"]:
        print(f"#   FAILED {p}")
    print(f"# all metrics: {json.dumps(shown)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "userkit" / "__init__.py").is_file():
        print(f"no userkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (workdir / CONFIG_FILE).write_text(json.dumps(wl.config(args.seed), indent=2) + "\n")
    pin_to_one_cpu()
    env = blas_env()
    try:
        setup_times = [] if args.trace else [time_setup(workdir, env) for _ in range(SETUP_SAMPLES)]
        res = run_worker(workdir, env, args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(res)
        shown = {**accuracy(res), **metrics}
    else:
        shown = end_to_end(res, setup_times)
        metrics = {name: shown[name] for name in BOUNDED}
    report(args, res, shown)
    correct = res["failed"] == 0 and (not args.trace or res["counts_repeat"])
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
