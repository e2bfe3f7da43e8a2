"""Run the benchmark several times on one workload and report run-to-run spread.

    python3 perfbench/spread.py --workload noisy-16 --runs 10 --first-seed 100

Each run uses the next seed.  For every metric a run prints, this prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the distance
between them as a share of the median, next to the metric's bound from
BENCHMARK.json (blank for metrics it does not bound).  Use --trace 1 to see
how the per-layer metrics repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, with `metrics` widened to every printed metric."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prefix = "# all metrics: "
    result["metrics"] = json.loads(next(ln for ln in lines if ln.startswith(prefix))[len(prefix):])
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for i in range(args.runs):
        res = one_run(args.workload, args.first_seed + i, seconds, args.trace)
        results.append(res)
        print(f"seed {args.first_seed + i}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                                                  if not args.trace), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rel = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if rel < bound / 3 else ("WIDE" if rel < bound else "OVER"))
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {bound if bound is not None else '':>6} {flag}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
