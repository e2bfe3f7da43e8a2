"""Benchmark worker: one fresh interpreter that runs userkit in-process.

perfbench/run.py starts it with PYTHONPATH set to the checkout's `src` and the
working directory set to a scratch directory that holds `config.json`.

  worker.py setup
      Import userkit.cli, load the config, print "ready" and exit.  The parent
      times this from process start: it is the set-up a user pays before the
      first call can start.
  worker.py run <workload> <seed> <seconds> <trace>
      A closed loop with one client: each userkit.cli.main call starts after
      the previous one returned, until <seconds> have passed.  Every call is
      checked; the outcome goes to worker.json.  With <trace> 1 the calls
      alternate untraced and traced on the same seed, the artifacts of each
      pair must be byte-identical, and the per-layer metrics come from the
      traced calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from layertrace import Tracer, layer_metrics
from workloads import CONFIG_FILE as CONFIG, OUTPUT_DIR as OUT, WORKLOADS

# error_bar must equal epsilon * spread up to float rounding.
IDENTITY_RTOL = 1e-12
# result.json's own exact value and spread against the oracle's, as a share
# of the spread.
ORACLE_EXACT_TOL = 1e-9


def setup():
    from userkit import cli  # noqa: F401
    from userkit.config import load_config

    return load_config(CONFIG)


def check_source() -> None:
    import userkit

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if not os.path.realpath(userkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"userkit imported from {userkit.__file__}, not from {src}")


def oracle_reference(cfg) -> dict:
    """Exact value and spread for the config's target, from userkit.oracle."""
    import numpy as np

    from userkit.config import observable_matrix, probe_state_vector
    from userkit.lattice import build_target_hamiltonian, target_A_from_hamiltonian
    from userkit.oracle import exact_intermediate_expectation

    r = cfg.raw
    spec = cfg.lattice
    A, _ = target_A_from_hamiltonian(build_target_hamiltonian(spec), r["evolution_time"])
    O = observable_matrix(r["observable"], spec)
    psi = probe_state_vector(r["probe_state"], spec)
    w = np.linalg.eigvalsh(0.5 * (O + O.conj().T))
    return {"exact": exact_intermediate_expectation(psi, O, A), "spread": float(w[-1] - w[0])}


def timed_call(cli, argv: list[str]) -> tuple[object, float, str]:
    """One CLI call; returns (exit code or exception text, seconds, stderr)."""
    shutil.rmtree(OUT, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception: " + traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
    return rc, dt, err.getvalue()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_call(wl, rc, ref) -> tuple[list[str], dict]:
    """Problems with one call's outputs, and its accuracy figures."""
    if rc != 0:
        return [f"exit {rc}"], {}
    missing = [f for f in wl.artifacts() if not os.path.isfile(os.path.join(OUT, f))]
    if missing:
        return [f"missing artifact {f}" for f in missing], {}
    problems = []
    with open(os.path.join(OUT, "epsilon.json")) as fh:
        eps_doc = json.load(fh)
    per_k = eps_doc.get("per_k")
    if not _finite(eps_doc.get("mean")) or not per_k or not all(_finite(x) for x in per_k):
        problems.append(f"non-finite epsilon in epsilon.json: {eps_doc.get('mean')!r} {per_k!r}")
    elif not math.isclose(eps_doc["mean"], statistics.fmean(per_k), rel_tol=1e-12, abs_tol=1e-15):
        problems.append("epsilon.json mean is not the mean of per_k")
    for name in ("samples.csv", "reconstruction.csv"):
        if name in wl.artifacts():
            with open(os.path.join(OUT, name)) as fh:
                rows = fh.read().splitlines()[1:]
            if not rows or not all(math.isfinite(float(v)) for row in rows for v in row.split(",")):
                problems.append(f"{name} is empty or holds non-finite values")
    if wl.oracle_tol is None:
        return problems, {}

    with open(os.path.join(OUT, "result.json")) as fh:
        res = json.load(fh)
    fields = ("mean", "error_bar", "epsilon", "spread")
    if not all(_finite(res.get(k)) for k in fields):
        return problems + [f"non-finite result field: { {k: res.get(k) for k in fields} }"], {}
    if not math.isclose(res["error_bar"], res["epsilon"] * res["spread"], rel_tol=IDENTITY_RTOL, abs_tol=1e-300):
        problems.append(f"error_bar {res['error_bar']!r} != epsilon*spread {res['epsilon'] * res['spread']!r}")
    if "epsilon.json" in wl.artifacts() and res["epsilon"] != eps_doc.get("mean"):
        problems.append("result.json epsilon differs from epsilon.json mean")
    spread = ref["spread"]
    if abs(res["spread"] - spread) > ORACLE_EXACT_TOL * spread:
        problems.append(f"spread {res['spread']!r} != oracle spread {spread!r}")
    if res.get("exact") is not None and abs(res["exact"] - ref["exact"]) > ORACLE_EXACT_TOL * spread:
        problems.append(f"exact {res['exact']!r} != oracle {ref['exact']!r}")
    miss = abs(res["mean"] - ref["exact"])
    abs_err = miss / spread
    if abs_err > wl.oracle_tol:
        problems.append(f"|mean - exact|/spread = {abs_err:.3e} > {wl.oracle_tol:g}")
    return problems, {"abs_err": abs_err, "covered": miss <= res["error_bar"] + 0.05 * spread}


def read_artifacts(wl) -> dict[str, bytes]:
    out = {}
    for name in wl.artifacts():
        path = os.path.join(OUT, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "shared_machine": True,
        "not_controlled": "other tenants' load, CPU frequency scaling, OS file cache",
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cfg = setup()
    check_source()
    from userkit import cli

    wl = WORKLOADS[name]
    ref = oracle_reference(cfg) if wl.oracle_tol is not None else None
    tracer = Tracer() if trace else None

    times, traced_times, layer_runs = [], [], []
    abs_errs, covered, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while attempted == 0 or time.perf_counter() - start < seconds:
        argv = [wl.command, CONFIG, "--seed", str(seed + i)]
        rc, dt, err = timed_call(cli, argv)
        bad, acc = check_call(wl, rc, ref)
        attempted += 1
        times.append(dt)
        if acc:
            abs_errs.append(acc["abs_err"])
            covered.append(acc["covered"])
        if tracer is not None:
            plain = read_artifacts(wl)
            tracer.reset()
            tracer.install()
            try:
                rc_t, dt_t, _ = timed_call(cli, argv)
            finally:
                tracer.uninstall()
            attempted += 1
            traced_times.append(dt_t)
            bad_t, _ = check_call(wl, rc_t, ref)
            if not bad_t and read_artifacts(wl) != plain:
                bad_t = ["traced call wrote different artifact bytes than the untraced call"]
            if bad_t:
                failed += 1
                problems.append(f"traced seed {seed + i}: " + "; ".join(bad_t))
            layer_runs.append(layer_metrics(tracer.spans))
        if bad:
            failed += 1
            problems.append(f"seed {seed + i}: " + "; ".join(bad) + (f" [{err.strip()[-300:]}]" if err.strip() else ""))
        i += 1

    result = {
        "times": times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "abs_err": abs_errs,
        "covered": covered,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer is not None:
        keys = layer_runs[0].keys()
        result["layers"] = {k: statistics.median(run[k] for run in layer_runs) for k in keys}
        # io_bytes follows the printed digits of each seed's numbers.
        count_keys = [k for k in keys if not k.endswith("_s") and k != "cli.io_bytes"]
        result["counts_repeat"] = all(run[k] == layer_runs[0][k] for run in layer_runs for k in count_keys)
        result["layers"]["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        result["traced_times"] = traced_times
    return result


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        setup()
        check_source()
        print("ready", flush=True)
        return 0
    name, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    result = run(name, seed, seconds, trace)
    with open("worker.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
