#!/usr/bin/env python3
"""Error-bar coverage study for the noisy lattice preset.

Runs the full pipeline over many seeds, checks how often the reported error
bar (plus a small spread-proportional slack) covers the exact value, and
reports how the median noise strength scales with the injected perturbation.

With --zero-slack it instead runs each regime of REGIMES over the seeds and
counts a hit only when |mean - exact| <= error_bar, with no slack.  Per
regime it prints the coverage and the min, median and max of
error_bar / |mean - exact|; a run that raises counts as a miss and is listed.

    python scripts/coverage_study.py --zero-slack --seeds 20
"""

import argparse
import time

import numpy as np

from userkit.config import Experiment, preset_config, resolve_config
from userkit.errors import UserKitError
from userkit.sear import run_sear

# Zero-slack regimes, as overrides of the preset.  Fixed before any result was
# seen; a regime that misses is a finding, not a reason to change the list.
REGIMES = {
    "defaults": {},
    "perturbation 1e-1": {"perturbation": 1e-1},
    "probe gaussian:-3:1.5": {"probe_state": "gaussian:-3:1.5"},
    "n_s = 1": {"n_s": 1},
    "perturbation 3e-2, lambdas [0.25, 0.2]": {"perturbation": 3e-2, "lambdas": [0.25, 0.2]},
    "simulable, n_t = 32": {"twirl_mode": "simulable", "n_t": 32},
    "observable momentum-proxy": {"observable": "momentum-proxy"},
}


def run_one(preset, seed, **overrides):
    raw = dict(preset_config(preset).raw, seed=seed, **overrides)
    exp = Experiment.from_config(resolve_config(raw))
    return run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear)


def zero_slack_study(preset, seeds):
    print(f"{'regime':40s} coverage  bar/err min    median       max")
    for name, overrides in REGIMES.items():
        hits, ratios, failed = 0, [], []
        for seed in range(seeds):
            try:
                res = run_one(preset, seed, **overrides)
            except UserKitError as exc:
                failed.append(f"seed {seed}: {type(exc).__name__}")
                continue
            err = abs(res.mean_value - res.exact_value)
            hits += err <= res.error_bar
            ratios.append(res.error_bar / err if err > 0 else np.inf)
        q = np.quantile(ratios, [0.0, 0.5, 1.0]) if ratios else [np.nan] * 3
        print(f"{name:40s} {hits:3d}/{seeds:<3d}  {q[0]:11.3g} {q[1]:9.3g} {q[2]:9.3g}")
        if failed:
            print(f"    failed: {len(failed)} ({', '.join(failed[:3])}{', ...' if len(failed) > 3 else ''})")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--preset", default="noisy-16")
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--slack", type=float, default=0.05, help="extra coverage slack as a fraction of the observable spread")
    p.add_argument("--perturbations", type=float, nargs="+", default=[0.0, 1e-3, 1e-2, 1e-1])
    p.add_argument("--monotonicity-seeds", type=int, default=8)
    p.add_argument("--zero-slack", action="store_true", help="run the zero-slack regime study instead")
    args = p.parse_args()

    t0 = time.time()
    if args.zero_slack:
        zero_slack_study(args.preset, args.seeds)
        print(f"total time: {time.time() - t0:.1f} s")
        return

    hits = 0
    for seed in range(args.seeds):
        res = run_one(args.preset, seed)
        err = abs(res.mean_value - res.exact_value)
        covered = err <= res.error_bar + args.slack * res.spread
        hits += covered
        print(f"seed={seed:3d} err={err:.3e} bar={res.error_bar:.3e} covered={covered}")
    print(f"coverage: {hits}/{args.seeds}")

    for pert in args.perturbations:
        eps = [run_one(args.preset, s, perturbation=pert).noise_strength for s in range(args.monotonicity_seeds)]
        print(f"perturbation={pert:.1e} median eps={np.median(eps):.3e}")
    print(f"total time: {time.time() - t0:.1f} s")


if __name__ == "__main__":
    main()
