#!/usr/bin/env python3
"""Error-bar coverage study for the noisy lattice preset.

Runs the full pipeline over many seeds, checks how often the reported error
bar (plus a small spread-proportional slack) covers the exact value, and
reports how the median noise strength scales with the injected perturbation.
"""

import argparse
import time

import numpy as np

from userkit.config import Experiment, preset_config, resolve_config
from userkit.sear import run_sear


def run_one(preset, seed, perturbation=None):
    raw = dict(preset_config(preset).raw, seed=seed)
    if perturbation is not None:
        raw["perturbation"] = perturbation
    exp = Experiment.from_config(resolve_config(raw))
    return run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--preset", default="noisy-16")
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--slack", type=float, default=0.05, help="extra coverage slack as a fraction of the observable spread")
    p.add_argument("--perturbations", type=float, nargs="+", default=[0.0, 1e-3, 1e-2, 1e-1])
    p.add_argument("--monotonicity-seeds", type=int, default=8)
    args = p.parse_args()

    t0 = time.time()
    hits = 0
    for seed in range(args.seeds):
        res = run_one(args.preset, seed)
        err = abs(res.mean_value - res.exact_value)
        covered = err <= res.error_bar + args.slack * res.spread
        hits += covered
        print(f"seed={seed:3d} err={err:.3e} bar={res.error_bar:.3e} covered={covered}")
    print(f"coverage: {hits}/{args.seeds}")

    for pert in args.perturbations:
        eps = [run_one(args.preset, s, pert).noise_strength for s in range(args.monotonicity_seeds)]
        print(f"perturbation={pert:.1e} median eps={np.median(eps):.3e}")
    print(f"total time: {time.time() - t0:.1f} s")


if __name__ == "__main__":
    main()
