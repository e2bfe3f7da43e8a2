#!/usr/bin/env python3
"""Measure truncation-defect scaling of the product-formula surrogate.

For a driven lattice, compare the time-ordered evolution against the
truncated generator at orders 1 and 2 over a geometric grid of final times,
and report the log-log slope of the spectral-norm defect.
"""

import argparse

import numpy as np

from userkit.aqs_magnus import EvolutionSpec, magnus_truncated, time_ordered_evolve
from userkit.lattice import LatticeSpec, build_lattice_family
from userkit.matrix_core import expm_hermitian_i


def slopes(n_sites, omega, ts, n_steps):
    fam = build_lattice_family(LatticeSpec(n_sites=n_sites))
    out = []
    for kappa in (1, 2):
        errs = []
        for t in ts:
            U_ref = time_ordered_evolve(fam, EvolutionSpec(gamma=omega, t_final=t, n_steps=n_steps))
            M = magnus_truncated(fam, omega, t, kappa, n_steps=n_steps)
            errs.append(np.linalg.norm(expm_hermitian_i(M, 1.0) - U_ref, 2))
        out.append((float(np.polyfit(np.log(ts), np.log(errs), 1)[0]), errs))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n-sites", type=int, default=8)
    p.add_argument("--omega", type=float, nargs="+", default=[39.5])
    p.add_argument("--times", type=float, nargs="+", default=[0.2, 0.1, 0.05, 0.025])
    p.add_argument("--n-steps", type=int, default=1024)
    args = p.parse_args()

    print(f"{'omega':>8} {'order-1 slope':>14} {'order-2 slope':>14}")
    for omega in args.omega:
        (s1, _), (s2, _) = slopes(args.n_sites, omega, args.times, args.n_steps)
        print(f"{omega:8.2f} {s1:14.3f} {s2:14.3f}")


if __name__ == "__main__":
    main()
