#!/usr/bin/env python3
"""Demonstrate multiplicative-sampling reconstruction on a random instance.

Builds a random bounded Hermitian generator, samples the expectation value at
integer powers of the discretization unitary, sinc-interpolates back to the
target evolution, and compares against the exact spectral value.
"""

import argparse

import numpy as np

from userkit.matrix_core import eig_hermitian, expm_hermitian_i
from userkit.oracle import exact_intermediate_expectation, mc_haar_unitary
from userkit.user_recon import (
    Observable,
    PureState,
    ReconstructionPlan,
    min_eigenvalue_gap,
    user_reconstruct,
)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--lam", type=float, default=0.2)
    p.add_argument("--safety", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    rng = np.random.default_rng(args.seed)
    w = np.sort(rng.uniform(-1.0, 1.0, args.dim))
    V = mc_haar_unitary(args.dim, args.seed + 1)
    A = (V * w) @ V.conj().T

    v = rng.standard_normal(args.dim) + 1j * rng.standard_normal(args.dim)
    psi = PureState(v / np.linalg.norm(v))
    G = rng.standard_normal((args.dim, args.dim)) + 1j * rng.standard_normal((args.dim, args.dim))
    O = Observable(0.5 * (G + G.conj().T))

    gap = min_eigenvalue_gap(eig_hermitian(A))
    plan = ReconstructionPlan.from_gap(gap, args.lam, args.safety)
    U_sd = expm_hermitian_i(A, np.pi * args.lam)
    rec = user_reconstruct(psi, O, U_sd, plan)
    exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)

    print(f"dim={args.dim} lam={args.lam} gap={gap:.4f} n_l={plan.n_l}")
    print(f"reconstructed: {rec:.12g}")
    print(f"exact:         {exact:.12g}")
    print(f"error:         {abs(rec - exact):.3e}")


if __name__ == "__main__":
    main()
