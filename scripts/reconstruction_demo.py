#!/usr/bin/env python3
"""Demonstrate multiplicative-sampling reconstruction on a random instance.

Builds a random bounded Hermitian generator, samples the expectation value at
integer powers of the discretization unitary, sinc-interpolates back to the
target evolution, and compares against the exact spectral value.
"""

import argparse

import numpy as np

from userkit.matrix_core import expm_hermitian_i
from userkit.oracle import exact_intermediate_expectation, mc_haar_unitary
from userkit.sear import band_slack
from userkit.user_recon import Observable, PureState, kernel_window, required_n_l, user_reconstruct


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--lam", type=float, default=0.2)
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

    # one pulse and no synthesis defect: U_sd = e^{i pi lam A} exactly
    delta = band_slack(float(w[-1] - w[0]), args.lam, 1, 0.0)
    U_sd = expm_hermitian_i(A, np.pi * args.lam)
    rec, _ = user_reconstruct(psi, O, U_sd, args.lam, delta)
    exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)

    print(f"dim={args.dim} lam={args.lam} delta={delta:.4f} m={kernel_window(delta):.1f} n_l={required_n_l(args.lam, delta)}")
    print(f"reconstructed: {rec:.12g}")
    print(f"exact:         {exact:.12g}")
    print(f"error:         {abs(rec - exact):.3e}")


if __name__ == "__main__":
    main()
