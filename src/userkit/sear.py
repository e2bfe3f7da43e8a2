"""End-to-end SEAR pipeline.

Stage I/II: build an ensemble of approximate intermediate unitaries from
designed discretization sequences and reconstruct each sample's expectation
value by integer-power sampling.  Stage III: twirl each member's defect channel
(over the Haar measure in closed form, or an explicit set) into a depolarizing
noise strength, and report mean value +/- (noise strength x observable spread).
The ensemble is two (n_a, d, d) stacks: U_sd, which USER samples, and
U_k = U_sd^tau, which the twirl reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Optional, Sequence

import numpy as np

from .aqs_magnus import _check_target_spectrum, design_sequence
from .channels import twirl_analytic_all, twirl_set_all, unitary_stack
from .matrix_core import TOL_EIG, as_matrix, eig_hermitian, eigvals_hermitian, expm_product, finite_floats
from .user_recon import Observable, PureState, required_n_l, user_reconstruct


@dataclass(frozen=True)
class SearConfig:
    """Ensemble settings; the ensemble has one member per entry of `lambdas`."""

    lambdas: tuple = (0.25, 0.2, 0.125, 0.1)
    perturbation: float = 0.0
    seed: int = 0
    n_s: int = 4

    def __post_init__(self):
        object.__setattr__(self, "lambdas", finite_floats("lambdas", self.lambdas))
        if not self.lambdas:
            raise ValueError("lambdas must be nonempty")
        if any(not 0.0 < l < 0.5 for l in self.lambdas):
            raise ValueError("every lambda must lie in (0, 1/2)")
        for name, low in (("n_s", 1), ("seed", 0), ("perturbation", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class SampleRecord:
    """One ensemble member: its step, band slack, reconstructed value, noise
    strength, and the integer-power sample grid (k = -n_l .. n_l) the value came from."""

    lam: float
    delta: float
    value: float
    epsilon: float
    samples: np.ndarray


@dataclass(frozen=True)
class SearResult:
    mean_value: float
    noise_strength: float
    spread: float
    error_bar: float
    exact_value: float
    per_sample: tuple


def band_slack(spread_A: float, lam: float, n_s: int, perturbation: float) -> float:
    """How far a bound on the phase spread of design_sequence's U_sd stays below
    pi.  Each pulse e^{i M_xi} has spread(M_xi) <= pi lam spread(A) / n_s +
    2 perturbation; Thompson's exponential formula with Weyl's inequality adds
    these up over the n_s pulses."""
    return pi * (1.0 - lam * spread_A) - 2.0 * n_s * perturbation


def generate_approx_unitaries(target_A: np.ndarray, config: SearConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble as two (n_a, d, d) stacks (U_k, U_sd): row k designs a
    sequence at lambda^(k), multiplies its pulses out to the discretization
    unitary U_sd, and raises that to tau^(k) = round(1/lambda^(k)) for U_k.
    A's spectrum is checked once, here, from its eigenvalues."""
    target_A = as_matrix(target_A)
    _check_target_spectrum(eigvals_hermitian(target_A))
    return _design_ensemble(target_A, config)


def _design_ensemble(target_A: np.ndarray, config: SearConfig) -> tuple[np.ndarray, np.ndarray]:
    """`generate_approx_unitaries` for an A whose spectrum is already checked."""
    seeds = np.random.SeedSequence(config.seed).generate_state(len(config.lambdas))
    U_sd = np.empty((len(config.lambdas),) + target_A.shape, dtype=complex)
    for k, lam in enumerate(config.lambdas):
        U_sd[k] = expm_product(design_sequence(target_A, lam, config.perturbation, int(seeds[k]), config.n_s), 1.0)
    U_k = np.stack([np.linalg.matrix_power(U, round(1.0 / lam)) for U, lam in zip(U_sd, config.lambdas)])
    return U_k, U_sd


def estimate_noise_strength(
    members: np.ndarray, twirl_set: Optional[Sequence[np.ndarray]], psi: PureState, O: Observable
) -> tuple[float, list[float]]:
    """Per-k twirl of member U_k's defect channel, with Kraus operators
    U_a U_k^dag / sqrt(n) over the n members U_a (the `U_k` stack of
    `generate_approx_unitaries`), then the mean.  twirl_set None is the Haar
    measure, in closed form from overlaps (no probe read); an explicit set is
    twirled on the probe.  Members and set are checked unitary once, not once
    per k.  With an explicit set and a zero-spread observable (a multiple of
    the identity) no probe can resolve a noise strength, and none is needed:
    every per_k is 0, once both stacks are checked."""
    if twirl_set is None:
        per_k = twirl_analytic_all(members)
    elif O.spread() <= TOL_EIG:
        per_k = np.zeros(len(unitary_stack(members)))
        unitary_stack(twirl_set)
    else:
        per_k = twirl_set_all(members, twirl_set, psi, O)
    return float(np.mean(per_k)), per_k.tolist()


def run_sear(
    target_A: np.ndarray,
    psi: PureState,
    O: Observable,
    twirl_set: Optional[Sequence[np.ndarray]],
    config: SearConfig,
) -> SearResult:
    target_A = as_matrix(target_A)
    eig_A = eig_hermitian(target_A)  # the run's one decomposition of A
    spread_A = float(np.ptp(eig_A.values))
    deltas = [band_slack(spread_A, lam, config.n_s, config.perturbation) for lam in config.lambdas]
    for lam, delta in zip(config.lambdas, deltas):  # refuse any member's grid before designing one
        required_n_l(lam, delta)
    _check_target_spectrum(eig_A.values)
    U_k, U_sd = _design_ensemble(target_A, config)
    members = [user_reconstruct(psi, O, U, lam, delta) for U, lam, delta in zip(U_sd, config.lambdas, deltas)]
    noise_strength, per_k = estimate_noise_strength(U_k, twirl_set, psi, O)
    spread = O.spread()
    v = eig_A.expm_i(pi) @ psi.amplitudes  # the exact reference, e^{i pi A} psi
    return SearResult(
        mean_value=float(np.mean([value for value, _ in members])),
        noise_strength=noise_strength,
        spread=spread,
        error_bar=noise_strength * spread,
        exact_value=float(np.real(v.conj() @ O.matrix @ v)),
        per_sample=tuple(
            SampleRecord(lam=lam, delta=delta, value=value, epsilon=eps, samples=samples)
            for lam, delta, (value, samples), eps in zip(config.lambdas, deltas, members, per_k)
        ),
    )
