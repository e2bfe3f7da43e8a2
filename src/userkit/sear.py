"""End-to-end SEAR pipeline.

Stage I/II: build an ensemble of approximate intermediate unitaries from
designed discretization sequences and reconstruct each sample's expectation
value by integer-power sampling.  Stage III: twirl each member's defect channel
(over the Haar measure in closed form, or an explicit set) into a depolarizing
noise strength, and report mean value +/- (noise strength x observable spread).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Optional, Sequence

import numpy as np

from .aqs_magnus import SequencePlan, _check_target, approx_discretization_unitary, design_sequence
from .channels import _unitary_members, sear_error_channel, twirl_analytic, twirl_discrete
from .matrix_core import TOL_EIG, eig_hermitian, finite_floats
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


def generate_approx_unitaries(
    target_A: np.ndarray, config: SearConfig
) -> list[tuple[np.ndarray, np.ndarray, SequencePlan]]:
    """One ensemble member (U_k, U_sd, plan) per index k: design a sequence at
    lambda^(k), form the discretization unitary U_sd, and raise it to
    tau^(k) = round(1/lambda^(k)) for U_k.  A is checked once, here."""
    target_A = _check_target(target_A)
    seeds = np.random.SeedSequence(config.seed).generate_state(len(config.lambdas))
    out = []
    for k, lam in enumerate(config.lambdas):
        plan = design_sequence(target_A, lam, config.perturbation, seed=int(seeds[k]), n_s=config.n_s)
        U_sd = approx_discretization_unitary(plan)
        out.append((np.linalg.matrix_power(U_sd, round(1.0 / lam)), U_sd, plan))
    return out


def estimate_noise_strength(
    approx_list: Sequence[tuple[np.ndarray, np.ndarray, SequencePlan]],
    twirl_set: Optional[Sequence[np.ndarray]],
    psi: PureState,
    O: Observable,
) -> tuple[float, list[float]]:
    """Per-k twirl of the defect channel measured against member k,
    sear_error_channel(U_k, [U_1 .. U_n]), then the mean.  twirl_set None is the
    Haar measure, in closed form from overlaps (no channel built, no probe read);
    an explicit set is twirled on the probe.  Members and set are checked unitary
    once, not once per k.  With an explicit set and a zero-spread observable (a
    multiple of the identity) no probe can resolve a noise strength, and none is
    needed: every per_k is 0, once the set is checked."""
    unitaries = _unitary_members(U_k for U_k, _, _ in approx_list)
    if twirl_set is None:
        per_k = [twirl_analytic(U_k, unitaries).epsilon for U_k in unitaries]
    else:
        members = _unitary_members(twirl_set)
        if O.spread() <= TOL_EIG:
            per_k = [0.0] * len(unitaries)
        else:
            per_k = [twirl_discrete(sear_error_channel(U_k, unitaries), members, psi, O).epsilon for U_k in unitaries]
    return float(np.mean(per_k)), per_k


def run_sear(
    target_A: np.ndarray,
    psi: PureState,
    O: Observable,
    twirl_set: Optional[Sequence[np.ndarray]],
    config: SearConfig,
) -> SearResult:
    eig_A = eig_hermitian(target_A)
    spread_A = float(np.ptp(eig_A.values))
    deltas = [band_slack(spread_A, lam, config.n_s, config.perturbation) for lam in config.lambdas]
    for lam, delta in zip(config.lambdas, deltas):  # refuse any member's grid before designing one
        required_n_l(lam, delta)
    approx_list = generate_approx_unitaries(target_A, config)
    members = [
        user_reconstruct(psi, O, U_sd, lam, delta)
        for (_, U_sd, _), lam, delta in zip(approx_list, config.lambdas, deltas)
    ]
    noise_strength, per_k = estimate_noise_strength(approx_list, twirl_set, psi, O)
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
