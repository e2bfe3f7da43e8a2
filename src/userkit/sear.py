"""End-to-end SEAR pipeline.

Stage I/II: build an ensemble of approximate intermediate unitaries from
designed discretization sequences and reconstruct each sample's expectation
value by integer-power sampling.  Stage III: twirl the complementary defect
channels over a unitary set to estimate a depolarizing noise strength, and
report mean value +/- (noise strength x observable spread).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Optional, Sequence

import numpy as np

from .aqs_magnus import SequencePlan, approx_discretization_unitary, design_sequence
from .channels import complementary_error_channel, density_from_pure, twirl_discrete
from .matrix_core import DEFAULT_TOL, Tolerances, eig_hermitian, expm_hermitian_i
from .user_recon import (
    Observable,
    PureState,
    ReconstructionPlan,
    min_eigenvalue_gap,
    sample_integer_powers,
    sinc_reconstruct,
)


@dataclass(frozen=True)
class SearConfig:
    n_a: int
    kappa: int = 2
    lambdas: tuple = (0.25, 0.2, 0.125, 0.1)
    perturbation: float = 0.0
    safety: float = 10.0
    seed: int = 0
    n_s: int = 4

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if len(lams) != self.n_a:
            raise ValueError(f"need n_a={self.n_a} lambdas, got {len(lams)}")
        if any(not 0.0 < l < 0.5 for l in lams):
            raise ValueError("every lambda must lie in (0, 1/2)")
        if self.kappa not in (1, 2):
            raise ValueError("kappa must be 1 or 2")
        if self.n_a < 1:
            raise ValueError("n_a must be positive")


@dataclass(frozen=True)
class SampleRecord:
    """One ensemble member: its step, reconstructed value, noise strength, and
    the integer-power sample grid (k = -n_l .. n_l) the value came from."""

    index: int
    lam: float
    value: float
    epsilon: Optional[float] = None
    samples: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SearResult:
    mean_value: float
    noise_strength: float
    spread: float
    error_bar: float
    exact_value: Optional[float]
    per_sample: tuple


def generate_approx_unitaries(
    target_A: np.ndarray,
    config: SearConfig,
    tol: Tolerances = DEFAULT_TOL,
) -> list[tuple[np.ndarray, np.ndarray, SequencePlan]]:
    """One ensemble member (U_k, U_sd, plan) per index k: design a sequence at
    lambda^(k), form the discretization unitary U_sd, and raise it to
    tau^(k) = round(1/lambda^(k)) for U_k."""
    seeds = np.random.SeedSequence(config.seed).generate_state(config.n_a)
    out = []
    for k, lam in enumerate(config.lambdas):
        plan = design_sequence(
            target_A,
            lam,
            config.kappa,
            config.perturbation,
            seed=int(seeds[k]),
            n_s=config.n_s,
            tol=tol,
        )
        U_sd = approx_discretization_unitary(plan)
        tau = int(round(1.0 / lam))
        out.append((np.linalg.matrix_power(U_sd, tau), U_sd, plan))
    return out


def reconstruct_members(
    psi: PureState,
    O: Observable,
    approx_list: Sequence[tuple[np.ndarray, np.ndarray, SequencePlan]],
    config: SearConfig,
    tol: Tolerances = DEFAULT_TOL,
) -> list[tuple[float, np.ndarray]]:
    """Per ensemble member: the sinc-reconstructed eta = 1 value and the grid of
    integer-power samples of its U_sd it was interpolated from.  All members
    share one target A, so its eigenvalue gap is taken once."""
    if not approx_list:
        raise ValueError("approx_list must be nonempty")
    gap = min_eigenvalue_gap(eig_hermitian(approx_list[0][2].target_A, tol), tol)
    out = []
    for _, U_sd, plan in approx_list:
        rplan = ReconstructionPlan.from_gap(gap, plan.lam, config.safety)
        samples = sample_integer_powers(psi, O, U_sd, rplan.n_l)
        out.append((sinc_reconstruct(samples, rplan.lam), samples))
    return out


def estimate_noise_strength(
    approx_list: Sequence[tuple[np.ndarray, np.ndarray, SequencePlan]],
    twirl_set: Sequence[np.ndarray],
    psi: PureState,
    O: Observable,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, list[float]]:
    """Per-k discrete twirl of the complementary defect channel, then the mean."""
    unitaries = [U_k for U_k, _, _ in approx_list]
    probe = density_from_pure(psi)
    per_k = []
    for k in range(len(unitaries)):
        ch = complementary_error_channel(unitaries, k, tol)
        est = twirl_discrete(ch, twirl_set, probe, O, tol)
        per_k.append(est.epsilon)
    return float(np.mean(per_k)), per_k


def run_sear(
    target_A: np.ndarray,
    psi: PureState,
    O: Observable,
    twirl_set: Sequence[np.ndarray],
    config: SearConfig,
    tol: Tolerances = DEFAULT_TOL,
) -> SearResult:
    approx_list = generate_approx_unitaries(target_A, config, tol)
    members = reconstruct_members(psi, O, approx_list, config, tol)
    mean_value = float(np.mean([value for value, _ in members]))
    spread = O.spread()
    if spread <= tol.tol_eig:
        # Zero-spread observables (multiples of the identity) cannot resolve a
        # noise strength, and do not need one: the error bar is zero anyway.
        noise_strength, per_k = 0.0, [0.0] * config.n_a
    else:
        noise_strength, per_k = estimate_noise_strength(approx_list, twirl_set, psi, O, tol)
    error_bar = noise_strength * spread
    exact_value = None
    if target_A.shape[0] <= 64:
        # Small dims only: direct diagonalization of the ideal intermediate
        # unitary (kept local so the oracle module stays import-independent).
        U_i = expm_hermitian_i(target_A, pi, tol)
        v = U_i @ psi.amplitudes
        exact_value = float(np.real(v.conj() @ O.matrix @ v))
    per_sample = tuple(
        SampleRecord(index=k, lam=config.lambdas[k], value=value, epsilon=per_k[k], samples=samples)
        for k, (value, samples) in enumerate(members)
    )
    return SearResult(
        mean_value=mean_value,
        noise_strength=noise_strength,
        spread=spread,
        error_bar=error_bar,
        exact_value=exact_value,
        per_sample=per_sample,
    )
