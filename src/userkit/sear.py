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
from .channels import _unitary_members, complementary_error_channel, twirl_discrete
from .matrix_core import TOL_EIG, eig_hermitian, expm_hermitian_i
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
    """Ensemble settings; the ensemble has one member per entry of `lambdas`."""

    lambdas: tuple = (0.25, 0.2, 0.125, 0.1)
    perturbation: float = 0.0
    safety: float = 10.0
    seed: int = 0
    n_s: int = 4

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if not lams:
            raise ValueError("lambdas must be nonempty")
        if any(not 0.0 < l < 0.5 for l in lams):
            raise ValueError("every lambda must lie in (0, 1/2)")
        for name, low in (("n_s", 1), ("safety", 1), ("seed", 0), ("perturbation", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class SampleRecord:
    """One ensemble member: its step, reconstructed value, noise strength, and
    the integer-power sample grid (k = -n_l .. n_l) the value came from."""

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
    target_A: np.ndarray, config: SearConfig
) -> list[tuple[np.ndarray, np.ndarray, SequencePlan]]:
    """One ensemble member (U_k, U_sd, plan) per index k: design a sequence at
    lambda^(k), form the discretization unitary U_sd, and raise it to
    tau^(k) = round(1/lambda^(k)) for U_k."""
    seeds = np.random.SeedSequence(config.seed).generate_state(len(config.lambdas))
    out = []
    for k, lam in enumerate(config.lambdas):
        plan = design_sequence(target_A, lam, config.perturbation, seed=int(seeds[k]), n_s=config.n_s)
        U_sd = approx_discretization_unitary(plan)
        tau = int(round(1.0 / lam))
        out.append((np.linalg.matrix_power(U_sd, tau), U_sd, plan))
    return out


def reconstruct_members(
    psi: PureState,
    O: Observable,
    approx_list: Sequence[tuple[np.ndarray, np.ndarray, SequencePlan]],
    config: SearConfig,
) -> list[tuple[float, np.ndarray]]:
    """Per ensemble member: the sinc-reconstructed eta = 1 value and the grid of
    integer-power samples of its U_sd it was interpolated from.  All members
    share one target A, so its eigenvalue gap is taken once."""
    if not approx_list:
        raise ValueError("approx_list must be nonempty")
    gap = min_eigenvalue_gap(eig_hermitian(approx_list[0][2].target_A))
    out = []
    for _, U_sd, plan in approx_list:
        rplan = ReconstructionPlan.from_gap(gap, plan.lam, config.safety)
        samples = sample_integer_powers(psi, O, U_sd, rplan.n_l)
        out.append((sinc_reconstruct(samples, rplan.lam, 1.0), samples))
    return out


def estimate_noise_strength(
    approx_list: Sequence[tuple[np.ndarray, np.ndarray, SequencePlan]],
    twirl_set: Sequence[np.ndarray],
    psi: PureState,
    O: Observable,
) -> tuple[float, list[float]]:
    """Per-k discrete twirl of the complementary defect channel, then the mean.
    The twirl set is checked unitary once, not once per k."""
    unitaries = [U_k for U_k, _, _ in approx_list]
    members = _unitary_members(twirl_set)
    per_k = []
    for k in range(len(unitaries)):
        ch = complementary_error_channel(unitaries, k)
        est = twirl_discrete(ch, members, psi, O)
        per_k.append(est.epsilon)
    return float(np.mean(per_k)), per_k


def run_sear(
    target_A: np.ndarray,
    psi: PureState,
    O: Observable,
    twirl_set: Sequence[np.ndarray],
    config: SearConfig,
) -> SearResult:
    approx_list = generate_approx_unitaries(target_A, config)
    members = reconstruct_members(psi, O, approx_list, config)
    mean_value = float(np.mean([value for value, _ in members]))
    spread = O.spread()
    if spread <= TOL_EIG:
        # Zero-spread observables (multiples of the identity) cannot resolve a
        # noise strength, and do not need one: the error bar is zero anyway.
        noise_strength, per_k = 0.0, [0.0] * len(approx_list)
    else:
        noise_strength, per_k = estimate_noise_strength(approx_list, twirl_set, psi, O)
    error_bar = noise_strength * spread
    exact_value = None
    if target_A.shape[0] <= 64:
        # Small dims only: direct diagonalization of the ideal intermediate
        # unitary (kept local so the oracle module stays import-independent).
        U_i = expm_hermitian_i(target_A, pi)
        v = U_i @ psi.amplitudes
        exact_value = float(np.real(v.conj() @ O.matrix @ v))
    per_sample = tuple(
        SampleRecord(lam=lam, value=value, epsilon=eps, samples=samples)
        for lam, (value, samples), eps in zip(config.lambdas, members, per_k)
    )
    return SearResult(
        mean_value=mean_value,
        noise_strength=noise_strength,
        spread=spread,
        error_bar=error_bar,
        exact_value=exact_value,
        per_sample=per_sample,
    )
