"""Density matrices, Kraus channels, the ensemble-defect ("SEAR error")
channels, depolarizing twirls, and noise-strength extraction.

Kraus normalization note: the mixed-unitary defect channel built from n_a
unitaries uses 1/sqrt(n_a) per Kraus operator, which is what makes the channel
trace preserving and reproduces the arithmetic mean of the per-unitary
expectation values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    IndexOutOfRange,
    NotHermitian,
    NotNormalized,
    NotTracePreserving,
    NotUnitary,
    TraceViolation,
    UnphysicalEpsilon,
)
from .matrix_core import DEFAULT_TOL, Tolerances, as_matrix, is_unitary
from .user_recon import Observable, PureState


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if float(np.max(np.abs(m - m.conj().T))) > 1e-8:
            raise ValueError("density matrix must be Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-6:
            raise TraceViolation(f"trace {tr:.6f} != 1")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if float(np.min(w)) < -1e-8:
            raise ValueError(f"negative eigenvalue {np.min(w):.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KrausChannel:
    kraus: tuple

    def __post_init__(self):
        ks = tuple(as_matrix(K) for K in self.kraus)
        if not ks:
            raise ValueError("need at least one Kraus operator")
        d = ks[0].shape[0]
        if any(K.shape[0] != d for K in ks):
            raise DimensionMismatch("Kraus operators differ in dimension")
        object.__setattr__(self, "kraus", ks)
        defect = float(np.max(np.abs(sum(K.conj().T @ K for K in ks) - np.eye(d))))
        if defect > 1e-8:
            raise NotTracePreserving(f"sum K^dag K deviates from identity by {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def conjugated(self, W: np.ndarray) -> "KrausChannel":
        """Similarity-transformed channel with Kraus operators W^dag K W."""
        Wd = W.conj().T
        return KrausChannel(tuple(Wd @ K @ W for K in self.kraus))


class TwirlMethod(str, Enum):
    analytic = "analytic"
    haar_mc = "haar_mc"
    discrete_sim = "discrete_sim"


@dataclass(frozen=True)
class DepolarizingEstimate:
    epsilon: float
    stderr: float
    method: TwirlMethod


def density_from_pure(psi: PureState) -> DensityMatrix:
    a = psi.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def expectation(rho: DensityMatrix, O: Observable) -> float:
    if rho.dim != O.dim:
        raise DimensionMismatch(f"dims differ: rho {rho.dim}, observable {O.dim}")
    val = complex(np.trace(rho.matrix @ O.matrix))
    if abs(val.imag) >= 1e-10:
        raise NotHermitian(f"Tr[rho O] has imaginary residue {val.imag:.3e}; observable is not Hermitian")
    return val.real


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if ch.dim != rho.dim:
        raise DimensionMismatch("channel/state dimensions differ")
    out = sum(K @ rho.matrix @ K.conj().T for K in ch.kraus)
    tr = complex(np.trace(out))
    if abs(tr - 1.0) > 1e-6:
        raise TraceViolation(f"output trace {tr:.8f} deviates from 1")
    return DensityMatrix(out)


def _mixed_unitary_channel(unitaries, tol: Tolerances) -> KrausChannel:
    n = len(unitaries)
    for U in unitaries:
        if not is_unitary(U, tol):
            raise NotUnitary("ensemble member is not unitary")
    w = 1.0 / np.sqrt(n)
    return KrausChannel(tuple(w * as_matrix(U) for U in unitaries))


def sear_error_channel(U_i, approx_list, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Mixed-unitary channel with Kraus (1/sqrt(n_a)) U_a^(mu) U_i^dag.

    Applying it to U_i rho U_i^dag and taking Tr[. O] reproduces the arithmetic
    mean of the n_a approximate expectation values exactly.
    """
    U_i = as_matrix(U_i)
    if not is_unitary(U_i, tol):
        raise NotUnitary("reference unitary is not unitary")
    Uid = U_i.conj().T
    return _mixed_unitary_channel([as_matrix(U) @ Uid for U in approx_list], tol)


def complementary_error_channel(approx_list, k: int, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Defect channel measured against the k-th ensemble member instead of U_i."""
    if not 0 <= k < len(approx_list):
        raise IndexOutOfRange(f"k={k} outside [0, {len(approx_list)})")
    return sear_error_channel(approx_list[k], approx_list, tol)


def _epsilon_range(dim: int) -> float:
    return dim * dim / (dim * dim - 1.0)


def twirl_analytic(ch: KrausChannel) -> DepolarizingEstimate:
    """Closed-form Haar twirl: eps = d^2 (1 - F_e) / (d^2 - 1) with the
    entanglement fidelity F_e = (1/d^2) sum_mu |Tr K_mu|^2.

    Validated against the Monte-Carlo twirl oracle in the test suite.
    """
    d = ch.dim
    F_e = sum(abs(complex(np.trace(K))) ** 2 for K in ch.kraus) / (d * d)
    eps = d * d * (1.0 - F_e) / (d * d - 1.0)
    return DepolarizingEstimate(epsilon=float(eps), stderr=0.0, method=TwirlMethod.analytic)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R."""
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    phases = np.diag(R) / np.abs(np.diag(R))
    return Q * phases


def noise_strength_from_expectation(
    comp_value: float,
    rho: DensityMatrix,
    O: Observable,
    denom_floor: float = 1e-8,
) -> float:
    """eps = (comp_value - Tr[rho O]) / (Tr[O]/d - Tr[rho O])."""
    t1 = expectation(rho, O)
    td = float(np.real(np.trace(O.matrix))) / O.dim
    denom = td - t1
    if abs(denom) < denom_floor:
        raise DegenerateDenominator(
            f"|Tr[O]/d - Tr[rho O]| = {abs(denom):.3e} < {denom_floor:.1e}; "
            "probe cannot resolve the noise strength"
        )
    return (comp_value - t1) / denom


def twirl_haar_mc(
    ch: KrausChannel,
    n_samples: int,
    seed: int,
    probe: DensityMatrix,
    O: Observable,
) -> DepolarizingEstimate:
    """Monte-Carlo Haar twirl: average Tr[(U^dag C U)[rho] O] over Haar samples
    and solve the depolarizing mixing equation for eps."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    rng = np.random.default_rng(seed)
    d = ch.dim
    values = np.empty(n_samples)
    for s in range(n_samples):
        W = haar_unitary(d, rng)
        rho_out = apply_channel(ch.conjugated(W), probe)
        values[s] = expectation(rho_out, O)
    t1 = expectation(probe, O)
    td = float(np.real(np.trace(O.matrix))) / d
    denom = td - t1
    if abs(denom) < 1e-8:
        raise DegenerateDenominator("probe cannot resolve the noise strength")
    eps_samples = (values - t1) / denom
    eps = float(np.mean(eps_samples))
    stderr = float(np.std(eps_samples, ddof=1) / np.sqrt(n_samples))
    return DepolarizingEstimate(epsilon=eps, stderr=stderr, method=TwirlMethod.haar_mc)


def twirl_discrete(
    ch: KrausChannel,
    twirl_set,
    probe: DensityMatrix,
    O: Observable,
    tol: Tolerances = DEFAULT_TOL,
) -> DepolarizingEstimate:
    """Discrete twirl over an explicit unitary set: average the conjugated-channel
    expectation values and convert to eps through the depolarizing mixing law."""
    if not twirl_set:
        raise ValueError("twirl_set must be nonempty")
    values = []
    for U_m in twirl_set:
        U_m = as_matrix(U_m)
        if not is_unitary(U_m, tol):
            raise NotUnitary("twirl-set member is not unitary")
        rho_out = apply_channel(ch.conjugated(U_m), probe)
        values.append(expectation(rho_out, O))
    values = np.asarray(values)
    eps = noise_strength_from_expectation(float(np.mean(values)), probe, O)
    if values.size > 1:
        t1 = expectation(probe, O)
        td = float(np.real(np.trace(O.matrix))) / O.dim
        spread = float(np.std((values - t1) / (td - t1), ddof=1) / np.sqrt(values.size))
    else:
        spread = 0.0
    return DepolarizingEstimate(epsilon=eps, stderr=spread, method=TwirlMethod.discrete_sim)


def depolarize(rho: DensityMatrix, epsilon: float) -> DensityMatrix:
    """Affine mix (1 - eps) rho + eps * Id/d over the physical eps range."""
    d = rho.dim
    if not 0.0 <= epsilon <= _epsilon_range(d) + 1e-12:
        raise UnphysicalEpsilon(
            f"epsilon {epsilon} outside [0, {_epsilon_range(d):.6f}] at d={d}"
        )
    return DensityMatrix((1.0 - epsilon) * rho.matrix + epsilon * np.eye(d) / d)
