"""Density matrices, Kraus channels, the ensemble-defect ("SEAR error")
channels, depolarizing twirls, and noise-strength extraction.

Kraus normalization note: the mixed-unitary defect channel built from n_a
unitaries uses 1/sqrt(n_a) per Kraus operator, which is what makes the channel
trace preserving and reproduces the arithmetic mean of the per-unitary
expectation values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    IndexOutOfRange,
    NotHermitian,
    NotTracePreserving,
    NotUnitary,
    TraceViolation,
    UnphysicalEpsilon,
)
from .matrix_core import as_matrix, is_unitary
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


@dataclass(frozen=True)
class DepolarizingEstimate:
    epsilon: float
    stderr: float


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


def _mixed_unitary_channel(unitaries) -> KrausChannel:
    n = len(unitaries)
    for U in unitaries:
        if not is_unitary(U):
            raise NotUnitary("ensemble member is not unitary")
    w = 1.0 / np.sqrt(n)
    return KrausChannel(tuple(w * as_matrix(U) for U in unitaries))


def sear_error_channel(U_i, approx_list) -> KrausChannel:
    """Mixed-unitary channel with Kraus (1/sqrt(n_a)) U_a^(mu) U_i^dag.

    Applying it to U_i rho U_i^dag and taking Tr[. O] reproduces the arithmetic
    mean of the n_a approximate expectation values exactly.
    """
    U_i = as_matrix(U_i)
    if not is_unitary(U_i):
        raise NotUnitary("reference unitary is not unitary")
    Uid = U_i.conj().T
    return _mixed_unitary_channel([as_matrix(U) @ Uid for U in approx_list])


def complementary_error_channel(approx_list, k: int) -> KrausChannel:
    """Defect channel measured against the k-th ensemble member instead of U_i."""
    if not 0 <= k < len(approx_list):
        raise IndexOutOfRange(f"k={k} outside [0, {len(approx_list)})")
    return sear_error_channel(approx_list[k], approx_list)


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
    return DepolarizingEstimate(epsilon=float(eps), stderr=0.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R."""
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    phases = np.diag(R) / np.abs(np.diag(R))
    return Q * phases


# Smallest |Tr[O]/d - <psi|O|psi>| from which a noise strength is recovered.
DENOM_FLOOR = 1e-8


def noise_strength_from_expectation(
    comp_value: float | np.ndarray,
    psi: PureState,
    O: Observable,
) -> float | np.ndarray:
    """eps = (comp_value - <psi|O|psi>) / (Tr[O]/d - <psi|O|psi>), elementwise for an array."""
    if psi.dim != O.dim:
        raise DimensionMismatch(f"dims differ: probe {psi.dim}, observable {O.dim}")
    a = psi.amplitudes
    val = complex(np.vdot(a, O.matrix @ a))
    if abs(val.imag) >= 1e-10:
        raise NotHermitian(f"<psi|O|psi> has imaginary residue {val.imag:.3e}; observable is not Hermitian")
    t1 = val.real
    td = float(np.real(np.trace(O.matrix))) / O.dim
    denom = td - t1
    if abs(denom) < DENOM_FLOOR:
        raise DegenerateDenominator(
            f"|Tr[O]/d - <psi|O|psi>| = {abs(denom):.3e} < {DENOM_FLOOR:.1e}; "
            "probe cannot resolve the noise strength"
        )
    return (comp_value - t1) / denom


def twirl_haar_mc(
    ch: KrausChannel,
    n_samples: int,
    seed: int,
    probe: PureState,
    O: Observable,
) -> DepolarizingEstimate:
    """Monte-Carlo Haar twirl: the discrete twirl over n_samples Haar draws."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    rng = np.random.default_rng(seed)
    draws = [haar_unitary(ch.dim, rng) for _ in range(n_samples)]
    return twirl_discrete(ch, draws, probe, O)


class _UnitaryMembers(tuple):
    """Twirl-set members as matrices, each already checked unitary."""


def _unitary_members(twirl_set) -> _UnitaryMembers:
    """Convert and check each member once; a set already checked passes through."""
    if isinstance(twirl_set, _UnitaryMembers):
        return twirl_set
    members = _UnitaryMembers(as_matrix(W) for W in twirl_set)
    if not all(is_unitary(W) for W in members):
        raise NotUnitary("twirl-set member is not unitary")
    return members


def twirl_discrete(
    ch: KrausChannel,
    twirl_set,
    probe: PureState,
    O: Observable,
) -> DepolarizingEstimate:
    """Discrete twirl over an explicit unitary set, on the pure probe psi.

    Member W gives Tr[(W^dag C W)[|psi><psi|] O] = sum_mu <chi_mu|O|chi_mu>
    with chi_mu = W^dag K_mu W psi, which the depolarizing mixing law turns
    into an eps; the mean and standard error of these are reported.  The
    output state sum_mu |chi_mu><chi_mu| is Hermitian and positive by
    construction, so only its trace and the reality of the value are checked.
    Members are checked unitary unless the set came from _unitary_members,
    which lets a caller twirl several channels over one set checked once.
    """
    if len(twirl_set) == 0:
        raise ValueError("twirl_set must be nonempty")
    if not ch.dim == probe.dim == O.dim:
        raise DimensionMismatch(f"dims differ: channel {ch.dim}, probe {probe.dim}, observable {O.dim}")
    members = _unitary_members(twirl_set)
    kraus = np.stack(ch.kraus)
    values = np.empty(len(members))
    for i, W in enumerate(members):
        chi = (kraus @ (W @ probe.amplitudes)) @ W.conj()  # row mu is chi_mu
        tr = float(np.vdot(chi, chi).real)
        if abs(tr - 1.0) > 1e-6:
            raise TraceViolation(f"output trace {tr:.8f} deviates from 1")
        val = complex(np.vdot(chi, chi @ O.matrix.T))
        if abs(val.imag) >= 1e-10:
            raise NotHermitian(f"Tr[rho O] has imaginary residue {val.imag:.3e}; observable is not Hermitian")
        values[i] = val.real
    eps = noise_strength_from_expectation(values, probe, O)
    stderr = float(np.std(eps, ddof=1) / np.sqrt(eps.size)) if eps.size > 1 else 0.0
    return DepolarizingEstimate(epsilon=float(np.mean(eps)), stderr=stderr)


def depolarize(rho: DensityMatrix, epsilon: float) -> DensityMatrix:
    """Affine mix (1 - eps) rho + eps * Id/d over the physical eps range."""
    d = rho.dim
    if not 0.0 <= epsilon <= _epsilon_range(d) + 1e-12:
        raise UnphysicalEpsilon(
            f"epsilon {epsilon} outside [0, {_epsilon_range(d):.6f}] at d={d}"
        )
    return DensityMatrix((1.0 - epsilon) * rho.matrix + epsilon * np.eye(d) / d)
