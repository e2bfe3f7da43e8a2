"""Kraus channels, the ensemble-defect ("SEAR error") channels, depolarizing
twirls, and noise-strength extraction.  No run builds a `DensityMatrix`; the
test references built on it live in `oracle`.

Kraus normalization note: the mixed-unitary defect channel built from n_a
unitaries uses 1/sqrt(n_a) per Kraus operator, which is what makes the channel
trace preserving and reproduces the arithmetic mean of the per-unitary
expectation values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLength,
    DegenerateDenominator,
    DimensionMismatch,
    NotHermitian,
    NotTracePreserving,
    NotUnitary,
    TraceViolation,
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


class _UnitaryMembers(tuple):
    """Matrices, each already checked unitary."""


def _unitary_members(matrices) -> _UnitaryMembers:
    """Convert and check each matrix once; a set already checked passes through."""
    if isinstance(matrices, _UnitaryMembers):
        return matrices
    members = _UnitaryMembers(as_matrix(W) for W in matrices)
    if not all(is_unitary(W) for W in members):
        raise NotUnitary("member is not unitary")
    return members


def _checked(U_i, approx_list) -> tuple[np.ndarray, _UnitaryMembers]:
    """U_i and the members, at least one, checked unitary and of one dimension;
    a checked set, and a U_i drawn from it, pass through."""
    members = _unitary_members(approx_list)
    if not members:
        raise BadLength("need at least one ensemble member")
    if not any(U_i is U for U in members):
        U_i = _unitary_members((U_i,))[0]
    if any(U.shape != U_i.shape for U in members):
        raise DimensionMismatch(f"members differ in dimension from U_i ({U_i.shape[0]})")
    return U_i, members


def sear_error_channel(U_i, approx_list) -> KrausChannel:
    """Mixed-unitary channel with Kraus (1/sqrt(n_a)) U_a^(mu) U_i^dag.

    Applying it to U_i rho U_i^dag and taking Tr[. O] reproduces the arithmetic
    mean of the n_a approximate expectation values exactly.
    """
    U_i, members = _checked(U_i, approx_list)
    w = 1.0 / np.sqrt(len(members))
    return KrausChannel(tuple(w * (U @ U_i.conj().T) for U in members))


def twirl_analytic(U_i, approx_list) -> DepolarizingEstimate:
    """Closed-form Haar twirl of sear_error_channel(U_i, approx_list), without
    building it (Nielsen, PLA 303 (2002)): eps = d^2 (1 - F_e) / (d^2 - 1) with
    the entanglement fidelity F_e = sum_a |Tr U_a U_i^dag|^2 / (n_a d^2) <= 1,
    so a negative eps is rounding and reads 0.  Checked against the Monte-Carlo
    twirl in the test suite."""
    U_i, members = _checked(U_i, approx_list)
    d = U_i.shape[0]
    F_e = sum(abs(np.vdot(U_i, U)) ** 2 for U in members) / (len(members) * d * d)
    eps = d * d * (1.0 - F_e) / (d * d - 1.0)
    return DepolarizingEstimate(epsilon=max(0.0, float(eps)), stderr=0.0)


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
        raise BadLength("need at least one twirl-set member")
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
