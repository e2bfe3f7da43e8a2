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
    NotTracePreserving,
    NotUnitary,
    TraceViolation,
)
from .matrix_core import BLOCK_ENTRIES, TOL_UNITARY, _as_square, as_matrix, hermiticity_defect, unitarity_defect
from .user_recon import Observable, PureState


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if hermiticity_defect(m) > 1e-8:
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
    """Matrices, each already checked unitary, and `stack`, the same matrices as
    one (n, d, d) array; the tuple's items are views into it."""

    stack: np.ndarray

    def __new__(cls, matrices):
        stack = np.asarray(matrices, dtype=complex)  # an (n, d, d) complex array is not copied
        members = super().__new__(cls, stack)
        members.stack = stack
        return members


def _unitary_members(matrices) -> _UnitaryMembers:
    """Convert the matrices (an (n, d, d) array in place, not copied), check
    that they have one shape, and check them unitary a block of members per
    stacked product; a set already checked passes through."""
    if isinstance(matrices, _UnitaryMembers):
        return matrices
    if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
        matrices = _as_square(matrices, (3,))
    else:
        matrices = [as_matrix(W) for W in matrices]
        if len({W.shape for W in matrices}) > 1:
            raise DimensionMismatch("members differ in dimension")
    rows = max(1, BLOCK_ENTRIES // max(1, matrices[0].size)) if len(matrices) else 1
    for start in range(0, len(matrices), rows):
        if unitarity_defect(np.asarray(matrices[start : start + rows])) > TOL_UNITARY:
            raise NotUnitary("member is not unitary")
    return _UnitaryMembers(matrices)


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


def _haar_strengths(U_rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The closed-form Haar twirl of sear_error_channel(U_i, members) for each
    U_i of the (m, d, d) stack U_rows, against the (n, d, d) stack members
    (Nielsen, PLA 303 (2002)): eps = d^2 (1 - F_e) / (d^2 - 1) with the
    entanglement fidelity F_e = sum_a |Tr U_a U_i^dag|^2 / (n d^2) <= 1, so a
    negative eps is rounding and reads 0.  np.vecdot takes every overlap of a
    block of rows with all members in one call, conjugating as it goes; each
    overlap is np.vdot(U_i, U_a) bit for bit, however the rows are blocked."""
    n, d = members.shape[0], members.shape[-1]
    rows = U_rows.reshape(-1, 1, d * d)
    cols = members.reshape(1, n, d * d)
    F_e = np.empty(len(rows))
    step = max(1, BLOCK_ENTRIES // n)
    for start in range(0, len(rows), step):
        T = np.vecdot(rows[start : start + step], cols)  # T[i, a] = Tr U_i^dag U_a
        F_e[start : start + step] = np.sum(np.abs(T) ** 2, axis=1)
    F_e /= n * d * d
    return np.maximum(0.0, d * d * (1.0 - F_e) / (d * d - 1.0))


def twirl_analytic(U_i, approx_list) -> DepolarizingEstimate:
    """Closed-form Haar twirl of sear_error_channel(U_i, approx_list), from the
    overlaps Tr U_a U_i^dag alone, without building the channel (the formula is
    at `_haar_strengths`).  Checked against the Monte-Carlo twirl in the test
    suite."""
    U_i, members = _checked(U_i, approx_list)
    return DepolarizingEstimate(epsilon=float(_haar_strengths(U_i[None], members.stack)[0]), stderr=0.0)


def twirl_analytic_all(approx_list) -> np.ndarray:
    """twirl_analytic(U_k, approx_list).epsilon for every member U_k, bit for bit,
    from the stacked members, with no Python loop over pairs."""
    members = _unitary_members(approx_list)
    if not members:
        raise BadLength("need at least one ensemble member")
    return _haar_strengths(members.stack, members.stack)


# Smallest |Tr[O]/d - <psi|O|psi>| from which a noise strength is recovered.
DENOM_FLOOR = 1e-8


def noise_strength_from_expectation(
    comp_value: float | np.ndarray,
    psi: PureState,
    O: Observable,
) -> float | np.ndarray:
    """eps = (comp_value - <psi|O|psi>) / (Tr[O]/d - <psi|O|psi>), elementwise
    for an array.  O is Hermitian (`Observable` checks it), so <psi|O|psi> is
    real and its imaginary part is rounding."""
    if psi.dim != O.dim:
        raise DimensionMismatch(f"dims differ: probe {psi.dim}, observable {O.dim}")
    a = psi.amplitudes
    t1 = complex(np.vdot(a, O.matrix @ a)).real
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
    into an eps; the mean and standard error of these are reported.  chi is
    formed for every member at once, from stacked products.  The output state
    sum_mu |chi_mu><chi_mu| is Hermitian and positive by construction, and O is
    Hermitian, so only each member's trace is checked and the real part of its
    value is read.  Members are checked unitary unless the set came from
    _unitary_members, which lets a caller twirl several channels over one set
    checked once.
    """
    if len(twirl_set) == 0:
        raise BadLength("need at least one twirl-set member")
    if not ch.dim == probe.dim == O.dim:
        raise DimensionMismatch(f"dims differ: channel {ch.dim}, probe {probe.dim}, observable {O.dim}")
    W = _unitary_members(twirl_set).stack
    n_k, d = len(ch.kraus), ch.dim
    if W.shape[1:] != (d, d):
        raise DimensionMismatch(f"twirl-set members have shape {W.shape[1:]}, channel dimension is {d}")
    KW_psi = (W @ probe.amplitudes) @ np.stack(ch.kraus).reshape(n_k * d, d).T  # row t: K_mu W_t psi
    # chi[t, mu] = W_t^dag K_mu W_t psi = conj(conj(K_mu W_t psi) W_t), with no conjugate of the set
    chi = np.conj(np.conj(KW_psi).reshape(-1, n_k, d) @ W, out=KW_psi.reshape(-1, n_k, d))
    tr = np.vecdot(chi, chi).real.sum(axis=1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > 1e-6)
    if bad.size:
        raise TraceViolation(f"output trace {tr[bad[0]]:.8f} deviates from 1")
    values = np.vecdot(chi, chi @ O.matrix.T).sum(axis=1).real
    eps = noise_strength_from_expectation(values, probe, O)
    stderr = float(np.std(eps, ddof=1) / np.sqrt(eps.size)) if eps.size > 1 else 0.0
    return DepolarizingEstimate(epsilon=float(np.mean(eps)), stderr=stderr)
