"""Depolarizing twirls of the ensemble-defect ("SEAR error") channels, on plain
unitary stacks, and noise-strength extraction.  Member k's defect channel is
mixed-unitary, with Kraus operators U_a U_k^dag / sqrt(n_a) over the n_a
members: that weight makes it trace preserving and reproduces the mean of the
per-member expectation values exactly.

No run builds a `DensityMatrix` or a `KrausChannel`.  The test references on
them live in `oracle`; the classes stay here, where the benchmark tracer
(`perfbench/layertrace.py`, `CONSTRUCTORS`) binds their constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadLength, DegenerateDenominator, DimensionMismatch, NotTracePreserving, NotUnitary, TraceViolation
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


def unitary_stack(matrices) -> np.ndarray:
    """The matrices as one (n, d, d) complex array (an (n, d, d) complex array
    is read in place, not copied), checked to have one shape, finite, and
    unitary a block of members per stacked product."""
    if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
        stack = _as_square(matrices, (3,))
    else:
        matrices = [as_matrix(W) for W in matrices]
        if len({W.shape for W in matrices}) > 1:
            raise DimensionMismatch("members differ in dimension")
        stack = np.asarray(matrices, dtype=complex)
    rows = max(1, BLOCK_ENTRIES // max(1, stack[0].size)) if len(stack) else 1
    for start in range(0, len(stack), rows):
        if unitarity_defect(stack[start : start + rows]) > TOL_UNITARY:
            raise NotUnitary("member is not unitary")
    return stack


def _haar_strengths(U_rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The closed-form Haar twirl of the defect channel of each U_i of the
    (m, d, d) stack U_rows against the (n, d, d) stack members, with Kraus
    operators U_a U_i^dag / sqrt(n) (Nielsen, PLA 303 (2002)):
    eps = d^2 (1 - F_e) / (d^2 - 1) with the entanglement fidelity
    F_e = sum_a |Tr U_a U_i^dag|^2 / (n d^2) <= 1, so a negative eps is rounding
    and reads 0.  np.vecdot takes every overlap of a block of rows with all
    members in one call, conjugating as it goes; each overlap is
    np.vdot(U_i, U_a) bit for bit, however the rows are blocked."""
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


def twirl_analytic_all(members) -> np.ndarray:
    """The closed-form Haar noise strength of every member U_k's defect channel,
    from the stacked members, with no Python loop over pairs."""
    U = unitary_stack(members)
    if not len(U):
        raise BadLength("need at least one ensemble member")
    return _haar_strengths(U, U)


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


def _set_strengths(kraus: np.ndarray, W: np.ndarray, probe: PureState, O: Observable) -> np.ndarray:
    """The noise strength of the channel C with the (n_k, d, d) Kraus stack
    `kraus`, twirled by each member W of the checked (n, d, d) set on the pure
    probe psi: Tr[(W^dag C W)[|psi><psi|] O] = sum_mu <chi_mu|O|chi_mu> with
    chi_mu = W^dag K_mu W psi, formed for every member at once, goes through
    the depolarizing mixing law.  The output state is Hermitian and positive by
    construction, and O is Hermitian, so only each member's trace is checked
    and the real part of its value is read."""
    if len(W) == 0:
        raise BadLength("need at least one twirl-set member")
    n_k, d = kraus.shape[0], kraus.shape[-1]
    if not d == probe.dim == O.dim:
        raise DimensionMismatch(f"dims differ: channel {d}, probe {probe.dim}, observable {O.dim}")
    if W.shape[1:] != (d, d):
        raise DimensionMismatch(f"twirl-set members have shape {W.shape[1:]}, channel dimension is {d}")
    KW_psi = (W @ probe.amplitudes) @ kraus.reshape(n_k * d, d).T  # row t: K_mu W_t psi
    # chi[t, mu] = W_t^dag K_mu W_t psi = conj(conj(K_mu W_t psi) W_t), with no conjugate of the set
    chi = np.conj(np.conj(KW_psi).reshape(-1, n_k, d) @ W, out=KW_psi.reshape(-1, n_k, d))
    tr = np.vecdot(chi, chi).real.sum(axis=1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > 1e-6)
    if bad.size:
        raise TraceViolation(f"output trace {tr[bad[0]]:.8f} deviates from 1")
    values = np.vecdot(chi, chi @ O.matrix.T).sum(axis=1).real
    return noise_strength_from_expectation(values, probe, O)


def twirl_set_all(members, twirl_set, probe: PureState, O: Observable) -> np.ndarray:
    """The noise strength of every member U_k's defect channel, the Kraus stack
    (U_a U_k^dag) / sqrt(n), averaged over an explicit unitary set on the probe;
    both stacks are checked once, not once per k."""
    U = unitary_stack(members)
    if not len(U):
        raise BadLength("need at least one ensemble member")
    W = unitary_stack(twirl_set)
    w = 1.0 / np.sqrt(len(U))
    return np.array([np.mean(_set_strengths(w * (U @ U_k.conj().T), W, probe, O)) for U_k in U])
