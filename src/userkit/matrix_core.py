"""Dense complex-matrix substrate.

Hermitian eigendecomposition, eigendecomposition-based matrix exponentials,
and the validation predicates the rest of the package relies on.  Dimensions
here are small (d <= 256), so everything is dense and exact-by-eigh; there
are no Pade or Krylov code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances; the defaults govern the whole package."""

    tol_eig: float = 1e-10
    tol_unitary: float = 1e-9
    tol_trace: float = 1e-10

    def __post_init__(self):
        if self.tol_eig <= 0 or self.tol_unitary <= 0 or self.tol_trace <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def hermiticity_defect(H: np.ndarray) -> float:
    return float(np.max(np.abs(H - H.conj().T)))


def is_unitary(U: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    U = as_matrix(U)
    d = U.shape[0]
    return float(np.max(np.abs(U @ U.conj().T - np.eye(d)))) <= tol.tol_unitary


def _fix_phases(V: np.ndarray, tol: float) -> np.ndarray:
    """Rotate each column so its first component above `tol` is real positive."""
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = np.argmax(np.abs(col) > tol)
        pivot = col[idx]
        if np.abs(pivot) > 0:
            V[:, j] = col * (np.abs(pivot) / pivot)
    return V


def eig_hermitian(H: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> HermitianEig:
    """Eigendecompose a Hermitian matrix with deterministic eigenvector phases."""
    H = as_matrix(H)
    defect = hermiticity_defect(H)
    if defect > tol.tol_eig:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} > {tol.tol_eig:.3e}")
    w, V = np.linalg.eigh(0.5 * (H + H.conj().T))
    V = _fix_phases(V, tol.tol_eig)
    return HermitianEig(values=w, vectors=V)


def expm_hermitian_i(H: np.ndarray, scale: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """e^{i * scale * H} for Hermitian H, via eigendecomposition."""
    eig = eig_hermitian(H, tol)
    phases = np.exp(1j * scale * eig.values)
    return (eig.vectors * phases) @ eig.vectors.conj().T
