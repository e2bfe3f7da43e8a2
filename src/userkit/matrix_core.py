"""Dense complex-matrix substrate.

Hermitian eigendecomposition, eigendecomposition-based matrix exponentials,
and the validation predicates the rest of the package relies on.  Dimensions
here are small (d <= 256), so everything is dense and exact-by-eigh; there
are no Pade or Krylov code paths.  `eig_hermitian` and `expm_hermitian_i`
take one (d, d) matrix or an (n, d, d) stack, and treat each slice of a stack
exactly as they treat a single matrix.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian


# Largest Hermiticity defect accepted, and the cutoff below which eigenvalue
# differences count as zero.
TOL_EIG = 1e-10
# Largest entry of |U U^dag - I| accepted as unitary.
TOL_UNITARY = 1e-9


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix (or a stack of them), eigenvalues
    ascending; `vectors[..., :, j]` belongs to `values[..., j]`.  Column phases
    are whatever LAPACK returns: use the vectors only through quantities that
    do not depend on them, such as V f(w) V^dag or |V^dag x|^2."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


def is_finite_number(x) -> bool:
    """A finite int or float, not a bool (abs(x) <= max fails for nan, inf and huge ints)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def finite_floats(name: str, values) -> tuple:
    """`values`, a list, tuple or 1-d array of finite numbers, as a tuple of floats."""
    if not isinstance(values, (list, tuple, np.ndarray)) or not all(map(is_finite_number, values)):
        raise ValueError(f"{name} must be a list of finite numbers, got {values!r}")
    return tuple(float(x) for x in values)


def _as_square(m, ndims: tuple[int, ...]) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_matrix(m) -> np.ndarray:
    return _as_square(m, (2,))


def hermiticity_defect(H: np.ndarray) -> float:
    """Largest entry of |H - H^dag|; over every slice of a stack."""
    return float(np.max(np.abs(H - H.swapaxes(-1, -2).conj())))


def is_unitary(U: np.ndarray) -> bool:
    U = as_matrix(U)
    d = U.shape[0]
    return float(np.max(np.abs(U @ U.conj().T - np.eye(d)))) <= TOL_UNITARY


def eig_hermitian(H: np.ndarray) -> HermitianEig:
    """Eigendecompose a Hermitian matrix, or an (n, d, d) stack of them."""
    H = _as_square(H, (2, 3))
    defect = hermiticity_defect(H)
    if defect > TOL_EIG:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} > {TOL_EIG:.3e}")
    w, V = np.linalg.eigh(0.5 * (H + H.swapaxes(-1, -2).conj()))
    return HermitianEig(values=w, vectors=V)


def expm_hermitian_i(H: np.ndarray, scale: float) -> np.ndarray:
    """e^{i * scale * H} for Hermitian H (or each slice of a stack), via
    eigendecomposition."""
    eig = eig_hermitian(H)
    phases = np.exp(1j * scale * eig.values)
    return (eig.vectors * phases[..., None, :]) @ eig.vectors.swapaxes(-1, -2).conj()
