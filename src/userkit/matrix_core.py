"""Dense complex-matrix substrate.

Hermitian eigendecomposition, the exponential e^{i scale H} of a Hermitian H,
and the validation predicates the rest of the package relies on.  Dimensions
here are small (d <= 256), so everything is dense.  `eig_hermitian` is one
LAPACK eigendecomposition; `expm_hermitian_i` is built from matrix products
only (a scaled Taylor polynomial, squared back), and there are no Pade or
Krylov code paths.  Both take one (d, d) matrix or an (n, d, d) stack, and
treat each slice of a stack bit for bit as they treat a single matrix.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import NotHermitian, SpectrumOutOfRange


# Largest Hermiticity defect accepted, and the cutoff below which eigenvalue
# differences count as zero.
TOL_EIG = 1e-10
# Largest entry of |U U^dag - I| accepted as unitary.
TOL_UNITARY = 1e-9

# e^X for X = i scale H is the degree-16 Taylor polynomial of X 2^-s, squared
# s times.  Paterson-Stockmeyer evaluates the polynomial in 6 products (X^2,
# X^3, X^4, then three Horner steps in X^4).  s is the least with
# ||X 2^-s||_1 <= _THETA: the truncation remainder is at most theta^17 / 17!
# times a tail factor 1 / (1 - theta / 18), at most 2^-53 for theta <= 0.8269
# (without the factor) and 0.8245 (with it).  Each squaring doubles the
# rounding error, so s is capped where 2^s 2^-53 <= TOL_UNITARY / 10, at 19
# (2^19 2^-53 = 5.8e-11; the measured |U U^dag - I| at s = 19 is at most
# 1.3e-10, about 2^(s+1) 2^-53).
# References: Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009);
# Bader, Blanes & Casas, Mathematics 7 (2019).
_TAYLOR = tuple(1.0 / factorial(k) for k in range(17))
_THETA = 0.82
_MAX_SQUARINGS = 19


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

    def expm_i(self, scale: float) -> np.ndarray:
        """e^{i * scale * H} of the decomposed H (or of each slice of a stack)."""
        phases = np.exp(1j * scale * self.values)
        return (self.vectors * phases[..., None, :]) @ self.vectors.swapaxes(-1, -2).conj()


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


def _hermitian(H) -> np.ndarray:
    """H (or each slice of a stack) checked finite and Hermitian within
    TOL_EIG, and symmetrized."""
    H = _as_square(H, (2, 3))
    defect = hermiticity_defect(H)
    if defect > TOL_EIG:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} > {TOL_EIG:.3e}")
    return 0.5 * np.add(H, H.swapaxes(-1, -2).conj(), order="C")


def eig_hermitian(H: np.ndarray) -> HermitianEig:
    """Eigendecompose a Hermitian matrix, or an (n, d, d) stack of them."""
    w, V = np.linalg.eigh(_hermitian(H))
    return HermitianEig(values=w, vectors=V)


def _squarings(norm: float) -> int:
    """The least s >= 0 with norm <= _THETA 2^s, for the 1-norm of one slice;
    SpectrumOutOfRange above _MAX_SQUARINGS."""
    s = 0
    while not norm <= _THETA * 2.0**s:  # a nan norm never passes, as an infinite one
        s += 1
        if s > _MAX_SQUARINGS:
            raise SpectrumOutOfRange(
                f"|scale| ||H||_1 = {norm:.3e} needs more than {_MAX_SQUARINGS} squarings "
                f"(at most {_THETA * 2.0**_MAX_SQUARINGS:.3e}); e^(i scale H) would not be unitary to {TOL_UNITARY:.0e}"
            )
    return s


def expm_hermitian_i(H: np.ndarray, scale: float) -> np.ndarray:
    """e^{i * scale * H} for Hermitian H (or each slice of a stack), from matrix
    products: the scaled Taylor polynomial described at `_TAYLOR`, with each
    slice's own number of squarings s.  A slice that would need more than
    `_MAX_SQUARINGS`, or whose |scale| ||H||_1 is not finite, raises
    SpectrumOutOfRange."""
    X = _hermitian(H)
    shape = X.shape
    X = X.reshape(-1, shape[-1], shape[-1])
    s = [_squarings(abs(scale) * norm) for norm in np.max(np.sum(np.abs(X), axis=-2), axis=-1).tolist()]
    X *= np.array([1j * scale * 2.0**-k for k in s])[:, None, None]
    c = _TAYLOR
    X2 = X @ X
    X3 = X2 @ X
    X4 = X2 @ X2

    def add_block(U: np.ndarray, j: int) -> np.ndarray:
        """U + c_4j I + c_4j+1 X + c_4j+2 X^2 + c_4j+3 X^3, in place."""
        U += c[4 * j + 1] * X
        U += c[4 * j + 2] * X2
        U += c[4 * j + 3] * X3
        np.einsum("nii->ni", U)[...] += c[4 * j]  # a writeable view of the diagonals
        return U

    U = add_block(c[16] * X4, 3)
    for j in (2, 1, 0):
        U = add_block(U @ X4, j)
    for k in range(max(s)):
        idx = [i for i, s_i in enumerate(s) if s_i > k]
        V = U[idx]
        U[idx] = V @ V
    return U.reshape(shape)
