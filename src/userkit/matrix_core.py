"""Dense complex-matrix substrate: the one place that decides whether a
matrix is Hermitian (`_hermitian`, which also symmetrizes it) or unitary
(`unitarity_defect`), how a Hermitian matrix is decomposed (`HermitianEig`),
how many entries a stacked block holds (`BLOCK_ENTRIES`, and
`PRODUCT_ENTRIES` for an ordered product), how e^{i scale H} is evaluated,
and how an ordered product of them is formed (`expm_product`).

Dimensions here are small (d <= 256), so everything is dense.
`eig_hermitian` is one LAPACK eigendecomposition, and `eigvals_hermitian` the
eigenvalues alone for callers that read no vectors; `expm_hermitian_i` is
built from matrix products only (a scaled Taylor polynomial of a degree chosen
per slice, squared back), and there are no Pade or Krylov code paths.  All
three take one (d, d) matrix or an (n, d, d) stack, and treat each slice of a
stack bit for bit as they treat a single matrix.  `expm_product` serves a
SEAR member's `U_sd` (its pulses) and AQS evolutions (their Magnus steps),
one product or a pool of them.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import BadLength, NotHermitian, SpectrumOutOfRange


# Largest Hermiticity defect accepted, and the cutoff below which eigenvalue
# differences count as zero.
TOL_EIG = 1e-10
# Largest entry of |U U^dag - I| accepted as unitary.
TOL_UNITARY = 1e-9
# Largest number of matrix entries one stacked product takes at once: 64 KB
# of complex numbers, 16 matrices at d=16 and one from d=64 up.  The unitarity
# check and the twirl go a block of members at a time, and `expm_hermitian_i`
# evaluates a block of one Taylor plan's slices per `_taylor` call, so their
# working sets (the Taylor powers of a block, say) do not grow with the number
# of members or factors.
BLOCK_ENTRIES = 1 << 12
# Largest number of factor entries one `expm_product` call exponentiates at
# once (512 KB of complex numbers), summed over the rows of its products, and
# of generator entries `time_ordered_evolve` forms at once: at d=16 and 16
# steps a pool of 8 members of the simulable twirl set, whose 128 slices fill
# each Taylor plan's blocks; at d=128, two factors.  The `noisy-16` simulable
# set (64 members, d=16) took 32.5, 27.1, 23.8, 22.8, 25.5 and 28.5 ms in
# pools of 1, 2, 4, 8, 16 and 64 members (medians of 30 alternating builds,
# one CPU, one BLAS thread), so larger pools are slower again.  Pools of 8
# take it from 154 `_taylor` calls to 75, for about 2 MB more peak memory.
PRODUCT_ENTRIES = 8 * BLOCK_ENTRIES

# e^X for X = i scale H is a Taylor polynomial of X 2^-s, squared s times.
# With X^2, X^3 and X^4 formed (3 products), Paterson-Stockmeyer evaluates the
# degree-4q polynomial with q - 1 Horner steps in X^4: degrees 4, 8, 12 and 16
# take 3, 4, 5 and 6 products.  _THETAS[q - 1] is the largest 1-norm of
# X 2^-s that degree m = 4q takes: there the truncation remainder is at most
# theta^(m+1) / (m+1)! times a tail factor 1 / (1 - theta / (m+2)), which
# stays at most 2^-53 up to 0.001678, 0.06993, 0.3352 and 0.8245 for
# m = 4, 8, 12 and 16 (the literals are these rounded down; the test suite
# recomputes them).  A slice that degree 4, 8 or 12 takes as it is gets the
# least such degree and no squaring; any other gets degree 16 and the least
# s with ||X 2^-s||_1 <= _THETA.  Once squarings are needed a lower degree
# never takes fewer products: degree 12, 8 or 4 needs at least 1, 3 or 8 more
# squarings than degree 16 (floor(log2(_THETA / _THETAS[q - 1]))) and saves
# 1, 2 or 3 Horner steps.  Each squaring doubles the rounding error, so s is
# capped where 2^s 2^-53 <= TOL_UNITARY / 10, at 19 (2^19 2^-53 = 5.8e-11;
# the measured |U U^dag - I| at s = 19 is at most 1.3e-10, about
# 2^(s+1) 2^-53).
# References: Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009);
# Bader, Blanes & Casas, Mathematics 7 (2019).
_TAYLOR = tuple(1.0 / factorial(k) for k in range(17))
_THETA = 0.82
_THETAS = (0.00167, 0.0699, 0.335, _THETA)
_MAX_SQUARINGS = 19


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix (or a stack of them), eigenvalues
    ascending; `vectors[..., :, j]` belongs to `values[..., j]`.  Column phases
    are whatever LAPACK returns: use the vectors only through quantities that
    do not depend on them, such as V f(w) V^dag or |V^dag x|^2.  It is also
    the type of `user_recon.spectral_decompose(U)`, the decomposition of U's
    principal logarithm, whose `expm_i(eta)` is U^eta."""

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


def unitarity_defect(U: np.ndarray) -> float:
    """Largest entry of |U U^dag - I|; over every slice of a stack."""
    G = U @ U.conj().swapaxes(-1, -2)
    np.einsum("...ii->...i", G)[...] -= 1.0  # a writeable view of the diagonals
    return float(np.max(np.abs(G)))


def is_unitary(U: np.ndarray) -> bool:
    return unitarity_defect(as_matrix(U)) <= TOL_UNITARY


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


def eigvals_hermitian(H: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian matrix (or of each slice of a
    stack), checked as `eig_hermitian` checks it, without the eigenvectors."""
    return np.linalg.eigvalsh(_hermitian(H))


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


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(q, s) for the 1-norm of one slice: the Taylor polynomial of degree 4q
    and the number of squarings s, as described at `_THETAS`."""
    for q, theta in enumerate(_THETAS[:-1], start=1):
        if norm <= theta:
            return q, 0
    return len(_THETAS), _squarings(norm)


def _taylor(X: np.ndarray, q: int, s: int) -> np.ndarray:
    """e^(2^s X) for an (n, d, d) stack X of slices that share the degree 4q
    and the s squarings: Paterson-Stockmeyer from X^2, X^3 and X^4, Horner in
    X^4 from the top block down, then s squarings."""
    c = _TAYLOR
    X2 = X @ X
    X3 = X2 @ X
    X4 = X2 @ X2
    U = c[4 * q] * X4
    for j in range(q - 1, -1, -1):  # U += c_4j I + c_4j+1 X + c_4j+2 X^2 + c_4j+3 X^3
        U += c[4 * j + 1] * X
        U += c[4 * j + 2] * X2
        U += c[4 * j + 3] * X3
        np.einsum("nii->ni", U)[...] += c[4 * j]
        if j:
            U = U @ X4
    for _ in range(s):
        U = U @ U
    return U


def expm_hermitian_i(H: np.ndarray, scale: float) -> np.ndarray:
    """e^{i * scale * H} for Hermitian H (or each slice of a stack), from matrix
    products: the scaled Taylor polynomial described at `_THETAS`, with each
    slice's own degree and number of squarings s.  The slices that share one
    (q, s) are evaluated together by `_taylor`, a `BLOCK_ENTRIES` block of
    them at a time, so a stack gives each slice's single result bit for bit.
    A slice that would need more than `_MAX_SQUARINGS`, or whose
    |scale| ||H||_1 is not finite, raises SpectrumOutOfRange."""
    X = _hermitian(H)
    shape = X.shape
    X = X.reshape(-1, shape[-1], shape[-1])
    plans = [_taylor_plan(abs(scale) * norm) for norm in np.max(np.sum(np.abs(X), axis=-2), axis=-1).tolist()]
    X *= np.array([1j * scale * 2.0**-s for _, s in plans])[:, None, None]
    block = max(1, BLOCK_ENTRIES // shape[-1] ** 2)
    if len(X) <= block and len(set(plans)) == 1:  # one block of one plan (a single matrix, say): no copy
        return _taylor(X, *plans[0]).reshape(shape)
    U = np.empty_like(X)
    for plan in set(plans):
        idx = [i for i, p in enumerate(plans) if p == plan]
        for start in range(0, len(idx), block):
            part = idx[start : start + block]
            U[part] = _taylor(X[part], *plan)
    return U.reshape(shape)


def expm_product(H: np.ndarray, scale: float) -> np.ndarray:
    """e^{i scale H_{n-1}} ... e^{i scale H_0} for an (n, d, d) stack of
    Hermitian H, latest factor leftmost, started from the first factor (not
    from I); or, for an (m, n, d, d) array, the m products of its rows, as an
    (m, d, d) stack.  Each `expm_hermitian_i` call checks and exponentiates the
    next `PRODUCT_ENTRIES // (m d^2)` factors (at least one) of every row, and
    the rows are multiplied out step by step, so row k equals its own (n, d, d)
    call, and each product a per-factor loop, bit for bit.  An empty stack, or
    a single matrix, raises BadLength."""
    if np.ndim(H) not in (3, 4) or 0 in np.shape(H)[:-2]:
        raise BadLength(f"need a nonempty (n, d, d) or (m, n, d, d) stack of factors, got shape {np.shape(H)}")
    rows = np.asarray(H).reshape(-1, *np.shape(H)[-3:])
    m, n, d = rows.shape[:3]
    steps = max(1, PRODUCT_ENTRIES // (m * d * d))
    U = None
    for start in range(0, n, steps):
        E = expm_hermitian_i(rows[:, start : start + steps].reshape(-1, d, d), scale).reshape(m, -1, d, d)
        for j in range(E.shape[1]):
            U = E[:, j] if U is None else E[:, j] @ U
    return U if np.ndim(H) == 4 else U[0]
