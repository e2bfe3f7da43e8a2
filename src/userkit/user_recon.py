"""Expectation-value reconstruction from sampled unitary powers.

A unitary with eigenphases on the principal branch generates a one-parameter
multiplicative family U^eta.  Expectation values along that family are
band-limited trigonometric signals in eta, so sampling them at integer powers
of a small fractional-power "discretization" unitary and sinc-interpolating
recovers the value at eta = 1 -- the unitary the hardware cannot reach
directly.  Sampling here is always done by iterated matrix multiplication.
`spectral_decompose(U)` is the `HermitianEig` of U's principal logarithm, so
`.expm_i(eta)` is the fractional power U^eta; only oracles and diagnostics
(`userkit decompose`) read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log, pi

import numpy as np

from .errors import (
    BadLength,
    DegenerateSpectrum,
    DimensionMismatch,
    GridTooLarge,
    InvalidLambda,
    NotNormalized,
    NotUnitary,
)
from .matrix_core import HermitianEig, _hermitian, as_matrix, eig_hermitian, is_unitary

# Vectors held at once by each power chain of sample_integer_powers.
_SAMPLE_BLOCK = 256
# Largest sample grid (2 n_l + 1 points) required_n_l allows: 128 MB of float64.
MAX_GRID_SAMPLES = 1 << 24
# Truncation error of the regularized sinc kernel, relative to the signal's size.
RECON_TOL = 1e-14
# Entries of the weight matrix sinc_reconstruct forms at once: 2 MB of float64.
_WEIGHT_BLOCK = 1 << 18
# reconstruction.csv interpolates eta in [0, ETA_MAX], so every grid covers it.
ETA_MAX = 1.2


@dataclass(frozen=True)
class PureState:
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", a)
        norm = float(np.sum(np.abs(a) ** 2))
        if not abs(norm - 1.0) <= 1e-8:  # also rejects NaN and inf amplitudes
            raise NotNormalized(f"state norm^2 = {norm:.6e}, expected 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class Observable:
    """Hermitian observable.  On construction `matrix` is checked Hermitian
    and symmetrized, once, so it is exactly Hermitian; its eigendecomposition
    `eig` is computed from it."""

    matrix: np.ndarray
    eig: HermitianEig = field(init=False, repr=False)

    def __post_init__(self):
        m = _hermitian(as_matrix(self.matrix))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eig", eig_hermitian(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spread(self) -> float:
        """Eigenvalue spread |w_max - w_min|; scales the SEAR error bar."""
        return float(self.eig.values[-1] - self.eig.values[0])


def spectral_decompose(U) -> HermitianEig:
    """The decomposition of the principal logarithm Phi of a unitary U = e^{i Phi}:
    its eigenvalues are U's phases, ascending in (-pi, pi] (the closed branch
    [-pi, pi] is ambiguous at the endpoints), and its vectors U's eigenbasis,
    so `.expm_i(eta)` is U^eta on that branch."""
    U = as_matrix(U)
    if not is_unitary(U):
        raise NotUnitary("input is not unitary within tolerance")
    # A unitary is normal, so the complex Schur form is diagonal and the Schur
    # basis is an orthonormal eigenbasis (robust under degeneracy, unlike eig).
    import scipy.linalg

    T, Q = scipy.linalg.schur(U, output="complex")
    phases = np.angle(np.diag(T))
    # Only exactly -pi lies outside (-pi, pi]; moving a nearby phase to +pi
    # would change its eigenvalue beyond the reconstruction check below.
    phases = np.where(phases == -pi, pi, phases)
    order = np.argsort(phases, kind="stable")
    su = HermitianEig(values=phases[order], vectors=Q[:, order])
    if float(np.max(np.abs(su.expm_i(1.0) - U))) > 1e-8:
        raise NotUnitary("spectral reconstruction defect exceeds 1e-8")
    return su


def phase_separation(su: HermitianEig) -> float:
    """Max pairwise eigenphase difference, in [0, 2*pi].

    This is the frequency spread of the principal-branch family U^eta, not the
    circular spread of the eigenvalues: diag(e^{i(pi - 0.01)}, e^{-i(pi - 0.01)})
    gives 2 pi - 0.02, because U^eta rotates its two phases in opposite
    directions.  The circular spread 0.02 belongs to another branch."""
    return float(np.max(su.values) - np.min(su.values))


def aliasing_rate(su: HermitianEig) -> float:
    """pi / P: the largest alias-free sampling step of the multiplicative family."""
    P = phase_separation(su)
    if P <= 0.0:
        raise DegenerateSpectrum("zero phase separation; every power is trivial")
    return pi / P


def kernel_window(delta: float) -> float:
    """Kernel half-width m = 2 ln(1/RECON_TOL) / delta, in samples.  With the
    Gaussian width r = sqrt(m / delta) both exponentials of the regularized kernel's
    error bound are exp(-m delta / 2) = RECON_TOL (L. Qian, Proc. AMS 131 (2003))."""
    if not delta > 0:
        raise GridTooLarge(f"band slack {delta:.6g} is not positive: the samples may alias")
    return 2.0 * log(1.0 / RECON_TOL) / delta


def required_n_l(lam: float, delta: float) -> int:
    """Grid half-width ceil(ETA_MAX / lam + m), m the kernel window of `delta`.

    The only rule for the grid size.  `delta` is how far U_sd's phase spread
    stays below pi.  A slack delta <= 0, or a grid of more than
    MAX_GRID_SAMPLES samples, is refused here, before anything is allocated."""
    if not 0.0 < lam < 0.5:
        raise InvalidLambda(f"lambda must be in (0, 1/2), got {lam}")
    half_width = ETA_MAX / lam + kernel_window(delta)
    # ceil(x) <= m iff x <= m for an integer m; also False for an infinite x
    if not half_width <= (MAX_GRID_SAMPLES - 1) // 2:
        raise GridTooLarge(f"lambda {lam} and band slack {delta:.6g} need more than {MAX_GRID_SAMPLES} samples")
    return int(ceil(half_width))


def sinc_reconstruct(samples, lam: float, eta, delta: float) -> float | np.ndarray:
    """Regularized Whittaker-Shannon interpolation of the value at `eta`: a
    float for a float `eta`, an array for a 1-d array of them.

    samples[j] holds the value at eta = k * lam with k = j - n_l running over
    -n_l .. n_l.  With x = eta / lam and m = kernel_window(delta), returns
    sum_k samples[k] * sinc(x - k) * exp(-(x - k)^2 / (2 r^2)), r = sqrt(m / delta).
    The weight rows of as many `eta` as fit _WEIGHT_BLOCK weights (one at
    least) are formed at once, and each value is one dot product with its own
    row, so an array gives the per-`eta` calls' values bit for bit.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size % 2 != 1 or samples.size < 3:
        raise BadLength(f"need an odd-length grid of >= 3 samples, got {samples.size}")
    etas = np.asarray(eta, dtype=float)
    if etas.ndim > 1:
        raise BadLength(f"need a float or a 1-d array of eta, got shape {etas.shape}")
    n_l = samples.size // 2
    k = np.arange(-n_l, n_l + 1)
    c = -0.5 * (delta / kernel_window(delta))
    x = etas.reshape(-1, 1) / lam
    rows = max(1, _WEIGHT_BLOCK // samples.size)
    values = []
    for start in range(0, len(x), rows):
        u = x[start : start + rows] - k
        values.extend(np.dot(samples, w) for w in np.sinc(u) * np.exp(c * u * u))
    return float(values[0]) if etas.ndim == 0 else np.array(values)


def _chain_expectations(v0: np.ndarray, step: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """out[k] = sum_j w_j |(step^k v0)_j|^2 for k = 0 .. len(out) - 1.

    The chain is written into a buffer a block of _SAMPLE_BLOCK vectors at a
    time, one matrix-vector product per vector, and each block is reduced at
    once.
    """
    n = out.shape[0]
    buf = np.empty((min(_SAMPLE_BLOCK, n), v0.shape[0]), dtype=complex)
    rows = buf.shape[0]
    buf[0] = v0
    for start in range(0, n, rows):
        m = min(rows, n - start)
        if start:
            # Every earlier block was full, so its last row is buf[-1].
            np.matmul(step, buf[-1], out=buf[0])
        for i in range(1, m):
            np.matmul(step, buf[i - 1], out=buf[i])
        block = buf[:m]
        out[start : start + m] = (block.real**2 + block.imag**2) @ w


def sample_integer_powers(psi: PureState, O: Observable, U_sd: np.ndarray, n_l: int) -> np.ndarray:
    """Sample <psi| (U^dag)^k O U^k |psi> for k in [-n_l, n_l] by iterated multiplication.

    The chains U^k psi (forward) and (U^dag)^k psi (backward) run in the
    eigenbasis E of O, where U' = E^dag U E and <v|O|v> = sum_j w_j |v_j|^2,
    so each sample costs one matrix-vector product and no product with O.
    Each chain goes through a buffer of at most _SAMPLE_BLOCK vectors, so
    memory stays O(_SAMPLE_BLOCK * d) however long the grid.
    """
    U_sd = as_matrix(U_sd)
    d = U_sd.shape[0]
    if psi.dim != d or O.dim != d:
        raise DimensionMismatch("state/observable/unitary dimensions differ")
    E, w = O.eig.vectors, O.eig.values
    Ed = E.conj().T
    U_rot = Ed @ U_sd @ E
    v0 = Ed @ psi.amplitudes
    out = np.empty(2 * n_l + 1)
    _chain_expectations(v0, U_rot, w, out[n_l:])
    _chain_expectations(v0, U_rot.conj().T, w, out[n_l::-1])
    return out


def user_reconstruct(
    psi: PureState, O: Observable, U_sd: np.ndarray, lam: float, delta: float
) -> tuple[float, np.ndarray]:
    """Sample the integer powers k = -n_l .. n_l of U_sd, n_l = required_n_l(lam,
    delta), and interpolate eta = 1 with the same slack's kernel: (value, samples)."""
    n_l = required_n_l(lam, delta)
    if not is_unitary(U_sd):
        raise NotUnitary("discretization unitary is not unitary within tolerance")
    samples = sample_integer_powers(psi, O, U_sd, n_l)
    return sinc_reconstruct(samples, lam, 1.0, delta), samples
