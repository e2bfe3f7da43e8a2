"""Expectation-value reconstruction from sampled unitary powers.

A unitary with eigenphases on the principal branch generates a one-parameter
multiplicative family U^eta.  Expectation values along that family are
band-limited trigonometric signals in eta, so sampling them at integer powers
of a small fractional-power "discretization" unitary and sinc-interpolating
recovers the value at eta = 1 -- the unitary the hardware cannot reach
directly.  Sampling here is always done by iterated matrix multiplication;
spectral fractional powers exist only for oracles and diagnostics.
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
from .matrix_core import HermitianEig, as_matrix, eig_hermitian, is_unitary

# Vectors held at once by each power chain of sample_integer_powers.
_SAMPLE_BLOCK = 256
# Largest sample grid (2 n_l + 1 points) required_n_l allows: 128 MB of float64.
MAX_GRID_SAMPLES = 1 << 24
# Truncation error of the regularized sinc kernel, relative to the signal's size.
RECON_TOL = 1e-14
# reconstruction.csv interpolates eta in [0, ETA_MAX], so every grid covers it.
ETA_MAX = 1.2


@dataclass(frozen=True)
class SpectralUnitary:
    """Eigenphases in (-pi, pi] plus the unitary eigenbasis.

    The closed branch convention [-pi, pi] is ambiguous at the endpoints;
    we use the half-open principal branch (-pi, pi].
    """

    phases: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.phases.shape[0]

    def matrix(self) -> np.ndarray:
        return (self.basis * np.exp(1j * self.phases)) @ self.basis.conj().T


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
    """Hermitian observable; its eigendecomposition `eig` is computed from
    `matrix` on construction, which also checks Hermiticity."""

    matrix: np.ndarray
    eig: HermitianEig = field(init=False, repr=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eig", eig_hermitian(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spread(self) -> float:
        """Eigenvalue spread |w_max - w_min|; scales the SEAR error bar."""
        return float(self.eig.values[-1] - self.eig.values[0])


def spectral_decompose(U) -> SpectralUnitary:
    """Phases and eigenbasis of a unitary, phases sorted ascending in (-pi, pi]."""
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
    su = SpectralUnitary(phases=phases[order], basis=Q[:, order])
    if float(np.max(np.abs(su.matrix() - U))) > 1e-8:
        raise NotUnitary("spectral reconstruction defect exceeds 1e-8")
    return su


def phase_separation(su: SpectralUnitary) -> float:
    """Max pairwise eigenphase difference, in [0, 2*pi]."""
    return float(np.max(su.phases) - np.min(su.phases))


def unitary_power(su: SpectralUnitary, eta: float) -> np.ndarray:
    """Fractional power U^eta through the spectral calculus."""
    return (su.basis * np.exp(1j * eta * su.phases)) @ su.basis.conj().T


def multiplicative_expectation(
    psi: PureState, O: Observable, su: SpectralUnitary, eta: float
) -> float:
    """<psi| (U^dag)^eta O U^eta |psi>, evaluated spectrally; real for Hermitian O."""
    if psi.dim != O.dim or psi.dim != su.dim:
        raise DimensionMismatch(
            f"dims differ: state {psi.dim}, observable {O.dim}, unitary {su.dim}"
        )
    c = su.basis.conj().T @ psi.amplitudes
    a = c * np.exp(1j * eta * su.phases)
    value = complex(a.conj() @ (su.basis.conj().T @ O.matrix @ su.basis) @ a)
    return value.real


def aliasing_rate(su: SpectralUnitary) -> float:
    """pi / P: the largest alias-free sampling step of the multiplicative family."""
    P = phase_separation(su)
    if P <= 0.0:
        raise DegenerateSpectrum("zero phase separation; every power is trivial")
    return pi / P


def check_discretization(su: SpectralUnitary, eta_d: float) -> bool:
    """True iff a step eta_d samples faster than the aliasing rate (eta_d * P < pi)."""
    return eta_d * phase_separation(su) < pi


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


def sinc_reconstruct(samples, lam: float, eta: float, delta: float) -> float:
    """Regularized Whittaker-Shannon interpolation of the value at `eta`.

    samples[j] holds the value at eta = k * lam with k = j - n_l running over
    -n_l .. n_l.  With x = eta / lam and m = kernel_window(delta), returns
    sum_k samples[k] * sinc(x - k) * exp(-(x - k)^2 / (2 r^2)), r = sqrt(m / delta).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size % 2 != 1 or samples.size < 3:
        raise BadLength(f"need an odd-length grid of >= 3 samples, got {samples.size}")
    n_l = samples.size // 2
    u = eta / lam - np.arange(-n_l, n_l + 1)
    weights = np.sinc(u) * np.exp(-0.5 * (delta / kernel_window(delta)) * u * u)
    return float(np.dot(samples, weights))


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
