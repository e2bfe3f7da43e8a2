"""Independent brute-force references used by the test suite.

Nothing in here touches the sampling/reconstruction code paths; the main
package must never import this module (tests import both and compare).  It
builds on `channels` and `user_recon`, so imports run one way only:
`tests/test_oracle.py` checks that `userkit.cli` leaves it unloaded.

The density-matrix references (`density_from_pure`, `expectation`,
`apply_channel`, `depolarize`) take `channels.DensityMatrix`, and the channel
references (`sear_error_channel`, `twirl_discrete`, `twirl_haar_mc`)
`channels.KrausChannel`.  `twirl_discrete` runs `channels.set_strengths` and
`twirl_analytic` one row of `channels.haar_strengths`, the two kernels that
`sear.estimate_noise_strength` calls, so each agrees with it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .channels import DensityMatrix, KrausChannel, haar_strengths, set_strengths
from .errors import BadLength, DimensionMismatch, NotHermitian, SpectrumOutOfRange, TraceViolation, UnphysicalEpsilon
from .matrix_core import HermitianEig, unitary_stack
from .user_recon import Observable, PureState


def exact_intermediate_expectation(psi, O, A) -> float:
    """<psi| e^{-i pi A} O e^{i pi A} |psi> by direct dense eigendecomposition."""
    psi = np.asarray(psi, dtype=complex)
    O = np.asarray(O, dtype=complex)
    A = np.asarray(A, dtype=complex)
    w, V = np.linalg.eigh(0.5 * (A + A.conj().T))
    if float(np.max(np.abs(w))) > 1.0 + 1e-10:
        raise SpectrumOutOfRange(f"spectrum radius {np.max(np.abs(w)):.6f} > 1")
    U_i = (V * np.exp(1j * pi * w)) @ V.conj().T
    v = U_i @ psi
    return float(np.real(v.conj() @ O @ v))


def mc_haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar unitary from Gaussian + QR with the R-diagonal phase correction.

    `seed` is a seed or a Generator; a Generator is drawn from in place, so
    successive calls on one Generator give successive draws."""
    rng = np.random.default_rng(seed)
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    diag = np.diag(R)
    return Q * (diag / np.abs(diag))


def multiplicative_expectation(
    psi: PureState, O: Observable, su: HermitianEig, eta: float
) -> float:
    """<psi| (U^dag)^eta O U^eta |psi>, evaluated spectrally from su =
    spectral_decompose(U), U's phases and eigenbasis; real for Hermitian O."""
    if psi.dim != O.dim or psi.dim != su.dim:
        raise DimensionMismatch(
            f"dims differ: state {psi.dim}, observable {O.dim}, unitary {su.dim}"
        )
    c = su.vectors.conj().T @ psi.amplitudes
    a = c * np.exp(1j * eta * su.values)
    value = complex(a.conj() @ (su.vectors.conj().T @ O.matrix @ su.vectors) @ a)
    return value.real


@dataclass(frozen=True)
class DepolarizingEstimate:
    epsilon: float
    stderr: float


def _checked(U_i, members) -> tuple[np.ndarray, np.ndarray]:
    """U_i and the stacked members, at least one, checked unitary and of one dimension."""
    members = unitary_stack(members)
    if not len(members):
        raise BadLength("need at least one ensemble member")
    U_i = unitary_stack([U_i])[0]
    if members.shape[1:] != U_i.shape:
        raise DimensionMismatch(f"members differ in dimension from U_i ({U_i.shape[0]})")
    return U_i, members


def sear_error_channel(U_i, members) -> KrausChannel:
    """Mixed-unitary channel with Kraus (1/sqrt(n_a)) U_a^(mu) U_i^dag.

    Applying it to U_i rho U_i^dag and taking Tr[. O] reproduces the arithmetic
    mean of the n_a approximate expectation values exactly.
    """
    U_i, members = _checked(U_i, members)
    w = 1.0 / np.sqrt(len(members))
    return KrausChannel(tuple(w * (U @ U_i.conj().T) for U in members))


def twirl_analytic(U_i, members) -> DepolarizingEstimate:
    """Closed-form Haar twirl of sear_error_channel(U_i, members), from the
    overlaps Tr U_a U_i^dag alone, without building the channel."""
    U_i, members = _checked(U_i, members)
    return DepolarizingEstimate(epsilon=float(haar_strengths(U_i[None], members)[0]), stderr=0.0)


def twirl_discrete(ch: KrausChannel, twirl_set, probe: PureState, O: Observable) -> DepolarizingEstimate:
    """Discrete twirl of `ch` over an explicit unitary set, on the pure probe:
    the mean and standard error of the members' noise strengths."""
    eps = set_strengths(np.stack(ch.kraus), unitary_stack(twirl_set), probe, O)
    stderr = float(np.std(eps, ddof=1) / np.sqrt(eps.size)) if eps.size > 1 else 0.0
    return DepolarizingEstimate(epsilon=float(np.mean(eps)), stderr=stderr)


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


def depolarize(rho: DensityMatrix, epsilon: float) -> DensityMatrix:
    """Affine mix (1 - eps) rho + eps * Id/d over the physical eps range."""
    d = rho.dim
    top = d * d / (d * d - 1.0)  # the largest eps for which the map is still completely positive
    if not 0.0 <= epsilon <= top + 1e-12:
        raise UnphysicalEpsilon(f"epsilon {epsilon} outside [0, {top:.6f}] at d={d}")
    return DensityMatrix((1.0 - epsilon) * rho.matrix + epsilon * np.eye(d) / d)


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
    draws = [mc_haar_unitary(ch.dim, rng) for _ in range(n_samples)]
    return twirl_discrete(ch, draws, probe, O)
