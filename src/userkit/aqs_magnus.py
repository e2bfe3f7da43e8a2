"""Analog-simulator model: driven Hamiltonian families, time-ordered evolution
by the fourth-order Magnus integrator, the first two Magnus terms, and the
synthetic sequence designer.

The truncated Magnus operators are measured against the time-ordered
evolution (acceptance criterion 3, `scripts/magnus_slopes.py`); no designer
reads them.  `design_sequence` builds each member's pulses from the target
plus a seeded defect, not from drives.

Sign convention throughout: U(t) = e^{+i M(t)} with Omega_1 = -int_0^t H, so
that e^{i Omega_1} = e^{-i int H} for commuting families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from .errors import NotHermitian, SpectrumOutOfRange, UnsupportedOrder
from .matrix_core import TOL_EIG, as_matrix, eig_hermitian, expm_hermitian_i, hermiticity_defect


@dataclass(frozen=True)
class HamiltonianFamily:
    """Driven generator H_gamma(t) = K + sin(gamma t) V.  K and V are checked
    once, on construction: square, of one shape, finite, and Hermitian.  Every
    commutator of two generators is a multiple of [K, V], so the Hermitian
    iKV = i[K, V] is formed here, once per family."""

    K: np.ndarray
    V: np.ndarray
    iKV: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        K, V = as_matrix(self.K), as_matrix(self.V)
        if K.shape != V.shape:
            raise ValueError(f"K and V shapes differ: {K.shape} vs {V.shape}")
        for name, H in (("K", K), ("V", V)):
            defect = hermiticity_defect(H)
            if defect > TOL_EIG:
                raise NotHermitian(f"{name} Hermiticity defect {defect:.3e} > {TOL_EIG:.3e}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "iKV", 1j * (K @ V - V @ K))

    @property
    def dim(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class EvolutionSpec:
    gamma: float
    t_final: float
    n_steps: int = 512

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.n_steps < 16:
            raise ValueError("n_steps must be >= 16")


@dataclass(frozen=True)
class SequencePlan:
    """A sequence of simulable members whose truncated Magnus operators sum to
    (approximately) pi * lam * A; `residual` is the honest operator-norm defect."""

    magnus_terms: tuple
    residual: float


def _drive(gamma: float, t: float, n_steps: int) -> tuple[np.ndarray, float]:
    """sin(gamma t_j) on the n_steps midpoints t_j of [0, t], and the step dt."""
    dt = t / n_steps
    return np.sin(gamma * ((np.arange(n_steps) + 0.5) * dt)), dt


# Matrix entries per stacked block of step generators: 64 KB of complex
# numbers, 16 steps at d=16 and one from d=64 up.  `expm_hermitian_i` holds
# seven block-sized arrays besides the block (tracemalloc peak 7.0-7.1 blocks
# at d = 16, 64 and 128), so memory does not grow with the number of steps.
_EVOLVE_BLOCK_ENTRIES = 1 << 12


def time_ordered_evolve(fam: HamiltonianFamily, spec: EvolutionSpec) -> np.ndarray:
    """Ordered product of fourth-order Magnus steps, latest step leftmost.

    Step n of h = t/n_steps is e^{-i G_n} with the two-node Gauss-Legendre
    Magnus generator (Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999);
    Blanes, Casas, Oteo, Ros, Phys. Rep. 470 (2009), section 5).  The drive is
    read at the nodes t_n + h (1/2 -/+ sqrt(3)/6), s_1 and s_2; since
    [H_1, H_2] = (s_2 - s_1) [K, V], the step's commutator term is a multiple
    of the family's iKV and
        G_n = (h/2) (2K + (s_1 + s_2) V) + (sqrt(3) h^2 / 12) (s_2 - s_1) iKV,
    one exponential per step, with a local error O(h^5).  A constant family is
    integrated exactly.  A block of G_n is built at a time and exponentiated
    with one stacked `expm_hermitian_i` call."""
    h = spec.t_final / spec.n_steps
    start_times = np.arange(spec.n_steps) * h
    s1 = np.sin(spec.gamma * (start_times + (0.5 - sqrt(3.0) / 6.0) * h))
    s2 = np.sin(spec.gamma * (start_times + (0.5 + sqrt(3.0) / 6.0) * h))
    v_coef = 0.5 * h * (s1 + s2)
    c_coef = (sqrt(3.0) / 12.0) * h * h * (s2 - s1)
    hK = h * fam.K
    block = max(1, _EVOLVE_BLOCK_ENTRIES // fam.dim**2)
    U = np.eye(fam.dim, dtype=complex)
    for start in range(0, spec.n_steps, block):
        stop = start + block
        G = hK + v_coef[start:stop, None, None] * fam.V + c_coef[start:stop, None, None] * fam.iKV
        for step in expm_hermitian_i(G, -1.0):
            U = step @ U
    return U


def magnus_omega1(fam: HamiltonianFamily, gamma: float, t: float, n_steps: int = 512) -> np.ndarray:
    """Omega_1 = -int_0^t H(t') dt', midpoint quadrature: -dt (n K + sum_j s_j V)."""
    s, dt = _drive(gamma, t, n_steps)
    return -dt * (n_steps * fam.K + float(np.sum(s)) * fam.V)


def magnus_omega2(fam: HamiltonianFamily, gamma: float, t: float, n_steps: int = 512) -> np.ndarray:
    """Omega_2 = (i/2) int_0^t dt1 int_0^t1 dt2 [H(t1), H(t2)], midpoint grid.

    The grid sum is sum_j [H_j, sum_{l<j} H_l] (equal-time cells contribute
    nothing).  With [H_j, H_l] = (s_l - s_j) [K, V] it collapses to
    c [K, V], c = sum_j (sum_{l<j} s_l - j s_j): a multiple of the family's
    iKV, however many steps (Blanes, Casas, Oteo, Ros, Phys. Rep. 470 (2009)).
    """
    s, dt = _drive(gamma, t, n_steps)
    c = float(np.sum(np.cumsum(s) - s - np.arange(n_steps) * s))
    return 0.5 * dt * dt * c * fam.iKV


def magnus_truncated(
    fam: HamiltonianFamily, gamma: float, t: float, kappa: int, n_steps: int = 512
) -> np.ndarray:
    """Sum of the first kappa Magnus terms; only kappa in {1, 2} is available."""
    if kappa not in (1, 2):
        raise UnsupportedOrder(f"kappa must be 1 or 2, got {kappa}")
    M = magnus_omega1(fam, gamma, t, n_steps)
    if kappa == 2:
        M = M + magnus_omega2(fam, gamma, t, n_steps)
    return M


def _norm_hermitian(G: np.ndarray) -> float:
    """Operator 2-norm of a Hermitian G: its largest |eigenvalue| (eigvalsh
    reads one triangle and is cheaper than the SVD behind norm(G, 2))."""
    return float(np.max(np.abs(np.linalg.eigvalsh(G))))


def _check_target(target_A: np.ndarray) -> np.ndarray:
    target_A = as_matrix(target_A)
    w = eig_hermitian(target_A).values
    if float(np.max(np.abs(w))) > 1.0 + TOL_EIG:
        raise SpectrumOutOfRange(f"target spectrum radius {np.max(np.abs(w)):.6f} > 1")
    return target_A


def design_sequence(
    target_A: np.ndarray,
    lam: float,
    perturbation: float,
    seed: int,
    n_s: int = 4,
) -> SequencePlan:
    """Synthetic-mode designer: members realize M_xi = pi*lam*A/n_s + delta_xi
    with delta_xi a seeded random Hermitian of operator norm <= perturbation.

    The physical inverse problem (finding real drives whose Magnus operators
    sum to the target) is open; this mode exercises every downstream formula
    with a controllable, honestly recorded defect.  The caller checks target_A.
    """
    d = target_A.shape[0]
    rng = np.random.default_rng(seed)
    base = (pi * lam / n_s) * target_A
    terms = []
    defect_sum = np.zeros_like(target_A)
    for _ in range(n_s):
        if perturbation > 0:
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            G = 0.5 * (G + G.conj().T)
            G *= perturbation / _norm_hermitian(G)
        else:
            G = np.zeros_like(target_A)
        terms.append(base + G)
        defect_sum = defect_sum + G
    residual = _norm_hermitian(defect_sum)
    return SequencePlan(magnus_terms=tuple(terms), residual=residual)


def approx_discretization_unitary(plan: SequencePlan) -> np.ndarray:
    """Ordered product prod_xi e^{i M_xi}; always unitary by construction."""
    U = np.eye(plan.magnus_terms[0].shape[0], dtype=complex)
    for M in plan.magnus_terms:
        U = expm_hermitian_i(M, 1.0) @ U
    return U
