"""Analog-simulator model: driven Hamiltonian families, time-ordered evolution
by the fourth-order Magnus integrator, the first two Magnus terms, and the
synthetic sequence designer.

The truncated Magnus operators are measured against the time-ordered
evolution (acceptance criterion 3, `scripts/magnus_slopes.py`); no designer
reads them.  `design_sequence` builds each member's pulses from the target
plus a seeded defect, not from drives, and returns them as one (n_s, d, d)
stack.  Both ordered products here, a member's U_sd = prod_xi e^{i M_xi} and
the time-ordered evolution prod_n e^{-i G_n}, are `matrix_core.expm_product`.

Sign convention throughout: U(t) = e^{+i M(t)} with Omega_1 = -int_0^t H, so
that e^{i Omega_1} = e^{-i int H} for commuting families.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from .errors import UnsupportedOrder
from .matrix_core import PRODUCT_ENTRIES, _hermitian, as_matrix, expm_product, finite_floats, is_finite_number


@dataclass(frozen=True)
class HamiltonianFamily:
    """Driven generator H_gamma(t) = K + sin(gamma t) V.  K and V are checked
    once, on construction: square, of one shape, finite, and Hermitian, and are
    stored symmetrized.  Every commutator of two generators is a multiple of
    [K, V], so the Hermitian iKV = i[K, V] is formed here, once per family."""

    K: np.ndarray
    V: np.ndarray
    iKV: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        K, V = _hermitian(as_matrix(self.K)), _hermitian(as_matrix(self.V))
        if K.shape != V.shape:
            raise ValueError(f"K and V shapes differ: {K.shape} vs {V.shape}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "iKV", 1j * (K @ V - V @ K))

    @property
    def dim(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class EvolutionSpec:
    """The drive frequency gamma and evolution time t_final of one evolution,
    or of m: each may be a finite number or a 1-d array of them, and arrays
    share one length m.  Checked on construction: every t_final positive, and
    n_steps an int (not a bool) of at least 16."""

    gamma: float | np.ndarray
    t_final: float | np.ndarray
    n_steps: int = 512

    def __post_init__(self):
        n = self.n_steps
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 16:
            raise ValueError(f"n_steps must be an int >= 16, got {n!r}")
        for name in ("gamma", "t_final"):
            value = getattr(self, name)
            if np.ndim(value):
                object.__setattr__(self, name, np.array(finite_floats(name, value)))
            elif not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number or a 1-d array of them, got {value!r}")
        if np.ndim(self.gamma) and np.ndim(self.t_final) and len(self.gamma) != len(self.t_final):
            raise ValueError(f"gamma and t_final arrays differ in length: {len(self.gamma)} vs {len(self.t_final)}")
        if not np.all(np.asarray(self.t_final) > 0):
            raise ValueError("t_final must be positive")


def _drive(gamma: float, t: float, n_steps: int) -> tuple[np.ndarray, float]:
    """sin(gamma t_j) on the n_steps midpoints t_j of [0, t], and the step dt."""
    dt = t / n_steps
    return np.sin(gamma * ((np.arange(n_steps) + 0.5) * dt)), dt


def time_ordered_evolve(fam: HamiltonianFamily, spec: EvolutionSpec) -> np.ndarray:
    """Ordered product of fourth-order Magnus steps, latest step leftmost: a
    (d, d) matrix for a spec of numbers, an (m, d, d) stack for a spec of
    arrays (or of an array and a number), one evolution per entry.

    Step n of h = t/n_steps is e^{-i G_n} with the two-node Gauss-Legendre
    Magnus generator (Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999);
    Blanes, Casas, Oteo, Ros, Phys. Rep. 470 (2009), section 5).  The drive is
    read at the nodes t_n + h (1/2 -/+ sqrt(3)/6), s_1 and s_2; since
    [H_1, H_2] = (s_2 - s_1) [K, V], the step's commutator term is a multiple
    of the family's iKV and
        G_n = (h/2) (2K + (s_1 + s_2) V) + (sqrt(3) h^2 / 12) (s_2 - s_1) iKV,
    one exponential per step, with a local error O(h^5).  A constant family is
    integrated exactly.  The generators of `PRODUCT_ENTRIES // (n_steps d^2)`
    evolutions (at least one) are formed at a time, as one
    (pool, n_steps, d, d) array, and multiplied out by one `expm_product`
    call; each evolution equals its own call with numbers bit for bit."""
    gamma, t = np.broadcast_arrays(np.asarray(spec.gamma, dtype=float), np.asarray(spec.t_final, dtype=float))
    gamma, t = np.atleast_1d(gamma)[:, None], np.atleast_1d(t)[:, None]
    h = t / spec.n_steps
    start_times = np.arange(spec.n_steps) * h
    s1 = np.sin(gamma * (start_times + (0.5 - sqrt(3.0) / 6.0) * h))
    s2 = np.sin(gamma * (start_times + (0.5 + sqrt(3.0) / 6.0) * h))
    v_coef = 0.5 * h * (s1 + s2)
    c_coef = (sqrt(3.0) / 12.0) * h * h * (s2 - s1)
    U = np.empty((len(h), fam.dim, fam.dim), dtype=complex)
    pool = max(1, PRODUCT_ENTRIES // (spec.n_steps * fam.dim**2))
    for a in range(0, len(U), pool):
        b = slice(a, a + pool)
        G = h[b, :, None, None] * fam.K + v_coef[b, :, None, None] * fam.V + c_coef[b, :, None, None] * fam.iKV
        U[b] = expm_product(G, -1.0)
    return U if np.ndim(spec.gamma) or np.ndim(spec.t_final) else U[0]


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


def design_sequence(target_A: np.ndarray, lam: float, perturbation: float, seed: int, n_s: int = 4) -> np.ndarray:
    """Synthetic-mode designer: the (n_s, d, d) stack of a member's pulses
    M_xi = pi*lam*A/n_s + delta_xi, with delta_xi a seeded random Hermitian of
    operator norm <= perturbation, so that the pulses sum to pi*lam*A within
    n_s*perturbation.  The member's U_sd is `expm_product(pulses, 1.0)`.

    The physical inverse problem (finding real drives whose Magnus operators
    sum to the target) is open; this mode exercises every downstream formula
    with a controllable, honestly recorded defect.  The caller checks target_A.
    """
    d = target_A.shape[0]
    rng = np.random.default_rng(seed)
    base = (pi * lam / n_s) * target_A
    pulses = np.empty((n_s, d, d), dtype=complex)
    for M in pulses:
        if perturbation > 0:
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            G = 0.5 * (G + G.conj().T)
            # G is exactly Hermitian as formed, so its norm needs no check
            G *= perturbation / float(np.max(np.abs(np.linalg.eigvalsh(G))))
        else:
            G = np.zeros_like(target_A)
        np.add(base, G, out=M)
    return pulses
