"""Analog-simulator model: driven Hamiltonian families, time-ordered evolution,
the first two Magnus terms, and sequence designers that assemble approximate
discretization unitaries from simulable evolutions.

Sign convention throughout: U(t) = e^{+i M(t)} with Omega_1 = -int_0^t H, so
that e^{i Omega_1} = e^{-i int H} for commuting families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NotHermitian, SpectrumOutOfRange, UnsupportedOrder
from .matrix_core import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    eig_hermitian,
    expm_hermitian_i,
    hermiticity_defect,
)


@dataclass(frozen=True)
class HamiltonianFamily:
    """Parameterized time-dependent Hermitian generator: (gamma, t) -> H."""

    dim: int
    generator: Callable[[float, float], np.ndarray]
    label: str = ""

    def at(self, gamma: float, t: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        H = as_matrix(self.generator(gamma, t))
        defect = hermiticity_defect(H)
        if defect > 1e-8:
            raise NotHermitian(f"generator({gamma}, {t}) Hermiticity defect {defect:.3e}")
        return H


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
class MagnusOperator:
    order: int
    matrix: np.ndarray


@dataclass(frozen=True)
class SequencePlan:
    """A sequence of simulable members whose truncated Magnus operators sum to
    (approximately) pi * lam * A; `residual` is the honest operator-norm defect."""

    magnus_terms: tuple
    target_A: np.ndarray
    lam: float
    kappa: int
    residual: float
    specs: Optional[tuple] = None  # EvolutionSpec per member in drive-fit mode

    @property
    def n_members(self) -> int:
        return len(self.magnus_terms)


def _midpoints(t: float, n_steps: int) -> tuple[np.ndarray, float]:
    dt = t / n_steps
    return (np.arange(n_steps) + 0.5) * dt, dt


def time_ordered_evolve(fam: HamiltonianFamily, spec: EvolutionSpec) -> np.ndarray:
    """Ordered product of midpoint-slice exponentials, latest time leftmost."""
    ts, dt = _midpoints(spec.t_final, spec.n_steps)
    U = np.eye(fam.dim, dtype=complex)
    for tj in ts:
        U = expm_hermitian_i(fam.at(spec.gamma, tj), -dt) @ U
    return U


def magnus_omega1(fam: HamiltonianFamily, gamma: float, t: float, n_steps: int = 512) -> np.ndarray:
    """Omega_1 = -int_0^t H(t') dt', midpoint quadrature."""
    ts, dt = _midpoints(t, n_steps)
    acc = np.zeros((fam.dim, fam.dim), dtype=complex)
    for tj in ts:
        acc += fam.at(gamma, tj)
    return -dt * acc


def magnus_omega2(fam: HamiltonianFamily, gamma: float, t: float, n_steps: int = 512) -> np.ndarray:
    """Omega_2 = (i/2) int_0^t dt1 int_0^t1 dt2 [H(t1), H(t2)], midpoint grid.

    The triangle sum uses running partial sums, so the cost is n_steps matrix
    products; diagonal cells contribute nothing (equal-time commutator).
    """
    ts, dt = _midpoints(t, n_steps)
    Hs = [fam.at(gamma, tj) for tj in ts]
    acc = np.zeros((fam.dim, fam.dim), dtype=complex)
    partial = np.zeros_like(acc)
    for H in Hs:
        acc += H @ partial - partial @ H
        partial += H
    return 0.5j * dt * dt * acc


def magnus_truncated(
    fam: HamiltonianFamily, gamma: float, t: float, kappa: int, n_steps: int = 512
) -> MagnusOperator:
    """Sum of the first kappa Magnus terms; only kappa in {1, 2} is available."""
    if kappa not in (1, 2):
        raise UnsupportedOrder(f"kappa must be 1 or 2, got {kappa}")
    M = magnus_omega1(fam, gamma, t, n_steps)
    if kappa == 2:
        M = M + magnus_omega2(fam, gamma, t, n_steps)
    return MagnusOperator(order=kappa, matrix=M)


def _check_target(target_A: np.ndarray, tol: Tolerances) -> np.ndarray:
    target_A = as_matrix(target_A)
    w = eig_hermitian(target_A, tol).values
    if float(np.max(np.abs(w))) > 1.0 + tol.tol_eig:
        raise SpectrumOutOfRange(f"target spectrum radius {np.max(np.abs(w)):.6f} > 1")
    return target_A


def design_sequence(
    target_A: np.ndarray,
    lam: float,
    kappa: int,
    perturbation: float,
    seed: int,
    n_s: int = 4,
    tol: Tolerances = DEFAULT_TOL,
) -> SequencePlan:
    """Synthetic-mode designer: members realize M_xi = pi*lam*A/n_s + delta_xi
    with delta_xi a seeded random Hermitian of operator norm <= perturbation.

    The physical inverse problem (finding real drives whose Magnus operators
    sum to the target) is open; this mode exercises every downstream formula
    with a controllable, honestly recorded defect.
    """
    target_A = _check_target(target_A, tol)
    d = target_A.shape[0]
    rng = np.random.default_rng(seed)
    base = (pi * lam / n_s) * target_A
    terms = []
    defect_sum = np.zeros_like(target_A)
    for _ in range(n_s):
        if perturbation > 0:
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            G = 0.5 * (G + G.conj().T)
            G *= perturbation / float(np.linalg.norm(G, 2))
        else:
            G = np.zeros_like(target_A)
        terms.append(base + G)
        defect_sum = defect_sum + G
    residual = float(np.linalg.norm(defect_sum, 2))
    return SequencePlan(
        magnus_terms=tuple(terms),
        target_A=target_A,
        lam=lam,
        kappa=kappa,
        residual=residual,
    )


def design_sequence_drive_fit(
    fam: HamiltonianFamily,
    target_A: np.ndarray,
    lam: float,
    kappa: int,
    n_s: int = 2,
    seed: int = 0,
    n_steps: int = 128,
    max_iter: int = 200,
    tol: Tolerances = DEFAULT_TOL,
) -> SequencePlan:
    """Drive-fit designer: least-squares fit of (omega, t) per member so that the
    truncated Magnus operators sum close to pi*lam*A.  Best-effort only; the
    residual is reported, no optimality is claimed."""
    from scipy.optimize import minimize

    target_A = _check_target(target_A, tol)
    target = pi * lam * target_A
    rng = np.random.default_rng(seed)
    x0 = np.concatenate(
        [1.0 + rng.random(n_s), 0.2 + 0.1 * rng.random(n_s)]  # omegas, times
    )

    def terms_for(x: np.ndarray) -> list[np.ndarray]:
        omegas, times = x[:n_s], np.abs(x[n_s:]) + 1e-6
        return [
            magnus_truncated(fam, float(w), float(t), kappa, n_steps).matrix
            for w, t in zip(omegas, times)
        ]

    def objective(x: np.ndarray) -> float:
        return float(np.linalg.norm(sum(terms_for(x)) - target, "fro"))

    res = minimize(objective, x0, method="Nelder-Mead", options={"maxiter": max_iter, "xatol": 1e-8, "fatol": 1e-12})
    x = res.x
    terms = terms_for(x)
    residual = float(np.linalg.norm(sum(terms) - target, 2))
    specs = tuple(
        EvolutionSpec(gamma=float(w), t_final=float(abs(t)) + 1e-6, n_steps=n_steps)
        for w, t in zip(x[:n_s], x[n_s:])
    )
    return SequencePlan(
        magnus_terms=tuple(terms),
        target_A=target_A,
        lam=lam,
        kappa=kappa,
        residual=residual,
        specs=specs,
    )


def approx_discretization_unitary(plan: SequencePlan) -> np.ndarray:
    """Ordered product prod_xi e^{i M_xi}; always unitary by construction."""
    d = plan.target_A.shape[0]
    U = np.eye(d, dtype=complex)
    for M in plan.magnus_terms:
        U = expm_hermitian_i(0.5 * (M + M.conj().T), 1.0) @ U
    return U
