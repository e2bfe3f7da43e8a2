"""Periodic one-dimensional lattice presets: the driven Hamiltonian family the
simulator natively realizes and the target Hamiltonian it cannot.

The kinetic term is built from cyclic translation matrices (the lattice shift
operators), so its dispersion is (1/2m)(sin(p a)/a)^2 on the discrete momenta
p_j = 2 pi j / (N a).  Positions are centered at zero, which keeps the drive
term traceless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aqs_magnus import HamiltonianFamily
from .matrix_core import as_matrix, eig_hermitian, finite_floats


@dataclass(frozen=True)
class LatticeSpec:
    n_sites: int = 16
    mass: float = 1.0
    spacing: float = 1.0
    slope: float = 0.1
    kinetic_mod: tuple = (0.0, 0.0, 0.05)  # coefficients of (sin(p a)/a)^j

    def __post_init__(self):
        object.__setattr__(self, "kinetic_mod", finite_floats("kinetic_mod", self.kinetic_mod))
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        if self.mass <= 0 or self.spacing <= 0:
            raise ValueError("mass and spacing must be positive")


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic translation by one site: (S psi)_j = psi_{j-1}; equals e^{-i p a}."""
    S = np.zeros((n, n), dtype=complex)
    for j in range(n):
        S[j, (j - 1) % n] = 1.0
    return S


def position_operator(spec: LatticeSpec) -> np.ndarray:
    """Diagonal centered positions in units of the spacing (traceless)."""
    idx = np.arange(spec.n_sites) - (spec.n_sites - 1) / 2.0
    return np.diag(idx * spec.spacing).astype(complex)


def sine_momentum_operator(spec: LatticeSpec) -> np.ndarray:
    """sin(p a)/a realized through the shift operators; Hermitian."""
    S = shift_matrix(spec.n_sites)  # e^{-i p a}
    return (S.conj().T - S) / (2j * spec.spacing)


def kinetic_operator(spec: LatticeSpec) -> np.ndarray:
    """-(1/2m) [(e^{-ipa} - e^{ipa}) / 2a]^2 = (1/2m)(sin(p a)/a)^2."""
    S = shift_matrix(spec.n_sites)
    D = (S - S.conj().T) / (2.0 * spec.spacing)
    return -(D @ D) / (2.0 * spec.mass)


def build_lattice_family(spec: LatticeSpec) -> HamiltonianFamily:
    """Driven family H_gamma(t) = kinetic + a * x * sin(gamma t); gamma is the
    drive frequency parameter."""
    return HamiltonianFamily(K=kinetic_operator(spec), V=spec.spacing * position_operator(spec))


def build_target_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Target: kinetic + b * x + polynomial modification in sin(p a)/a."""
    H = kinetic_operator(spec) + spec.slope * position_operator(spec)
    if any(c != 0.0 for c in spec.kinetic_mod):
        P = sine_momentum_operator(spec)
        term = np.eye(spec.n_sites, dtype=complex)
        for c in spec.kinetic_mod:
            if c != 0.0:
                H = H + c * term
            term = term @ P
    return H


def target_A_from_hamiltonian(H_t: np.ndarray, evolution_time: float) -> tuple[np.ndarray, float]:
    """A = -H_t * evolution_time / pi, rescaled into spectral radius <= 1.

    Returns (A, rescale) where rescale >= 1 is the factor the simulated time
    was divided by to fit the spectrum into [-1, 1].
    """
    H_t = as_matrix(H_t)
    A = -H_t * (evolution_time / np.pi)
    w = eig_hermitian(A).values
    rescale = max(1.0, float(np.max(np.abs(w))))
    return A / rescale, rescale
