"""Independent brute-force references used by the test suite.

Nothing in here touches the sampling/reconstruction code paths; the main
package must never import this module (tests import both and compare).
"""

from __future__ import annotations

from math import pi

import numpy as np

from .errors import SpectrumOutOfRange


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


def mc_haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar unitary from Gaussian + QR with the R-diagonal phase correction."""
    rng = np.random.default_rng(seed)
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    diag = np.diag(R)
    return Q * (diag / np.abs(diag))
