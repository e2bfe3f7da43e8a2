import numpy as np
import pytest

from userkit.oracle import mc_haar_unitary


def random_hermitian(rng, d, scale=1.0):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (G + G.conj().T)


def random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


# Redraws before random_target_A gives up.  A draw succeeds with probability
# (1 - (d-1)*min_gap/2)^d: about 3e-2 at d=8 but 2e-10 at d=16 (min_gap=0.1),
# where an unbounded loop would never finish.
MAX_SPECTRUM_DRAWS = 10_000


def random_target_A(rng, d, min_gap=0.1):
    """Hermitian with spectrum in [-1, 1] and pairwise gaps >= min_gap."""
    for _ in range(MAX_SPECTRUM_DRAWS):
        w = np.sort(rng.uniform(-1.0, 1.0, d))
        if np.min(np.diff(w)) >= min_gap:
            break
    else:
        raise ValueError(f"no spectrum with d={d} and min_gap={min_gap} in {MAX_SPECTRUM_DRAWS} draws")
    V = mc_haar_unitary(d, int(rng.integers(0, 2**31)))
    return (V * w) @ V.conj().T


def no_defect_slack(A, lam):
    """Band slack of U_sd = e^{i pi lam A}: pi (1 - lam spread(A))."""
    w = np.linalg.eigvalsh(A)
    return np.pi * (1.0 - lam * (w[-1] - w[0]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
