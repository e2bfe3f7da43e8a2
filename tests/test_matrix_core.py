import numpy as np
import pytest
import scipy.linalg

from userkit.errors import NotHermitian, SpectrumOutOfRange
from userkit.matrix_core import (
    _MAX_SQUARINGS,
    _THETA,
    TOL_UNITARY,
    as_matrix,
    eig_hermitian,
    expm_hermitian_i,
    is_unitary,
)
from conftest import random_hermitian

UNIT_ROUNDOFF = 2.0**-53


def reference_bound(x):
    """Largest entry difference allowed between e^{iX} and a reference, and of
    U U^dag from I, at ||X||_2 = x.  Rounding X by u moves e^{iX} by about
    u x whichever way it is computed (eigh and scipy's expm differ by up to
    1.4e-13 at x = 1e3), so a fixed 1e-13 holds only up to x of about 100.
    Worst cases measured over random inputs at d = 1, 2, 16, 128: 3.6e-14 at
    x = 40, 8.3e-14 at x = 100, 6.7e-13 at x = 1e3."""
    return 1e-13 + 16 * UNIT_ROUNDOFF * x


def test_eig_diagonal():
    eig = eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(eig.values, [1.0, 3.0])
    # permuted identity eigenbasis
    assert np.allclose(np.abs(eig.vectors), [[0, 1], [1, 0]])


def test_eig_pauli_x():
    eig = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.values, [-1.0, 1.0])


def test_eig_reconstruction_random(rng):
    H = random_hermitian(rng, 8)
    eig = eig_hermitian(H)
    recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert np.max(np.abs(recon - H)) < 1e-10
    assert np.max(np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(8))) < 1e-10


def test_eig_rejects_non_hermitian(rng):
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(NotHermitian):
        eig_hermitian(M)


def test_expm_zero_and_pi():
    assert np.allclose(expm_hermitian_i(np.zeros((3, 3)), 1.7), np.eye(3))
    assert np.allclose(expm_hermitian_i(np.diag([np.pi]), 1.0), [[-1.0]])


def test_expm_matches_scipy_oracle(rng):
    H = random_hermitian(rng, 4)
    ours = expm_hermitian_i(H, 0.3)
    oracle = scipy.linalg.expm(0.3j * H)  # scaling-and-squaring path
    assert np.max(np.abs(ours - oracle)) < 1e-9


def test_expm_group_property(rng):
    H = random_hermitian(rng, 6)
    lhs = expm_hermitian_i(H, 0.7) @ expm_hermitian_i(H, -0.2)
    assert np.max(np.abs(lhs - expm_hermitian_i(H, 0.5))) < 1e-8


def test_is_unitary():
    assert is_unitary(np.eye(4))
    assert not is_unitary(np.diag([1.0, 2.0]))


def test_is_unitary_qr_gaussian(rng):
    Z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    Q, _ = np.linalg.qr(Z)
    assert is_unitary(Q)
    assert is_unitary(expm_hermitian_i(random_hermitian(rng, 5), 2.3))


class TestStacks:
    def test_eig_stack_equals_per_slice(self, rng):
        H = np.stack([random_hermitian(rng, 16) for _ in range(5)])
        eig = eig_hermitian(H)
        assert eig.dim == 16 and eig.values.shape == (5, 16) and eig.vectors.shape == (5, 16, 16)
        for k in range(5):
            one = eig_hermitian(H[k])
            assert np.array_equal(eig.values[k], one.values)
            assert np.array_equal(eig.vectors[k], one.vectors)

    @pytest.mark.parametrize("d", [2, 16])
    def test_expm_stack_equals_per_slice(self, rng, d):
        H = np.stack([random_hermitian(rng, d) for _ in range(7)])
        U = expm_hermitian_i(H, -0.3)
        for k in range(7):
            assert np.array_equal(U[k], expm_hermitian_i(H[k], -0.3))

    def test_one_non_hermitian_slice_rejected(self, rng):
        H = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        H[2, 0, 1] += 1e-9
        with pytest.raises(NotHermitian):
            expm_hermitian_i(H, 1.0)

    def test_one_non_finite_slice_rejected(self, rng):
        H = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        H[3, 1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            eig_hermitian(H)

    @pytest.mark.parametrize("shape", [(4, 3, 2), (2, 2, 2, 2), (3,)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.zeros(shape))

    def test_as_matrix_rejects_stack(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix(np.zeros((2, 3, 3)))


class TestExpmReferences:
    """The product-only exponential against two independent references: the
    eigendecomposition (`HermitianEig.expm_i`) and scipy's Pade expm."""

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.5, 3.0, 40.0, 300.0, 1e3])
    @pytest.mark.parametrize("d", [1, 2, 16, 128])
    def test_matches_eigh_and_scipy(self, rng, d, x):
        H = random_hermitian(rng, d)
        scale = -x / np.linalg.norm(H, 2)  # |scale| ||H||_2 = x
        U = expm_hermitian_i(H, scale)
        bound = reference_bound(x)
        assert np.max(np.abs(U - eig_hermitian(H).expm_i(scale))) <= bound
        assert np.max(np.abs(U - scipy.linalg.expm(1j * scale * H))) <= bound
        assert np.max(np.abs(U @ U.conj().T - np.eye(d))) <= bound

    def test_mixed_norm_stack(self, rng):
        # slices from 0 to 1e3 in norm take from 0 to about 11 squarings each
        norms = [0.0, 1e-2, 0.8, 2.0, 30.0, 500.0, 1e3]
        H = np.stack([x * random_hermitian(rng, 16) for x in norms])
        for k, x in enumerate(norms):
            if x:
                H[k] /= np.linalg.norm(H[k], 2)
        U = expm_hermitian_i(H, 1.0)
        for k, x in enumerate(norms):
            bound = reference_bound(x)
            assert np.array_equal(U[k], expm_hermitian_i(H[k], 1.0))
            assert np.max(np.abs(U[k] - eig_hermitian(H[k]).expm_i(1.0))) <= bound
            assert np.max(np.abs(U[k] - scipy.linalg.expm(1j * H[k]))) <= bound
            assert np.max(np.abs(U[k] @ U[k].conj().T - np.eye(16))) <= bound

    def test_taylor_polynomial_to_rounding(self):
        # Diagonal H: the products are exact on the zeros, so each diagonal
        # entry is the scalar Taylor polynomial.  Up to the 1-norm _THETA no
        # squaring is taken and the polynomial must match exp to rounding
        # (measured 2 u); dropping even its last term moves it by 18 u.
        w = _THETA * np.linspace(-1.0, 1.0, 2001)
        for scale in (1.0, -1.0):
            U = expm_hermitian_i(w.reshape(-1, 1, 1), scale)[:, 0, 0]
            assert np.max(np.abs(U - np.exp(1j * scale * w))) <= 4 * UNIT_ROUNDOFF
            U = expm_hermitian_i(np.diag(w[-16:]), scale)
            assert np.array_equal(U, np.diag(np.diag(U)))
            assert np.max(np.abs(np.diag(U) - np.exp(1j * scale * w[-16:]))) <= 4 * UNIT_ROUNDOFF
        # each squaring doubles the error at most (measured 1.6 u x)
        x = _THETA * 2.0 ** np.arange(1, _MAX_SQUARINGS + 1)
        U = expm_hermitian_i(x.reshape(-1, 1, 1), 1.0)[:, 0, 0]
        assert np.all(np.abs(U - np.exp(1j * x)) <= 4 * UNIT_ROUNDOFF * x)

    @pytest.mark.parametrize("d", [1, 2, 16, 128])
    def test_zero_matrix_gives_identity(self, rng, d):
        assert np.array_equal(expm_hermitian_i(np.zeros((d, d)), 1.7), np.eye(d))
        assert np.array_equal(expm_hermitian_i(np.zeros((3, d, d)), -2.0), np.broadcast_to(np.eye(d), (3, d, d)))
        assert np.array_equal(expm_hermitian_i(random_hermitian(rng, d), 0.0), np.eye(d))

    def test_norm_guard(self):
        # the largest 1-norm taken squares _MAX_SQUARINGS times and stays
        # unitary (measured 1.2e-10)
        top = _THETA * 2.0**_MAX_SQUARINGS
        U = expm_hermitian_i(np.diag([top, -top / 3]), 1.0)
        assert np.max(np.abs(U @ U.conj().T - np.eye(2))) <= TOL_UNITARY / 4
        with pytest.raises(SpectrumOutOfRange, match="squarings"):
            expm_hermitian_i(np.diag([top, -top / 3]), 1.01)
        # an overflowing 1-norm, a slice of a stack, an infinite scale
        with pytest.raises(SpectrumOutOfRange):
            expm_hermitian_i(np.full((2, 2), 1e300), 1e10)
        with pytest.raises(SpectrumOutOfRange):
            expm_hermitian_i(np.stack([np.eye(2), 1e6 * np.eye(2)]), 1.0)
        with pytest.raises(SpectrumOutOfRange):
            expm_hermitian_i(np.eye(2), np.inf)
