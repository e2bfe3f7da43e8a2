import numpy as np
import pytest
import scipy.linalg

from userkit.errors import NotHermitian
from userkit.matrix_core import (
    as_matrix,
    eig_hermitian,
    expm_hermitian_i,
    is_unitary,
)
from conftest import random_hermitian


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
