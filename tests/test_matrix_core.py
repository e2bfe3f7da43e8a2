import json
import re
from math import factorial

import numpy as np
import pytest
import scipy.linalg

from userkit import matrix_core
from userkit.cli import main
from userkit.config import write_matrix_file
from userkit.errors import BadLength, NotHermitian, NotUnitary, SpectrumOutOfRange
from userkit.matrix_core import (
    _MAX_SQUARINGS,
    _THETA,
    _THETAS,
    BLOCK_ENTRIES,
    PRODUCT_ENTRIES,
    TOL_UNITARY,
    _taylor_plan,
    as_matrix,
    eig_hermitian,
    eigvals_hermitian,
    expm_hermitian_i,
    expm_product,
    unitarity_defect,
    unitary_stack,
)
from userkit.sear import estimate_noise_strength
from userkit.user_recon import Observable, PureState, spectral_decompose, user_reconstruct
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
    unitary_stack(np.eye(4)[None])
    with pytest.raises(NotUnitary, match=r"reaches 3\.000e\+00 > 1e-09"):
        unitary_stack(np.diag([1.0, 2.0])[None])
    # [[1, e], [0, 1]] has U U^dag - I = [[e^2, e], [e, 0]], and 1 + e^2 rounds
    # to 1: the defect is e exactly, and the check switches exactly at TOL_UNITARY
    U = np.array([[1.0, TOL_UNITARY], [0.0, 1.0]])
    assert unitarity_defect(U) == TOL_UNITARY
    assert np.array_equal(unitary_stack(U[None])[0], U)
    U[0, 1] = np.nextafter(TOL_UNITARY, 1.0)
    assert unitarity_defect(U) == U[0, 1]
    with pytest.raises(NotUnitary):
        unitary_stack(U[None])


def _decompose_cli(U, tmp_path, capsys):
    """`userkit decompose` on U's matrix file; its exit-3 diagnostic raised again as NotUnitary."""
    path = str(tmp_path / "u.mat")
    write_matrix_file(path, U)
    code, err = main(["decompose", path]), capsys.readouterr().err
    if code == 3 and json.loads(err)["error"] == "NotUnitary":
        raise NotUnitary(json.loads(err)["message"])
    assert code == 0, err


@pytest.mark.parametrize(
    "entry", ["user_reconstruct", "spectral_decompose", "members", "explicit_set", "userkit_decompose"]
)
def test_unitarity_boundary_at_every_entry(entry, tmp_path, capsys):
    # every entry that takes a unitary checks it with `unitary_stack`: a defect
    # of exactly TOL_UNITARY passes, the next float up is refused with its defect
    psi, O = PureState(np.array([1.0, 0.0])), Observable(np.diag([1.0, -1.0]))
    call = {
        "user_reconstruct": lambda U: user_reconstruct(psi, O, U, 0.25, 1.0),
        "spectral_decompose": spectral_decompose,
        "members": lambda U: estimate_noise_strength([np.eye(2), U], None, psi, O),
        "explicit_set": lambda U: estimate_noise_strength([np.eye(2)], [np.eye(2), U], psi, O),
        "userkit_decompose": lambda U: _decompose_cli(U, tmp_path, capsys),
    }[entry]
    call(np.array([[1.0, TOL_UNITARY], [0.0, 1.0]]))
    above = np.nextafter(TOL_UNITARY, 1.0)
    with pytest.raises(NotUnitary, match=re.escape(f"|U U^dag - I| reaches {above:.3e} > 1e-09")):
        call(np.array([[1.0, above], [0.0, 1.0]]))


def test_is_unitary_qr_gaussian(rng):
    Z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    Q, _ = np.linalg.qr(Z)
    unitary_stack([Q, expm_hermitian_i(random_hermitian(rng, 5), 2.3)])
    # a stack's defect is the largest of its slices' single defects, bit for bit
    stack = np.stack([Q, expm_hermitian_i(random_hermitian(rng, 5), 2.3), (1.0 + 1e-7) * Q, np.eye(5)])
    defects = [unitarity_defect(U) for U in stack]
    assert unitarity_defect(stack) == max(defects) == defects[2]


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


def one_norm(H):
    return float(np.max(np.sum(np.abs(H), axis=0)))


def within_remainder_rule(theta, m):
    """The degree-m Taylor remainder bound at 1-norm theta, with its tail
    factor, is at most the unit roundoff."""
    return theta ** (m + 1) / factorial(m + 1) / (1.0 - theta / (m + 2)) <= UNIT_ROUNDOFF


class TestTaylorDegree:
    """Each slice takes the Taylor degree its own 1-norm needs."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4], ids=["deg4", "deg8", "deg12", "deg16"])
    def test_threshold_from_remainder_rule(self, q):
        # the literal obeys the rule and is the largest 1-norm it allows,
        # rounded down by less than 1%
        m, theta = 4 * q, _THETAS[q - 1]
        assert within_remainder_rule(theta, m)
        lo, hi = theta, 2.0 * theta
        assert not within_remainder_rule(hi, m)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if within_remainder_rule(mid, m) else (lo, mid)
        assert theta <= lo < 1.01 * theta
        assert _THETAS[-1] == _THETA

    @pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6], ids=["below", "above"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4], ids=["deg4", "deg8", "deg12", "deg16"])
    @pytest.mark.parametrize("d", [2, 16])
    def test_at_degree_thresholds(self, rng, d, q, side):
        H = random_hermitian(rng, d)
        x = side * _THETAS[q - 1]
        scale = -x / one_norm(H)  # ||X||_1 = x for X = i scale H
        above = (q + 1, 0) if q < 4 else (4, 1)
        assert _taylor_plan(abs(scale) * one_norm(H)) == ((q, 0) if side < 1.0 else above)
        U = expm_hermitian_i(H, scale)
        bound = reference_bound(x)  # ||X||_2 <= ||X||_1
        assert np.max(np.abs(U - eig_hermitian(H).expm_i(scale))) <= bound
        assert np.max(np.abs(U - scipy.linalg.expm(1j * scale * H))) <= bound
        assert np.max(np.abs(U @ U.conj().T - np.eye(d))) <= bound

    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_mixed_degree_stack_equals_slices(self, rng, d):
        # every degree, with and without squarings, in a shuffled stack
        norms = [0.0, 1e-4, 0.0016, 0.002, 0.05, 0.069, 0.071, 0.3, 0.34, 0.81, 0.83, 3.0, 200.0]
        norms = [norms[i] for i in rng.permutation(len(norms))]
        H = np.stack([random_hermitian(rng, d) for _ in norms])
        for k, x in enumerate(norms):
            H[k] *= x / one_norm(H[k])
        plans = {_taylor_plan(one_norm(H[k])) for k in range(len(norms))}
        assert {q for q, _ in plans} == {1, 2, 3, 4} and len({s for _, s in plans}) > 2
        U = expm_hermitian_i(H, -1.0)
        for k, x in enumerate(norms):
            assert np.array_equal(U[k], expm_hermitian_i(H[k], -1.0))
            assert np.max(np.abs(U[k] - scipy.linalg.expm(-1j * H[k]))) <= reference_bound(x)

    def test_plans_run_in_full_blocks(self, rng, monkeypatch):
        # at d=16 a block holds 16 slices: 40 slices of three plans (18, 13
        # and 9, shuffled) take 2 + 1 + 1 `_taylor` calls, each of one plan
        # and at most one block, and every slice equals its single result
        assert BLOCK_ENTRIES // 16**2 == 16
        norms = [0.05] * 18 + [0.3] * 13 + [3.0] * 9
        norms = [norms[i] for i in rng.permutation(len(norms))]
        H = np.stack([random_hermitian(rng, 16) for _ in norms])
        for k, x in enumerate(norms):
            H[k] *= x / one_norm(H[k])
        calls = []
        taylor = matrix_core._taylor
        monkeypatch.setattr(matrix_core, "_taylor", lambda X, q, s: calls.append((len(X), q, s)) or taylor(X, q, s))
        U = expm_hermitian_i(H, -1.0)
        assert sorted(calls) == [(2, 2, 0), (9, 4, 2), (13, 3, 0), (16, 2, 0)]
        monkeypatch.setattr(matrix_core, "_taylor", taylor)
        for k in range(len(norms)):
            assert np.array_equal(U[k], expm_hermitian_i(H[k], -1.0))


def test_eigvals_hermitian(rng):
    H = random_hermitian(rng, 8)
    assert np.array_equal(eigvals_hermitian(H), np.linalg.eigvalsh(H))
    assert np.allclose(eigvals_hermitian(H), eig_hermitian(H).values, rtol=0, atol=1e-13)
    with pytest.raises(NotHermitian):
        eigvals_hermitian(H + 1e-9 * np.triu(np.ones((8, 8)), 1))


class TestExpmProduct:
    def test_equals_per_factor_loop(self, rng):
        # at d=16 a block holds 16 factors, so 22 factors take two blocks; the
        # factors take every Taylor degree, with and without squarings
        norms = [0.0, 1e-4, 0.0016, 0.002, 0.05, 0.069, 0.071, 0.3, 0.34, 0.81, 0.83, 3.0, 20.0] * 2
        norms = [norms[i] for i in rng.permutation(22)]
        H = np.stack([random_hermitian(rng, 16) for _ in norms])
        for k, x in enumerate(norms):
            H[k] *= x / one_norm(H[k])
        assert BLOCK_ENTRIES // 16**2 == 16 < len(H)
        assert {q for q, _ in map(_taylor_plan, map(one_norm, H))} == {1, 2, 3, 4}
        U = expm_hermitian_i(H[0], -1.0)
        for G in H[1:]:
            U = expm_hermitian_i(G, -1.0) @ U
        assert np.array_equal(expm_product(H, -1.0), U)

    @pytest.mark.parametrize("m, n, d", [(3, 50, 16), (5, 7, 2), (2, 3, 128)])
    def test_rows_equal_their_own_products(self, rng, m, n, d):
        # m products at once: at d=16 a call takes 32768 // (3 * 256) = 42
        # steps of each row, so 50 steps cross a block; at d=128 one step of
        # two rows fills a call.  The factors take every Taylor degree, with
        # and without squarings, and each row equals its own (n, d, d) call
        assert PRODUCT_ENTRIES // (3 * 16**2) == 42 < 50 and PRODUCT_ENTRIES // (2 * 128**2) == 1
        norms = [0.0, 1e-4, 0.0016, 0.002, 0.05, 0.069, 0.071, 0.3, 0.34, 0.81, 0.83, 3.0, 20.0]
        H = np.stack([[random_hermitian(rng, d) for _ in range(n)] for _ in range(m)])
        for k in np.ndindex(m, n):
            H[k] *= norms[rng.integers(len(norms))] / one_norm(H[k])
        U = expm_product(H, -1.0)
        assert U.shape == (m, d, d)
        for k in range(m):
            assert np.array_equal(U[k], expm_product(H[k], -1.0))
        assert np.array_equal(expm_product(H[:1], -1.0)[0], expm_product(H[0], -1.0))

    def test_single_factor(self, rng):
        H = random_hermitian(rng, 5)
        assert np.array_equal(expm_product(H[None], 0.4), expm_hermitian_i(H, 0.4))

    def test_empty_stack_rejected(self):
        with pytest.raises(BadLength):
            expm_product(np.zeros((0, 3, 3)), 1.0)

    @pytest.mark.parametrize("shape", [(0, 2, 3, 3), (2, 0, 3, 3), (1, 1, 1, 3, 3)])
    def test_empty_rows_and_five_axes_rejected(self, shape):
        with pytest.raises(BadLength, match="stack"):
            expm_product(np.zeros(shape), 1.0)

    def test_single_matrix_rejected(self):
        with pytest.raises(BadLength, match="stack"):
            expm_product(np.eye(3), 1.0)
