import numpy as np
import pytest

from userkit.channels import (
    DensityMatrix,
    KrausChannel,
    _set_strengths,
    noise_strength_from_expectation,
    twirl_analytic_all,
    unitary_stack,
)
from userkit.errors import (
    BadLength,
    DegenerateDenominator,
    DimensionMismatch,
    NotHermitian,
    NotTracePreserving,
    NotUnitary,
    TraceViolation,
    UnphysicalEpsilon,
)
from userkit.matrix_core import expm_hermitian_i
from userkit.oracle import (
    apply_channel,
    density_from_pure,
    depolarize,
    expectation,
    mc_haar_unitary,
    sear_error_channel,
    twirl_analytic,
    twirl_discrete,
    twirl_haar_mc,
)
from userkit.user_recon import Observable, PureState
from conftest import random_hermitian, random_state

Z = np.diag([1.0, -1.0]).astype(complex)


def non_hermitian_observable():
    """A validated Observable whose matrix is swapped afterwards for a
    non-Hermitian one, to reach the checks that guard against such a matrix."""
    O = Observable(np.eye(2))
    object.__setattr__(O, "matrix", np.array([[1j, 0.0], [0.0, 0.0]]))
    return O


def random_unitaries(rng, d, n):
    return [mc_haar_unitary(d, rng) for _ in range(n)]


def random_mixed_unitary(rng, d, n):
    return KrausChannel(tuple(u / np.sqrt(n) for u in random_unitaries(rng, d, n)))


class TestDensityMatrix:
    def test_basis_state(self):
        rho = density_from_pure(PureState(np.array([1.0, 0.0, 0.0])))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_plus_state(self):
        rho = density_from_pure(PureState(np.array([1.0, 1.0]) / np.sqrt(2)))
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))

    def test_projector(self, rng):
        rho = density_from_pure(PureState(random_state(rng, 5)))
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-10


class TestExpectation:
    def test_maximally_mixed(self, rng):
        d = 4
        O = Observable(random_hermitian(rng, d))
        rho = DensityMatrix(np.eye(d) / d)
        assert expectation(rho, O) == pytest.approx(np.real(np.trace(O.matrix)) / d, abs=1e-12)

    def test_pure_consistency(self, rng):
        d = 3
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        direct = float(np.real(psi.amplitudes.conj() @ O.matrix @ psi.amplitudes))
        assert expectation(density_from_pure(psi), O) == pytest.approx(direct, abs=1e-12)

    def test_double_loop_oracle(self, rng):
        d = 3
        rho = density_from_pure(PureState(random_state(rng, d)))
        O = Observable(random_hermitian(rng, d))
        oracle = sum(
            rho.matrix[i, j] * O.matrix[j, i] for i in range(d) for j in range(d)
        )
        assert expectation(rho, O) == pytest.approx(float(np.real(oracle)), abs=1e-12)

    def test_non_hermitian_observable_raises(self):
        O = non_hermitian_observable()
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(NotHermitian):
            expectation(rho, O)


class TestApplyChannel:
    def test_identity_channel(self, rng):
        rho = density_from_pure(PureState(random_state(rng, 3)))
        ch = KrausChannel((np.eye(3, dtype=complex),))
        assert np.allclose(apply_channel(ch, rho).matrix, rho.matrix)

    def test_single_unitary(self, rng):
        rho = density_from_pure(PureState(random_state(rng, 3)))
        U = mc_haar_unitary(3, rng)
        out = apply_channel(KrausChannel((U,)), rho)
        assert np.allclose(out.matrix, U @ rho.matrix @ U.conj().T)

    def test_dephasing_kills_coherences(self):
        rho = density_from_pure(PureState(np.array([1.0, 1.0]) / np.sqrt(2)))
        ch = KrausChannel((np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * Z))
        out = apply_channel(ch, rho)
        assert np.allclose(out.matrix, np.diag([0.5, 0.5]))

    def test_not_trace_preserving_rejected(self):
        with pytest.raises(NotTracePreserving):
            KrausChannel((0.5 * np.eye(2, dtype=complex),))


class TestSearErrorChannel:
    def test_identity_cases(self, rng):
        U_i = mc_haar_unitary(3, rng)
        for approx in ([U_i], [U_i, U_i]):
            ch = sear_error_channel(U_i, approx)
            rho = density_from_pure(PureState(random_state(rng, 3)))
            assert np.allclose(apply_channel(ch, rho).matrix, rho.matrix, atol=1e-12)

    def test_reproduces_mean_over_list(self, rng):
        d, n_a = 3, 4
        A = random_hermitian(rng, d, scale=0.2)
        U_i = expm_hermitian_i(A, np.pi)
        approx = [
            expm_hermitian_i(A + random_hermitian(rng, d, scale=0.02), np.pi)
            for _ in range(n_a)
        ]
        psi = random_state(rng, d)
        rho = density_from_pure(PureState(psi))
        rho_i = DensityMatrix(U_i @ rho.matrix @ U_i.conj().T)
        O = Observable(random_hermitian(rng, d))
        ch = sear_error_channel(U_i, approx)
        lhs = expectation(apply_channel(ch, rho_i), O)
        oracle = np.mean(
            [
                float(np.real(np.trace(U @ rho.matrix @ U.conj().T @ O.matrix)))
                for U in approx
            ]
        )
        assert lhs == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        # a member of another dimension than U_i is the package's error, not numpy's
        with pytest.raises(DimensionMismatch):
            sear_error_channel(np.eye(2), [np.eye(3)])
        with pytest.raises(DimensionMismatch):
            sear_error_channel(np.eye(2), [np.eye(2), np.eye(3)])

    @pytest.mark.filterwarnings("error")  # not numpy's divide-by-zero warning either
    def test_empty_member_list(self):
        with pytest.raises(BadLength, match="at least one"):
            sear_error_channel(np.eye(2), [])


class TestComplementaryChannel:
    def test_single_member_identity(self, rng):
        U = mc_haar_unitary(2, rng)
        ch = sear_error_channel(U, [U])
        assert np.allclose(ch.kraus[0], np.eye(2))

    def test_kth_kraus_is_identity(self, rng):
        approx = [mc_haar_unitary(3, rng) for _ in range(4)]
        for k in range(4):
            ch = sear_error_channel(approx[k], approx)
            assert np.allclose(ch.kraus[k], np.eye(3) / 2.0, atol=1e-12)


class TestTwirlAnalytic:
    def test_identity_channel_zero(self):
        # U_i = I with the single member I is the identity channel
        I2 = np.eye(2, dtype=complex)
        est = twirl_analytic(I2, [I2])
        assert est.epsilon == pytest.approx(0.0, abs=1e-14)

    def test_rounding_above_unit_fidelity_clamped(self):
        # (1 + 1e-10) I passes the unitarity check but has F_e > 1:
        # the unclamped eps would be about -2e-10
        for d in (2, 8):
            I = np.eye(d, dtype=complex)
            assert twirl_analytic(I, [(1.0 + 1e-10) * I]).epsilon == 0.0
        I4 = np.eye(4, dtype=complex)
        assert twirl_analytic(I4, [I4]).epsilon == 0.0

    def test_traceless_unitary(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        est = twirl_analytic(np.eye(2, dtype=complex), [X])
        assert est.epsilon == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_matches_mc_oracle(self, rng):
        # formula validation on random mixed-unitary channels (d in {2,3,4}):
        # the plain equal-weight mixture of the members is U_i = I
        for trial in range(20):
            d = 2 + trial % 3
            members = random_unitaries(rng, d, 2 + trial % 3)
            ch = sear_error_channel(np.eye(d, dtype=complex), members)
            psi = PureState(random_state(rng, d))
            O = Observable(random_hermitian(rng, d))
            mc = twirl_haar_mc(ch, 2000, seed=trial, probe=psi, O=O)
            an = twirl_analytic(np.eye(d, dtype=complex), members)
            assert abs(an.epsilon - mc.epsilon) <= 3.0 * mc.stderr + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            twirl_analytic(np.eye(2), [np.eye(3)])
        with pytest.raises(DimensionMismatch):
            twirl_analytic(np.eye(3), [np.eye(3), np.eye(2)])

    @pytest.mark.filterwarnings("error")
    def test_empty_member_list(self):
        # the package's error, not a bare ZeroDivisionError
        with pytest.raises(BadLength, match="at least one"):
            twirl_analytic(np.eye(2), [])

    def test_all_members_at_once(self, rng):
        # 300 members at d=16 take the overlaps in blocks of rows: each member's
        # eps is its own twirl_analytic call, bit for bit
        members = unitary_stack(random_unitaries(rng, 16, 300))
        per_k = twirl_analytic_all(members)
        assert per_k.shape == (300,) and np.all(per_k > 0.0)
        assert np.array_equal(per_k, [twirl_analytic(U, members).epsilon for U in members])
        few = random_unitaries(rng, 3, 4)
        assert twirl_analytic_all(few).tolist() == [twirl_analytic(U, few).epsilon for U in few]

    def test_all_members_checked(self):
        with pytest.raises(BadLength, match="at least one"):
            twirl_analytic_all([])
        with pytest.raises(NotUnitary):
            twirl_analytic_all([np.eye(2), 1.1 * np.eye(2)])
        with pytest.raises(DimensionMismatch):
            twirl_analytic_all([np.eye(2), np.eye(3)])


class TestTwirlHaarMc:
    def test_identity_channel(self, rng):
        d = 3
        ch = KrausChannel((np.eye(d, dtype=complex),))
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        est = twirl_haar_mc(ch, 500, seed=0, probe=psi, O=O)
        assert abs(est.epsilon) <= max(3.0 * est.stderr, 1e-10)

    def test_fully_depolarizing_weyl(self, rng):
        # channel from the d^2 normalized shift/clock unitaries is fully
        # depolarizing: eps within 3 sigma of 1
        d = 2
        shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
        clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        ks = tuple(
            (np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)) / d
            for a in range(d)
            for b in range(d)
        )
        ch = KrausChannel(ks)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        est = twirl_haar_mc(ch, 1000, seed=3, probe=psi, O=O)
        assert abs(est.epsilon - 1.0) <= max(3.0 * est.stderr, 1e-10)

    def test_deterministic_under_seed(self, rng):
        ch = random_mixed_unitary(rng, 2, 2)
        psi = PureState(random_state(rng, 2))
        O = Observable(random_hermitian(rng, 2))
        e1 = twirl_haar_mc(ch, 200, seed=11, probe=psi, O=O)
        e2 = twirl_haar_mc(ch, 200, seed=11, probe=psi, O=O)
        assert e1.epsilon == e2.epsilon and e1.stderr == e2.stderr


class TestTwirlDiscrete:
    def test_identity_everything(self, rng):
        d = 2
        ch = KrausChannel((np.eye(d, dtype=complex),))
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        est = twirl_discrete(ch, [np.eye(d, dtype=complex)], psi, O)
        assert est.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_haar_mc(self, rng):
        d = 3
        ch = random_mixed_unitary(rng, d, 3)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        rng2 = np.random.default_rng(99)
        twirl_set = [mc_haar_unitary(d, rng2) for _ in range(500)]
        est_d = twirl_discrete(ch, twirl_set, psi, O)
        est_mc = twirl_haar_mc(ch, 2000, seed=1, probe=psi, O=O)
        sigma = np.hypot(est_d.stderr, est_mc.stderr)
        assert abs(est_d.epsilon - est_mc.epsilon) <= 3.0 * sigma

    def test_permutation_invariance(self, rng):
        d = 2
        ch = random_mixed_unitary(rng, d, 2)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        ts = [mc_haar_unitary(d, rng) for _ in range(20)]
        e1 = twirl_discrete(ch, ts, psi, O).epsilon
        e2 = twirl_discrete(ch, ts[::-1], psi, O).epsilon
        assert abs(e1 - e2) < 1e-12


def brute_force_twirl(ch, twirl_set, psi, O):
    """Reference twirl on the density matrix: W^dag K W built per member."""
    rho = density_from_pure(psi)
    t1 = expectation(rho, O)
    td = float(np.real(np.trace(O.matrix))) / O.dim
    eps = []
    for W in twirl_set:
        conj = KrausChannel(tuple(W.conj().T @ K @ W for K in ch.kraus))
        eps.append((expectation(apply_channel(conj, rho), O) - t1) / (td - t1))
    return np.mean(eps), np.std(eps, ddof=1) / np.sqrt(len(eps))


def amplitude_damping_d3(gamma):
    """Amplitude damping |1> -> |0> on levels 0, 1 of a qutrit: not mixed-unitary."""
    K0 = np.diag([1.0, np.sqrt(1.0 - gamma), 1.0]).astype(complex)
    K1 = np.zeros((3, 3), dtype=complex)
    K1[0, 1] = np.sqrt(gamma)
    return KrausChannel((K0, K1))


class TestTwirlKernel:
    @pytest.mark.parametrize("kind", ["mixed_unitary", "amplitude_damping"])
    def test_matches_density_matrix_reference(self, rng, kind):
        d = 3
        ch = random_mixed_unitary(rng, d, 4) if kind == "mixed_unitary" else amplitude_damping_d3(0.3)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        twirl_set = [mc_haar_unitary(d, rng) for _ in range(40)]
        est = twirl_discrete(ch, twirl_set, psi, O)
        eps, stderr = brute_force_twirl(ch, twirl_set, psi, O)
        assert est.epsilon == pytest.approx(eps, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)

    def test_non_unitary_member_raises(self, rng):
        ch = random_mixed_unitary(rng, 2, 2)
        psi = PureState(random_state(rng, 2))
        O = Observable(Z)
        with pytest.raises(NotUnitary):
            twirl_discrete(ch, [np.eye(2), 1.1 * np.eye(2)], psi, O)

    def test_output_trace_checked(self):
        # The kernel takes a set already checked, so a scaled member gets
        # through; the output trace 1.01^4 then fails.
        kraus = np.eye(2, dtype=complex)[None]
        O = Observable(Z)
        members = np.array([1.01 * np.eye(2)], dtype=complex)
        with pytest.raises(TraceViolation):
            _set_strengths(kraus, members, PureState(np.array([1.0, 0.0])), O)

    def test_later_member_trace_checked(self):
        # every member's output trace is checked, not only the first one's
        kraus = np.eye(2, dtype=complex)[None]
        members = np.array([np.eye(2), np.eye(2), 1.01 * np.eye(2)], dtype=complex)
        with pytest.raises(TraceViolation, match="1.0406"):
            _set_strengths(kraus, members, PureState(np.array([1.0, 0.0])), Observable(Z))

    def test_set_dimension_checked(self, rng):
        ch = KrausChannel((np.eye(2, dtype=complex),))
        psi, O = PureState(random_state(rng, 2)), Observable(Z)
        with pytest.raises(DimensionMismatch):
            twirl_discrete(ch, [np.eye(2), np.eye(3)], psi, O)
        with pytest.raises(DimensionMismatch):
            twirl_discrete(ch, [np.eye(3)], psi, O)

    def test_dimension_mismatch(self, rng):
        ch = KrausChannel((np.eye(3, dtype=complex),))
        O3 = Observable(random_hermitian(rng, 3))
        with pytest.raises(DimensionMismatch):
            twirl_discrete(ch, [np.eye(3)], PureState(random_state(rng, 2)), O3)
        with pytest.raises(DimensionMismatch):
            twirl_discrete(ch, [np.eye(3)], PureState(random_state(rng, 3)), Observable(Z))

    def test_empty_twirl_set(self, rng):
        ch = KrausChannel((np.eye(2, dtype=complex),))
        with pytest.raises(BadLength, match="twirl-set member"):
            twirl_discrete(ch, [], PureState(random_state(rng, 2)), Observable(Z))


class TestNoiseStrengthQuotient:
    def _setup(self, rng, d=3):
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        return psi, O

    def test_endpoints_and_midpoint(self, rng):
        psi, O = self._setup(rng)
        t1 = expectation(density_from_pure(psi), O)
        td = float(np.real(np.trace(O.matrix))) / O.dim
        assert noise_strength_from_expectation(t1, psi, O) == pytest.approx(0.0, abs=1e-12)
        assert noise_strength_from_expectation(td, psi, O) == pytest.approx(1.0, abs=1e-12)
        assert noise_strength_from_expectation(0.5 * (t1 + td), psi, O) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_degenerate_probe(self):
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        O = Observable(np.diag([1.0, -1.0]))
        with pytest.raises(DegenerateDenominator):
            noise_strength_from_expectation(0.3, psi, O)

    def test_basis_probe_matches_density_matrix_bitwise(self, rng):
        d = 5
        O = Observable(random_hermitian(rng, d))
        td = float(np.real(np.trace(O.matrix))) / d
        for i in range(d):
            psi = PureState(np.eye(d)[i])
            t1 = expectation(density_from_pure(psi), O)
            assert noise_strength_from_expectation(0.25, psi, O) == (0.25 - t1) / (td - t1)

    def test_dimension_mismatch(self, rng):
        psi, O = self._setup(rng, d=3)
        with pytest.raises(DimensionMismatch):
            noise_strength_from_expectation(0.3, PureState(random_state(rng, 2)), O)


class TestDepolarize:
    def test_endpoints(self, rng):
        rho = density_from_pure(PureState(random_state(rng, 3)))
        assert np.allclose(depolarize(rho, 0.0).matrix, rho.matrix)
        assert np.allclose(depolarize(rho, 1.0).matrix, np.eye(3) / 3)

    def test_half_mix_eigenvalues(self, rng):
        rho = density_from_pure(PureState(random_state(rng, 2)))
        w = np.linalg.eigvalsh(depolarize(rho, 0.5).matrix)
        assert np.allclose(np.sort(w), [0.25, 0.75])

    def test_unphysical(self, rng):
        rho = density_from_pure(PureState(random_state(rng, 2)))
        with pytest.raises(UnphysicalEpsilon):
            depolarize(rho, -0.1)
        with pytest.raises(UnphysicalEpsilon):
            depolarize(rho, 1.5)

    def test_error_identity(self, rng):
        # |<O>_rho - <O>_dep| = eps * |<O> - Tr[O]/d|
        for _ in range(10):
            d = 3
            rho = density_from_pure(PureState(random_state(rng, d)))
            O = Observable(random_hermitian(rng, d))
            eps = rng.uniform(0.0, 1.0)
            lhs = abs(expectation(rho, O) - expectation(depolarize(rho, eps), O))
            rhs = eps * abs(expectation(rho, O) - np.real(np.trace(O.matrix)) / d)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestUnitaryMembers:
    def test_stack_checked_in_blocks(self, rng):
        # 40 members at d=16 are checked 16 at a time: a bad one in the last
        # block is found
        members = random_unitaries(rng, 16, 40)
        assert len(unitary_stack(members)) == 40
        members[37] = members[37] * (1.0 + 1e-8)
        with pytest.raises(NotUnitary):
            unitary_stack(members)
        with pytest.raises(NotUnitary):
            unitary_stack(np.stack(members))

    def test_array_not_copied(self, rng):
        stack = np.stack(random_unitaries(rng, 4, 5))
        assert unitary_stack(stack) is stack

    def test_non_finite_member_rejected(self, rng):
        stack = np.stack(random_unitaries(rng, 3, 4))
        stack[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            unitary_stack(stack)
        with pytest.raises(ValueError, match="finite"):
            unitary_stack(list(stack))
