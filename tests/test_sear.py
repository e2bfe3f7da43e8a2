import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from userkit.aqs_magnus import approx_discretization_unitary, design_sequence
from userkit.channels import haar_unitary, sear_error_channel, twirl_analytic
from userkit.matrix_core import eig_hermitian, expm_hermitian_i
from userkit.sear import SearConfig, band_slack, estimate_noise_strength, generate_approx_unitaries, run_sear
from userkit.user_recon import Observable, PureState, required_n_l, user_reconstruct
from conftest import random_hermitian, random_state, random_target_A


def make_problem(rng, d=4):
    A = random_target_A(rng, d)
    psi = PureState(random_state(rng, d))
    O = Observable(random_hermitian(rng, d))
    return A, psi, O


def haar_twirl_set(d, n, seed):
    rng = np.random.default_rng(seed)
    return [haar_unitary(d, rng) for _ in range(n)]


def spread_of(A):
    w = eig_hermitian(A).values
    return float(w[-1] - w[0])


def circular_phase_spread(U):
    """Length of the shortest arc of the unit circle holding every eigenvalue of U."""
    phases = np.sort(np.angle(np.linalg.eigvals(U)))
    gaps = np.append(np.diff(phases), phases[0] + 2 * np.pi - phases[-1])
    return 2 * np.pi - float(np.max(gaps))


def mean_reconstruction(A, psi, O, approx, lambdas, cfg):
    """Mean of the members' reconstructed values; member k is sampled at lambdas[k]
    with the band slack of cfg's pulses."""
    values = [
        user_reconstruct(psi, O, U_sd, lam, band_slack(spread_of(A), lam, cfg.n_s, cfg.perturbation))[0]
        for (_, U_sd, _), lam in zip(approx, lambdas)
    ]
    return float(np.mean(values)), values


class TestGenerateApproxUnitaries:
    def test_exact_mode_integer_inverse_lambda(self, rng):
        A, _, _ = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=0.0, seed=0)
        U_i = expm_hermitian_i(A, np.pi)
        for U_k, _, plan in generate_approx_unitaries(A, cfg):
            assert np.max(np.abs(U_k - U_i)) < 1e-8
            assert plan.residual == 0.0

    def test_rounding_defect_recorded(self, rng):
        A, _, _ = make_problem(rng)
        cfg = SearConfig(lambdas=(0.3,), perturbation=0.0, seed=0)
        (U_k, _, _), = generate_approx_unitaries(A, cfg)
        # tau = round(1/0.3) = 3, so the result is e^{i pi 0.9 A}, not U_i
        assert np.max(np.abs(U_k - expm_hermitian_i(A, np.pi * 0.9))) < 1e-8

    def test_determinism(self, rng):
        A, _, _ = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2, 0.125), perturbation=1e-2, seed=5)
        l1 = generate_approx_unitaries(A, cfg)
        l2 = generate_approx_unitaries(A, cfg)
        for (U1, _, _), (U2, _, _) in zip(l1, l2):
            assert np.array_equal(U1, U2)


class TestMeanApproxExpectation:
    def test_identity_observable(self, rng):
        A, psi, _ = make_problem(rng)
        O = Observable(np.eye(4))
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=0.0, seed=0)
        approx = generate_approx_unitaries(A, cfg)
        mean, _ = mean_reconstruction(A, psi, O, approx, cfg.lambdas, cfg)
        assert mean == pytest.approx(1.0, abs=1e-6)

    def test_exact_mode_matches_oracle(self, rng):
        from userkit.oracle import exact_intermediate_expectation

        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=0.0, seed=0)
        approx = generate_approx_unitaries(A, cfg)
        mean, _ = mean_reconstruction(A, psi, O, approx, cfg.lambdas, cfg)
        exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)
        assert mean == pytest.approx(exact, abs=1e-3)

    def test_single_element(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.2,), perturbation=1e-2, seed=2)
        approx = generate_approx_unitaries(A, cfg)
        mean, values = mean_reconstruction(A, psi, O, approx, cfg.lambdas, cfg)
        assert mean == values[0]

    def test_direct_eval_ablation_close_to_reconstruction(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=0.0, seed=0)
        approx = generate_approx_unitaries(A, cfg)
        mean_r, _ = mean_reconstruction(A, psi, O, approx, cfg.lambdas, cfg)
        direct = []
        for U_k, _, _ in approx:
            v = U_k @ psi.amplitudes
            direct.append(float(np.real(v.conj() @ O.matrix @ v)))
        assert mean_r == pytest.approx(np.mean(direct), abs=1e-3)


class TestEstimateNoiseStrength:
    def test_exact_mode_zero(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=0.0, seed=0)
        approx = generate_approx_unitaries(A, cfg)
        mean_eps, per_k = estimate_noise_strength(approx, haar_twirl_set(4, 20, 1), psi, O)
        assert abs(mean_eps) < 1e-6
        assert all(abs(e) < 1e-6 for e in per_k)

    def test_duplicate_members_zero(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.2, 0.2), perturbation=1e-2, seed=3)
        approx = generate_approx_unitaries(A, cfg)
        dup = [approx[0], approx[0]]
        mean_eps, per_k = estimate_noise_strength(dup, haar_twirl_set(4, 20, 1), psi, O)
        assert abs(mean_eps) < 1e-10

    def test_non_unitary_twirl_member_raises(self, rng):
        from userkit.errors import NotUnitary

        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=4)
        approx = generate_approx_unitaries(A, cfg)
        twirl_set = haar_twirl_set(4, 5, 1) + [1.1 * np.eye(4)]
        with pytest.raises(NotUnitary):
            estimate_noise_strength(approx, twirl_set, psi, O)

    def test_zero_spread_non_unitary_twirl_member_raises(self, rng):
        # the explicit set is checked before the zero-spread shortcut returns
        from userkit.errors import NotUnitary

        A, psi, _ = make_problem(rng)
        approx = generate_approx_unitaries(A, SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=4))
        with pytest.raises(NotUnitary):
            estimate_noise_strength(approx, [3.0 * np.eye(4)], psi, Observable(2.5 * np.eye(4)))
        assert estimate_noise_strength(approx, [np.eye(4)], psi, Observable(2.5 * np.eye(4))) == (0.0, [0.0, 0.0])

    def test_matches_analytic_twirl(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=4)
        approx = generate_approx_unitaries(A, cfg)
        from userkit.channels import twirl_discrete

        twirl_set = haar_twirl_set(4, 500, 8)
        mean_eps, per_k = estimate_noise_strength(approx, twirl_set, psi, O)
        unitaries = [U for U, _, _ in approx]
        for k, eps_k in enumerate(per_k):
            an = twirl_analytic(unitaries[k], unitaries)
            est = twirl_discrete(sear_error_channel(unitaries[k], unitaries), twirl_set, psi, O)
            assert eps_k == pytest.approx(est.epsilon, abs=1e-12)
            # small eps is dominated by the O(1/sqrt(n_t)) twirl fluctuation
            assert abs(eps_k - an.epsilon) <= 3.0 * est.stderr + 1e-10


class TestSearConfig:
    @pytest.mark.parametrize("lambdas", [("0.2", "0.1"), (0.25, True), 0.25, (0.25, float("nan")), (10**400,)])
    def test_lambdas_must_be_finite_numbers(self, lambdas):
        with pytest.raises(ValueError, match="lambdas"):
            SearConfig(lambdas=lambdas)

    def test_numpy_lambdas_accepted(self):
        assert SearConfig(lambdas=np.array([0.25, 0.2])).lambdas == (0.25, 0.2)
        assert SearConfig(lambdas=[np.float64(0.25), 0.2]).lambdas == (0.25, 0.2)


class TestHaarNoiseStrength:
    def test_is_the_closed_form_per_member(self, rng):
        # twirl_set None is the Haar measure: per member, the closed-form twirl
        # of the defect channel, whatever the probe and observable
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2, 0.13), perturbation=1e-2, seed=4)
        approx = generate_approx_unitaries(A, cfg)
        unitaries = [U for U, _, _ in approx]
        mean_eps, per_k = estimate_noise_strength(approx, None, psi, O)
        assert per_k == [twirl_analytic(U, unitaries).epsilon for U in unitaries]
        assert mean_eps == float(np.mean(per_k)) and min(per_k) > 0.0
        other_psi, other_O = PureState(random_state(rng, 4)), Observable(random_hermitian(rng, 4))
        assert estimate_noise_strength(approx, None, other_psi, other_O) == (mean_eps, per_k)

    def test_non_unitary_member_raises(self, rng):
        from userkit.errors import NotUnitary

        A, psi, O = make_problem(rng)
        approx = generate_approx_unitaries(A, SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=4))
        bad = [(1.1 * approx[0][0],) + approx[0][1:], approx[1]]
        with pytest.raises(NotUnitary):
            estimate_noise_strength(bad, None, psi, O)

    def test_zero_spread_observable(self, rng):
        # the closed form needs no probe, so a zero-spread run reports it (its error bar is 0)
        A, psi, _ = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=0)
        res = run_sear(A, psi, Observable(np.eye(4)), None, cfg)
        approx = generate_approx_unitaries(A, cfg)
        assert res.noise_strength == estimate_noise_strength(approx, None, psi, Observable(np.eye(4)))[0] > 0.0
        assert res.error_bar == 0.0


class TestRunSear:
    def test_exact_mode_end_to_end(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2, 0.125, 0.1), perturbation=0.0, seed=0)
        res = run_sear(A, psi, O, haar_twirl_set(4, 50, 2), cfg)
        assert abs(res.mean_value - res.exact_value) <= 1e-3
        assert abs(res.error_bar) <= 1e-4

    def test_identity_observable_zero_spread(self, rng):
        A, psi, _ = make_problem(rng)
        O = Observable(np.eye(4))
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=0)
        res = run_sear(A, psi, O, haar_twirl_set(4, 20, 2), cfg)
        assert res.spread == pytest.approx(0.0, abs=1e-12)
        assert res.error_bar == pytest.approx(0.0, abs=1e-12)

    def test_members_are_user_reconstruct(self, rng):
        # run_sear reconstructs each member with user_reconstruct, at the band
        # slack of its pulses, on the grid required_n_l sizes from that slack
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.13, 0.3), perturbation=1e-2, seed=2)
        res = run_sear(A, psi, O, haar_twirl_set(4, 20, 2), cfg)
        for rec, (_, U_sd, _) in zip(res.per_sample, generate_approx_unitaries(A, cfg)):
            assert rec.delta == band_slack(spread_of(A), rec.lam, cfg.n_s, cfg.perturbation)
            value, samples = user_reconstruct(psi, O, U_sd, rec.lam, rec.delta)
            assert rec.value == value
            assert np.array_equal(rec.samples, samples)
            assert samples.size == 2 * required_n_l(rec.lam, rec.delta) + 1

    def test_error_bar_identity(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=1)
        res = run_sear(A, psi, O, haar_twirl_set(4, 30, 2), cfg)
        assert res.error_bar == res.noise_strength * res.spread

    def test_scalar_target_runs(self, rng):
        # A proportional to the identity has no eigenvalue gap; U_sd only shifts a
        # global phase, so every member reads <psi|O|psi>
        _, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.13), perturbation=0.0, seed=0)
        res = run_sear(0.5 * np.eye(4, dtype=complex), psi, O, None, cfg)
        direct = float(np.real(psi.amplitudes.conj() @ O.matrix @ psi.amplitudes))
        assert abs(res.mean_value - direct) <= 1e-12 * res.spread
        assert res.exact_value == pytest.approx(direct, abs=1e-12 * res.spread)

    def test_exact_mode_per_sample_collapse(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2, 0.125), perturbation=0.0, seed=0)
        res = run_sear(A, psi, O, haar_twirl_set(4, 20, 2), cfg)
        values = [s.value for s in res.per_sample]
        assert max(values) - min(values) < 1e-6

    def test_permutation_invariance_of_mean(self, rng):
        A, psi, O = make_problem(rng)
        twirl = haar_twirl_set(4, 30, 2)
        cfg1 = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=6)
        approx = generate_approx_unitaries(A, cfg1)
        m1, _ = mean_reconstruction(A, psi, O, approx, cfg1.lambdas, cfg1)
        e1, _ = estimate_noise_strength(approx, twirl, psi, O)
        m2, _ = mean_reconstruction(A, psi, O, approx[::-1], cfg1.lambdas[::-1], cfg1)
        e2, _ = estimate_noise_strength(approx[::-1], twirl, psi, O)
        assert abs(m1 - m2) < 1e-12
        assert abs(e1 - e2) < 1e-12

    def test_noise_monotonic_in_perturbation(self, rng):
        # median over seeds of the estimated noise strength must not decrease
        medians = []
        twirl = haar_twirl_set(4, 40, 3)
        for p in (0.0, 1e-3, 1e-2, 1e-1):
            eps = []
            for seed in range(8):
                loc = np.random.default_rng(1000 + seed)
                A, psi, O = make_problem(loc)
                cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=p, seed=seed)
                approx = generate_approx_unitaries(A, cfg)
                e, _ = estimate_noise_strength(approx, twirl, psi, O)
                eps.append(e)
            medians.append(np.median(eps))
        assert all(b >= a - 1e-9 for a, b in zip(medians, medians[1:]))


class TestBandSlack:
    @pytest.mark.parametrize("n_s", [1, 4])
    @pytest.mark.parametrize("perturbation", [0.0, 1e-2, 1e-1])
    def test_bounds_phase_spread_of_designed_unitary(self, perturbation, n_s):
        # pi - band_slack bounds the circular phase spread of design_sequence's
        # U_sd, and is that spread at zero perturbation
        rng = np.random.default_rng(1200 + n_s)
        for seed in range(12):
            d = (2, 4, 8, 16)[seed % 4]
            H = random_hermitian(rng, d)
            A = H / np.max(np.abs(np.linalg.eigvalsh(H)))  # spectral radius 1
            lam = float(rng.uniform(0.05, 0.45))
            U_sd = approx_discretization_unitary(design_sequence(A, lam, perturbation, seed=seed, n_s=n_s))
            bound = np.pi - band_slack(spread_of(A), lam, n_s, perturbation)
            assert bound == pytest.approx(np.pi * lam * spread_of(A) + 2 * n_s * perturbation, abs=1e-15)
            assert circular_phase_spread(U_sd) <= bound + 1e-12
            if perturbation == 0.0:
                assert circular_phase_spread(U_sd) >= bound - 1e-12


class TestNoiseStageInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_a=st.integers(1, 5),
        scale=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_is_the_channel_twirl(self, d, n_a, scale, seed):
        # members U_a = e^{i scale H_a} U_i: the overlap form equals F_e read off
        # the Kraus operators of sear_error_channel, and eps is physical
        rng = np.random.default_rng(seed)
        U_i = haar_unitary(d, rng)
        approx = [expm_hermitian_i(random_hermitian(rng, d), scale) @ U_i for _ in range(n_a)]
        F_e = sum(abs(np.trace(K)) ** 2 for K in sear_error_channel(U_i, approx).kraus) / d**2
        eps = twirl_analytic(U_i, approx).epsilon
        assert eps == pytest.approx(max(0.0, d**2 * (1.0 - F_e) / (d**2 - 1.0)), abs=1e-12)
        assert 0.0 <= eps <= d**2 / (d**2 - 1.0)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 6), perturbation=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
    def test_run_sear_error_bar(self, d, perturbation, seed):
        rng = np.random.default_rng(seed)
        A, psi, O = make_problem(rng, d)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=perturbation, seed=seed % 1000, n_s=1)
        res = run_sear(A, psi, O, None, cfg)
        per_k = [rec.epsilon for rec in res.per_sample]
        assert res.noise_strength == float(np.mean(per_k))
        assert res.error_bar == res.noise_strength * res.spread
