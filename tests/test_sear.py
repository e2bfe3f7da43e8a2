import numpy as np
import pytest

from userkit.channels import haar_unitary
from userkit.matrix_core import expm_hermitian_i
from userkit.sear import (
    SearConfig,
    estimate_noise_strength,
    generate_approx_unitaries,
    reconstruct_members,
    run_sear,
)
from userkit.user_recon import Observable, PureState
from conftest import random_hermitian, random_state, random_target_A


def make_problem(rng, d=4):
    A = random_target_A(rng, d)
    psi = PureState(random_state(rng, d))
    O = Observable(random_hermitian(rng, d))
    return A, psi, O


def haar_twirl_set(d, n, seed):
    rng = np.random.default_rng(seed)
    return [haar_unitary(d, rng) for _ in range(n)]


def mean_reconstruction(psi, O, approx, cfg):
    values = [value for value, _ in reconstruct_members(psi, O, approx, cfg)]
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
        mean, _ = mean_reconstruction(psi, O, approx, cfg)
        assert mean == pytest.approx(1.0, abs=1e-6)

    def test_exact_mode_matches_oracle(self, rng):
        from userkit.oracle import exact_intermediate_expectation

        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=0.0, seed=0)
        approx = generate_approx_unitaries(A, cfg)
        mean, _ = mean_reconstruction(psi, O, approx, cfg)
        exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)
        assert mean == pytest.approx(exact, abs=1e-3)

    def test_single_element(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.2,), perturbation=1e-2, seed=2)
        approx = generate_approx_unitaries(A, cfg)
        mean, values = mean_reconstruction(psi, O, approx, cfg)
        assert mean == values[0]

    def test_direct_eval_ablation_close_to_reconstruction(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=0.0, seed=0)
        approx = generate_approx_unitaries(A, cfg)
        mean_r, _ = mean_reconstruction(psi, O, approx, cfg)
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

    def test_matches_analytic_twirl(self, rng):
        from userkit.channels import complementary_error_channel, twirl_analytic

        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=4)
        approx = generate_approx_unitaries(A, cfg)
        from userkit.channels import twirl_discrete

        twirl_set = haar_twirl_set(4, 500, 8)
        mean_eps, per_k = estimate_noise_strength(approx, twirl_set, psi, O)
        unitaries = [U for U, _, _ in approx]
        for k, eps_k in enumerate(per_k):
            ch = complementary_error_channel(unitaries, k)
            an = twirl_analytic(ch)
            est = twirl_discrete(ch, twirl_set, psi, O)
            assert eps_k == pytest.approx(est.epsilon, abs=1e-12)
            # small eps is dominated by the O(1/sqrt(n_t)) twirl fluctuation
            assert abs(eps_k - an.epsilon) <= 3.0 * est.stderr + 1e-10


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

    def test_error_bar_identity(self, rng):
        A, psi, O = make_problem(rng)
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-2, seed=1)
        res = run_sear(A, psi, O, haar_twirl_set(4, 30, 2), cfg)
        assert res.error_bar == res.noise_strength * res.spread

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
        m1, _ = mean_reconstruction(psi, O, approx, cfg1)
        e1, _ = estimate_noise_strength(approx, twirl, psi, O)
        m2, _ = mean_reconstruction(psi, O, approx[::-1], cfg1)
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
