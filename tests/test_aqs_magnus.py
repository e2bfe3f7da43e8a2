import numpy as np
import pytest
import scipy.linalg

from userkit.aqs_magnus import (
    EvolutionSpec,
    HamiltonianFamily,
    approx_discretization_unitary,
    design_sequence,
    design_sequence_drive_fit,
    magnus_omega1,
    magnus_omega2,
    magnus_truncated,
    time_ordered_evolve,
)
from userkit.errors import SpectrumOutOfRange, UnsupportedOrder
from userkit.lattice import LatticeSpec, build_lattice_family
from userkit.matrix_core import expm_hermitian_i, is_unitary
from conftest import random_hermitian, random_target_A

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1j], [1j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def constant_family(H):
    return HamiltonianFamily(dim=H.shape[0], generator=lambda g, t: H, label="const")


def linear_drive_family():
    # H(t) = X + t Z: the standard non-commuting benchmark
    return HamiltonianFamily(dim=2, generator=lambda g, t: X + t * Z, label="X+tZ")


class TestTimeOrderedEvolve:
    def test_time_independent(self, rng):
        H = random_hermitian(rng, 4)
        fam = constant_family(H)
        U = time_ordered_evolve(fam, EvolutionSpec(gamma=0.0, t_final=0.7, n_steps=256))
        assert np.max(np.abs(U - scipy.linalg.expm(-0.7j * H))) < 1e-8

    def test_commuting_family(self, rng):
        H0 = random_hermitian(rng, 3)
        fam = HamiltonianFamily(dim=3, generator=lambda g, t: np.sin(t) * H0)
        U = time_ordered_evolve(fam, EvolutionSpec(gamma=0.0, t_final=np.pi, n_steps=512))
        # integral of sin over [0, pi] is 2
        assert np.max(np.abs(U - scipy.linalg.expm(-2j * H0))) < 1e-5

    def test_short_time_identity(self, rng):
        fam = constant_family(random_hermitian(rng, 2))
        U = time_ordered_evolve(fam, EvolutionSpec(gamma=0.0, t_final=1e-9, n_steps=16))
        assert np.max(np.abs(U - np.eye(2))) < 1e-8

    def test_second_order_halving(self):
        spec = LatticeSpec(n_sites=16, drive_omega=3.0)
        fam = build_lattice_family(spec)
        ref = time_ordered_evolve(fam, EvolutionSpec(gamma=3.0, t_final=1.0, n_steps=1024))
        e1 = np.linalg.norm(
            time_ordered_evolve(fam, EvolutionSpec(gamma=3.0, t_final=1.0, n_steps=64)) - ref, 2
        )
        e2 = np.linalg.norm(
            time_ordered_evolve(fam, EvolutionSpec(gamma=3.0, t_final=1.0, n_steps=128)) - ref, 2
        )
        assert 2.5 < e1 / e2 < 5.5  # second-order integrator: ratio ~ 4


class TestOmega1:
    def test_constant(self, rng):
        H = random_hermitian(rng, 3)
        out = magnus_omega1(constant_family(H), 0.0, 0.8, n_steps=64)
        assert np.max(np.abs(out + 0.8 * H)) < 1e-12

    def test_sine_envelope(self, rng):
        H0 = random_hermitian(rng, 2)
        fam = HamiltonianFamily(dim=2, generator=lambda g, t: np.sin(t) * H0)
        out = magnus_omega1(fam, 0.0, np.pi, n_steps=1024)
        assert np.max(np.abs(out + 2.0 * H0)) < 1e-5

    def test_short_time_zero(self, rng):
        out = magnus_omega1(constant_family(random_hermitian(rng, 2)), 0.0, 1e-12, n_steps=16)
        assert np.max(np.abs(out)) < 1e-11


class TestOmega2:
    def test_commuting_zero(self, rng):
        H0 = random_hermitian(rng, 3)
        fam = HamiltonianFamily(dim=3, generator=lambda g, t: np.sin(t) * H0)
        assert np.max(np.abs(magnus_omega2(fam, 0.0, 1.0, 256))) < 1e-10

    def test_linear_drive_closed_form(self):
        # H(t) = X + t Z gives Omega_2 = -(t^3/6) Y
        t = 0.9
        out = magnus_omega2(linear_drive_family(), 0.0, t, n_steps=2048)
        assert np.max(np.abs(out + (t**3 / 6.0) * Y)) < 1e-6

    def test_short_time_zero(self):
        out = magnus_omega2(linear_drive_family(), 0.0, 1e-6, n_steps=16)
        assert np.max(np.abs(out)) < 1e-12

    def test_hermitian(self):
        out = magnus_omega2(linear_drive_family(), 0.0, 1.3, n_steps=256)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestMagnusTruncated:
    def test_kappa1_constant(self, rng):
        H = random_hermitian(rng, 2)
        M = magnus_truncated(constant_family(H), 0.0, 0.5, 1, n_steps=64)
        assert M.order == 1
        assert np.max(np.abs(M.matrix + 0.5 * H)) < 1e-12

    def test_kappa2_commuting_equals_kappa1(self, rng):
        H0 = random_hermitian(rng, 3)
        fam = HamiltonianFamily(dim=3, generator=lambda g, t: np.cos(t) * H0)
        M1 = magnus_truncated(fam, 0.0, 0.8, 1, n_steps=512).matrix
        M2 = magnus_truncated(fam, 0.0, 0.8, 2, n_steps=512).matrix
        assert np.max(np.abs(M1 - M2)) < 1e-10

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            magnus_truncated(linear_drive_family(), 0.0, 0.1, 3)

    def test_convergence_order_kappa2(self):
        # For smooth drives [H(t1), H(t2)] = O(|t1 - t2|), so the kappa=2
        # defect is at least O(t^3); for X + tZ the measured slope is ~5.
        fam = linear_drive_family()
        ts = [0.2, 0.1, 0.05, 0.025]
        errs = []
        for t in ts:
            U_ref = time_ordered_evolve(fam, EvolutionSpec(gamma=0.0, t_final=t, n_steps=1024))
            M = magnus_truncated(fam, 0.0, t, 2, n_steps=1024).matrix
            errs.append(np.linalg.norm(expm_hermitian_i(M, 1.0) - U_ref, 2))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope >= 2.7


class TestDesignSequence:
    def test_exact_mode(self, rng):
        A = random_target_A(rng, 4)
        plan = design_sequence(A, 0.25, 2, perturbation=0.0, seed=1)
        assert plan.residual == 0.0
        U = approx_discretization_unitary(plan)
        assert np.max(np.abs(U - expm_hermitian_i(A, np.pi * 0.25))) < 1e-8

    def test_residual_bound(self, rng):
        A = random_target_A(rng, 4)
        plan = design_sequence(A, 0.25, 2, perturbation=1e-3, seed=5, n_s=4)
        assert plan.residual <= 4e-3

    def test_determinism(self, rng):
        A = random_target_A(rng, 3)
        p1 = design_sequence(A, 0.2, 2, perturbation=1e-2, seed=9)
        p2 = design_sequence(A, 0.2, 2, perturbation=1e-2, seed=9)
        for M1, M2 in zip(p1.magnus_terms, p2.magnus_terms):
            assert np.array_equal(M1, M2)
        assert p1.residual == p2.residual

    def test_spectrum_out_of_range(self, rng):
        with pytest.raises(SpectrumOutOfRange):
            design_sequence(2.0 * np.eye(2), 0.25, 2, 0.0, 0)


class TestApproxDiscretizationUnitary:
    def test_always_unitary(self, rng):
        A = random_target_A(rng, 4)
        for p in (0.0, 1e-3, 0.1, 1.0):
            plan = design_sequence(A, 0.2, 2, perturbation=p, seed=3)
            assert is_unitary(approx_discretization_unitary(plan))

    def test_defect_scales_with_perturbation(self, rng):
        A = random_target_A(rng, 4)
        exact = expm_hermitian_i(A, np.pi * 0.2)
        for p in (1e-3, 1e-2):
            plan = design_sequence(A, 0.2, 2, perturbation=p, seed=3)
            dist = np.linalg.norm(approx_discretization_unitary(plan) - exact, 2)
            assert dist <= 5.0 * p  # empirical constant ~1, generous factor

    def test_single_member_commuting(self, rng):
        # commuting family: kappa=2 Magnus is exact, so the member's
        # exponential equals the time-ordered evolution
        H0 = random_hermitian(rng, 3, scale=0.3)
        fam = HamiltonianFamily(dim=3, generator=lambda g, t: np.sin(t) * H0)
        M = magnus_truncated(fam, 0.0, 0.9, 2, n_steps=1024).matrix
        U_direct = time_ordered_evolve(fam, EvolutionSpec(gamma=0.0, t_final=0.9, n_steps=1024))
        assert np.max(np.abs(expm_hermitian_i(M, 1.0) - U_direct)) < 1e-6


class TestDriveFit:
    def test_residual_reported_and_members_simulable(self):
        spec = LatticeSpec(n_sites=4, drive_omega=2.0)
        fam = build_lattice_family(spec)
        from userkit.lattice import build_target_hamiltonian, target_A_from_hamiltonian

        A, _ = target_A_from_hamiltonian(build_target_hamiltonian(spec), 0.5)
        plan = design_sequence_drive_fit(fam, A, 0.2, 2, n_s=2, seed=0, n_steps=64, max_iter=150)
        assert plan.specs is not None and len(plan.specs) == 2
        assert plan.residual >= 0.0
        target = np.pi * 0.2 * A
        assert np.linalg.norm(sum(plan.magnus_terms) - target, 2) == pytest.approx(
            plan.residual, rel=1e-6
        )
        assert is_unitary(approx_discretization_unitary(plan))
