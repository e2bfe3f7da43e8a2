import numpy as np
import pytest
import scipy.linalg

from userkit import aqs_magnus
from userkit.aqs_magnus import (
    _EVOLVE_BLOCK_ENTRIES,
    EvolutionSpec,
    HamiltonianFamily,
    SequencePlan,
    approx_discretization_unitary,
    design_sequence,
    design_sequence_drive_fit,
    magnus_omega1,
    magnus_omega2,
    magnus_truncated,
    time_ordered_evolve,
)
from userkit.config import TWIRL_STEPS, _simulable_twirl_set, _twirl_drives, preset_config, resolve_config
from userkit.errors import NotHermitian, SpectrumOutOfRange, UnsupportedOrder
from userkit.lattice import LatticeSpec, build_lattice_family
from userkit.matrix_core import expm_hermitian_i, hermiticity_defect, is_unitary
from userkit.sear import SearConfig, generate_approx_unitaries
from conftest import random_hermitian, random_target_A

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1j], [1j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def constant_family(H):
    return HamiltonianFamily(H, np.zeros_like(H))


def sine_family(H0):
    # H(t) = sin(gamma t) H0: commutes with itself at all times
    return HamiltonianFamily(np.zeros_like(H0), H0)


def linear_drive_family():
    # H(t) = X + sin(gamma t) Z: the standard non-commuting benchmark, run at gamma = 1
    return HamiltonianFamily(X, Z)


def omega1_per_slice(fam, gamma, t, n_steps):
    """Reference Omega_1: the midpoint sum of the slice matrices."""
    dt = t / n_steps
    acc = np.zeros((fam.dim, fam.dim), dtype=complex)
    for j in range(n_steps):
        acc += fam.K + np.sin(gamma * ((j + 0.5) * dt)) * fam.V
    return -dt * acc


def omega2_per_slice(fam, gamma, t, n_steps):
    """Reference Omega_2: sum_j [H_j, sum_{l<j} H_l] over the slice matrices."""
    dt = t / n_steps
    acc = np.zeros((fam.dim, fam.dim), dtype=complex)
    partial = np.zeros_like(acc)
    for j in range(n_steps):
        H = fam.K + np.sin(gamma * ((j + 0.5) * dt)) * fam.V
        acc += H @ partial - partial @ H
        partial += H
    return 0.5j * dt * dt * acc


class TestTimeOrderedEvolve:
    def test_time_independent(self, rng):
        # Magnus-4 is exact for a time-independent H: 16 steps give e^{-itH}
        H = random_hermitian(rng, 4)
        fam = constant_family(H)
        U = time_ordered_evolve(fam, EvolutionSpec(gamma=0.0, t_final=0.7, n_steps=16))
        assert np.max(np.abs(U - scipy.linalg.expm(-0.7j * H))) < 1e-12

    def test_commuting_family(self, rng):
        H0 = random_hermitian(rng, 3)
        fam = sine_family(H0)
        U = time_ordered_evolve(fam, EvolutionSpec(gamma=1.0, t_final=np.pi, n_steps=512))
        # integral of sin over [0, pi] is 2
        assert np.max(np.abs(U - scipy.linalg.expm(-2j * H0))) < 1e-5

    def test_short_time_identity(self, rng):
        fam = constant_family(random_hermitian(rng, 2))
        U = time_ordered_evolve(fam, EvolutionSpec(gamma=0.0, t_final=1e-9, n_steps=16))
        assert np.max(np.abs(U - np.eye(2))) < 1e-8

    def test_fourth_order_halving(self):
        spec = LatticeSpec(n_sites=16)
        fam = build_lattice_family(spec)
        ref = time_ordered_evolve(fam, EvolutionSpec(gamma=3.0, t_final=1.0, n_steps=1024))
        e1 = np.linalg.norm(
            time_ordered_evolve(fam, EvolutionSpec(gamma=3.0, t_final=1.0, n_steps=32)) - ref, 2
        )
        e2 = np.linalg.norm(
            time_ordered_evolve(fam, EvolutionSpec(gamma=3.0, t_final=1.0, n_steps=64)) - ref, 2
        )
        assert 12.0 < e1 / e2 < 20.0  # fourth-order integrator: ratio ~ 16

    @pytest.mark.parametrize(
        "d, n_steps", [(2, 16), (2, 40), (16, 40), (16, 128), (24, 16), (24, 21), (24, 22), (96, 16)]
    )
    def test_equals_per_slice_product(self, d, n_steps):
        # each slice of [0, t] is one Magnus-4 step; at d=24 a block holds 7:
        # 16, 21 and 22 steps end inside a block, on its boundary and one step
        # past it; at d=96 it holds one
        assert _EVOLVE_BLOCK_ENTRIES // 24**2 == 7 and _EVOLVE_BLOCK_ENTRIES // 96**2 == 0
        fam = linear_drive_family() if d == 2 else build_lattice_family(LatticeSpec(n_sites=d))
        spec = EvolutionSpec(gamma=6.5, t_final=0.7, n_steps=n_steps)
        h = spec.t_final / n_steps
        ref = np.eye(d, dtype=complex)
        for j in range(n_steps):
            s1 = np.sin(spec.gamma * (j * h + (0.5 - np.sqrt(3.0) / 6.0) * h))
            s2 = np.sin(spec.gamma * (j * h + (0.5 + np.sqrt(3.0) / 6.0) * h))
            c = (np.sqrt(3.0) / 12.0) * h * h * (s2 - s1)
            G = h * fam.K + (0.5 * h * (s1 + s2)) * fam.V + c * fam.iKV
            ref = expm_hermitian_i(G, -1.0) @ ref
        assert np.array_equal(time_ordered_evolve(fam, spec), ref)

    def test_non_hermitian_generator_rejected(self):
        # the family's matrices are checked once, on construction
        with pytest.raises(NotHermitian):
            HamiltonianFamily(X, 1j * Z)

    def test_nan_generator_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            HamiltonianFamily(X, np.nan * Z)

    def test_wrong_shape_generator_rejected(self):
        with pytest.raises(ValueError, match="square"):
            HamiltonianFamily(np.ones((2, 3)), np.ones((2, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            HamiltonianFamily(X, np.eye(3))

    def test_family_fields_and_dim(self):
        fam = HamiltonianFamily(X, Z)
        assert fam.dim == 2 and fam.K.dtype == complex and np.array_equal(fam.V, Z)
        # i[X, Z] = i(-2iY) = 2Y
        assert np.array_equal(fam.iKV, 2.0 * Y)


class TestSimulableTwirlSet:
    """The twirl set `twirl_mode: simulable` builds, on the `simulable-twirl`
    benchmark config (`noisy-16` with n_t = 64)."""

    @staticmethod
    def raw(seed=1):
        return dict(preset_config("noisy-16").raw, twirl_mode="simulable", n_t=64, seed=seed)

    def test_members_match_independent_reference(self):
        # the first member and the one of largest gamma t, against a 4096-step
        # midpoint product of scipy exponentials, within TWIRL_STEPS' stated 7.8e-5
        r = self.raw()
        lattice = resolve_config(r).lattice
        fam = build_lattice_family(lattice)
        members = _simulable_twirl_set(r, lattice)
        drives = _twirl_drives(r)
        hardest = int(np.argmax([gamma * t for gamma, t in drives]))
        for i in (0, hardest):
            gamma, t = drives[i]
            n = 4096
            dt = t / n
            ref = np.eye(fam.dim, dtype=complex)
            for j in range(n):
                ref = scipy.linalg.expm(-1j * dt * (fam.K + np.sin(gamma * (j + 0.5) * dt) * fam.V)) @ ref
            assert np.linalg.norm(members[i] - ref, 2) < 7.8e-5

    def test_exponentiates_n_t_times_twirl_steps(self, monkeypatch):
        slices = []

        def counting(H, scale):
            slices.append(H.shape[0] if H.ndim == 3 else 1)
            return expm_hermitian_i(H, scale)

        monkeypatch.setattr(aqs_magnus, "expm_hermitian_i", counting)
        r = self.raw()
        members = _simulable_twirl_set(r, resolve_config(r).lattice)
        assert len(members) == 64 and TWIRL_STEPS == 16
        assert sum(slices) == 64 * TWIRL_STEPS


class TestOmega1:
    def test_constant(self, rng):
        H = random_hermitian(rng, 3)
        out = magnus_omega1(constant_family(H), 0.0, 0.8, n_steps=64)
        assert np.max(np.abs(out + 0.8 * H)) < 1e-12

    def test_sine_envelope(self, rng):
        H0 = random_hermitian(rng, 2)
        out = magnus_omega1(sine_family(H0), 1.0, np.pi, n_steps=1024)
        assert np.max(np.abs(out + 2.0 * H0)) < 1e-5

    def test_short_time_zero(self, rng):
        out = magnus_omega1(constant_family(random_hermitian(rng, 2)), 0.0, 1e-12, n_steps=16)
        assert np.max(np.abs(out)) < 1e-11

    def test_hermiticity_defect_above_tol_eig_rejected(self):
        # a defect of 1e-9 is ten times TOL_EIG, the bound every other matrix is held to
        K = X + 0.5e-9 * (X @ Z)
        assert hermiticity_defect(K) == pytest.approx(1e-9)
        with pytest.raises(NotHermitian):
            HamiltonianFamily(K, Z)
        with pytest.raises(NotHermitian):
            HamiltonianFamily(Z, K)


class TestOmega2:
    def test_commuting_zero(self, rng):
        H0 = random_hermitian(rng, 3)
        assert np.max(np.abs(magnus_omega2(sine_family(H0), 1.0, 1.0, 256))) < 1e-10

    def test_linear_drive_closed_form(self):
        # H(t) = X + sin(gamma t) Z gives Omega_2 = c(t) Y with
        # c = t/gamma - 2 sin(gamma t)/gamma^2 + t cos(gamma t)/gamma
        g, t = 1.0, 0.9
        c = t / g - 2.0 * np.sin(g * t) / g**2 + t * np.cos(g * t) / g
        out = magnus_omega2(linear_drive_family(), g, t, n_steps=2048)
        assert np.max(np.abs(out - c * Y)) < 1e-6

    def test_short_time_zero(self):
        out = magnus_omega2(linear_drive_family(), 1.0, 1e-6, n_steps=16)
        assert np.max(np.abs(out)) < 1e-12

    def test_hermitian(self):
        out = magnus_omega2(linear_drive_family(), 1.0, 1.3, n_steps=256)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestScalarSums:
    """The closed forms equal the per-slice matrix sums they replace."""

    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize(
        "gamma, t, n_steps", [(0.0, 0.8, 64), (1.0, 0.9, 512), (6.5, 0.7, 21), (8.0, 1.0, 128), (3.0, 2.5, 1024)]
    )
    def test_matches_per_slice_loops(self, rng, d, gamma, t, n_steps):
        fam = HamiltonianFamily(random_hermitian(rng, d), random_hermitian(rng, d))
        ref1 = omega1_per_slice(fam, gamma, t, n_steps)
        out1 = magnus_omega1(fam, gamma, t, n_steps)
        assert np.linalg.norm(out1 - ref1) <= 1e-13 * np.linalg.norm(ref1)
        ref2 = omega2_per_slice(fam, gamma, t, n_steps)
        out2 = magnus_omega2(fam, gamma, t, n_steps)
        # at gamma = 0 the family is constant and the loop's Omega_2 is pure
        # rounding: measure it against the scale t^2 |[K, V]| of the term
        scale = np.linalg.norm(ref2) if gamma else t**2 * np.linalg.norm(fam.K @ fam.V - fam.V @ fam.K)
        assert np.linalg.norm(out2 - ref2) <= 1e-13 * scale


class TestMagnusTruncated:
    def test_kappa1_constant(self, rng):
        H = random_hermitian(rng, 2)
        M = magnus_truncated(constant_family(H), 0.0, 0.5, 1, n_steps=64)
        assert np.max(np.abs(M + 0.5 * H)) < 1e-12

    def test_kappa2_commuting_equals_kappa1(self, rng):
        fam = sine_family(random_hermitian(rng, 3))
        M1 = magnus_truncated(fam, 1.0, 0.8, 1, n_steps=512)
        M2 = magnus_truncated(fam, 1.0, 0.8, 2, n_steps=512)
        assert np.max(np.abs(M1 - M2)) < 1e-10

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            magnus_truncated(linear_drive_family(), 0.0, 0.1, 3)

    def test_convergence_order_kappa2(self):
        # For smooth drives [H(t1), H(t2)] = O(|t1 - t2|), so the kappa=2
        # defect is at least O(t^3); for X + sin(t) Z the measured slope is ~5.
        fam = linear_drive_family()
        ts = [0.2, 0.1, 0.05, 0.025]
        errs = []
        for t in ts:
            U_ref = time_ordered_evolve(fam, EvolutionSpec(gamma=1.0, t_final=t, n_steps=1024))
            M = magnus_truncated(fam, 1.0, t, 2, n_steps=1024)
            errs.append(np.linalg.norm(expm_hermitian_i(M, 1.0) - U_ref, 2))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope >= 2.7


class TestDesignSequence:
    def test_exact_mode(self, rng):
        A = random_target_A(rng, 4)
        plan = design_sequence(A, 0.25, perturbation=0.0, seed=1)
        assert plan.residual == 0.0
        U = approx_discretization_unitary(plan)
        assert np.max(np.abs(U - expm_hermitian_i(A, np.pi * 0.25))) < 1e-8

    def test_residual_bound(self, rng):
        A = random_target_A(rng, 4)
        plan = design_sequence(A, 0.25, perturbation=1e-3, seed=5, n_s=4)
        assert plan.residual <= 4e-3

    def test_determinism(self, rng):
        A = random_target_A(rng, 3)
        p1 = design_sequence(A, 0.2, perturbation=1e-2, seed=9)
        p2 = design_sequence(A, 0.2, perturbation=1e-2, seed=9)
        for M1, M2 in zip(p1.magnus_terms, p2.magnus_terms):
            assert np.array_equal(M1, M2)
        assert p1.residual == p2.residual

    def test_spectrum_out_of_range(self, rng):
        # A is checked once per ensemble, where generate_approx_unitaries enters
        with pytest.raises(SpectrumOutOfRange):
            generate_approx_unitaries(2.0 * np.eye(2), SearConfig(lambdas=(0.25,)))


class TestApproxDiscretizationUnitary:
    def test_always_unitary(self, rng):
        A = random_target_A(rng, 4)
        for p in (0.0, 1e-3, 0.1, 1.0):
            plan = design_sequence(A, 0.2, perturbation=p, seed=3)
            assert is_unitary(approx_discretization_unitary(plan))

    def test_non_hermitian_term_rejected(self):
        # a term is exponentiated as given: one that is not Hermitian raises,
        # it is not Hermitized first
        plan = SequencePlan(magnus_terms=(0.1 * Z, 0.1 * (X + 1j * X)), residual=0.0)
        with pytest.raises(NotHermitian):
            approx_discretization_unitary(plan)

    def test_defect_scales_with_perturbation(self, rng):
        A = random_target_A(rng, 4)
        exact = expm_hermitian_i(A, np.pi * 0.2)
        for p in (1e-3, 1e-2):
            plan = design_sequence(A, 0.2, perturbation=p, seed=3)
            dist = np.linalg.norm(approx_discretization_unitary(plan) - exact, 2)
            assert dist <= 5.0 * p  # empirical constant ~1, generous factor

    def test_single_member_commuting(self, rng):
        # commuting family: kappa=2 Magnus is exact, so the member's
        # exponential equals the time-ordered evolution
        H0 = random_hermitian(rng, 3, scale=0.3)
        fam = sine_family(H0)
        M = magnus_truncated(fam, 1.0, 0.9, 2, n_steps=1024)
        U_direct = time_ordered_evolve(fam, EvolutionSpec(gamma=1.0, t_final=0.9, n_steps=1024))
        assert np.max(np.abs(expm_hermitian_i(M, 1.0) - U_direct)) < 1e-6


class TestDriveFit:
    def test_residual_reported_and_members_simulable(self):
        spec = LatticeSpec(n_sites=4)
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


def test_random_target_A_gives_up(rng):
    # 16 gaps >= 0.1 in [-1, 1] happen with probability ~2e-10: raise, do not hang
    with pytest.raises(ValueError, match="d=16 and min_gap=0.1"):
        random_target_A(rng, 16)
