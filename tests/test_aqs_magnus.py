import numpy as np
import pytest
import scipy.linalg

from userkit import matrix_core
from userkit.aqs_magnus import (
    EvolutionSpec,
    HamiltonianFamily,
    design_sequence,
    magnus_omega1,
    magnus_omega2,
    magnus_truncated,
    time_ordered_evolve,
)
from userkit.config import TWIRL_STEPS, _simulable_twirl_set, _twirl_drives, preset_config, resolve_config
from userkit.errors import NotHermitian, SpectrumOutOfRange, UnsupportedOrder
from userkit.lattice import LatticeSpec, build_lattice_family
from userkit.matrix_core import (
    BLOCK_ENTRIES,
    PRODUCT_ENTRIES,
    expm_hermitian_i,
    expm_product,
    hermiticity_defect,
    unitary_stack,
)
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
        assert BLOCK_ENTRIES // 24**2 == 7 and BLOCK_ENTRIES // 96**2 == 0
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

    @pytest.mark.parametrize("n_sites, n_t", [(24, 7), (96, 3)])
    def test_array_spec_equals_float_specs(self, n_sites, n_t):
        # a pool holds PRODUCT_ENTRIES // (16 d^2) evolutions: at d=24 it
        # holds 3, so 7 members end in a pool that is not filled; at d=96 one
        assert PRODUCT_ENTRIES // (16 * 24**2) == 3 and PRODUCT_ENTRIES // (16 * 96**2) == 0
        r = dict(preset_config("noisy-16").raw, twirl_mode="simulable", n_t=n_t, n_sites=n_sites)
        fam = build_lattice_family(resolve_config(r).lattice)
        gamma, t = np.array(_twirl_drives(r)).T
        U = time_ordered_evolve(fam, EvolutionSpec(gamma=gamma, t_final=t, n_steps=16))
        assert U.shape == (n_t, n_sites, n_sites)
        for k in range(n_t):
            assert np.array_equal(U[k], time_ordered_evolve(fam, EvolutionSpec(gamma[k], t[k], n_steps=16)))

    def test_number_and_array_broadcast(self):
        fam = linear_drive_family()
        t = np.array([0.3, 0.7, 1.1])
        U = time_ordered_evolve(fam, EvolutionSpec(gamma=6.5, t_final=t, n_steps=40))
        V = time_ordered_evolve(fam, EvolutionSpec(gamma=np.array([6.5]), t_final=0.7, n_steps=40))
        assert U.shape == (3, 2, 2) and V.shape == (1, 2, 2)
        for k in range(3):
            assert np.array_equal(U[k], time_ordered_evolve(fam, EvolutionSpec(6.5, float(t[k]), n_steps=40)))
        assert np.array_equal(V[0], U[1])

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


class TestEvolutionSpec:
    """The spec checks what it is given, on construction."""

    @pytest.mark.parametrize("n_steps", [16.5, 16.0, True, "16", np.float64(32.0)])
    def test_n_steps_must_be_an_int(self, n_steps):
        # 16.5 steps would take 17 steps of t/16.5
        with pytest.raises(ValueError, match="int"):
            EvolutionSpec(gamma=1.0, t_final=1.0, n_steps=n_steps)

    def test_numpy_int_n_steps_taken(self):
        assert EvolutionSpec(gamma=1.0, t_final=1.0, n_steps=np.int64(16)).n_steps == 16

    @pytest.mark.parametrize("name", ["gamma", "t_final"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, [0.5, np.nan], np.array([np.inf, 0.5]), [[0.5]], "1"])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            EvolutionSpec(**{"gamma": 1.0, "t_final": 1.0, name: bad})

    @pytest.mark.parametrize("t_final", [0.0, -1.0, [0.5, 0.0], np.array([0.5, -0.1, 1.0])])
    def test_non_positive_t_final_rejected(self, t_final):
        with pytest.raises(ValueError, match="positive"):
            EvolutionSpec(gamma=1.0, t_final=t_final, n_steps=16)

    def test_array_lengths_must_agree(self):
        with pytest.raises(ValueError, match="length"):
            EvolutionSpec(gamma=np.array([1.0, 2.0]), t_final=np.array([0.5, 0.6, 0.7]), n_steps=16)

    def test_arrays_stored_as_floats(self):
        spec = EvolutionSpec(gamma=[1, 2], t_final=np.array([0.5, 0.6]), n_steps=16)
        assert spec.gamma.dtype == spec.t_final.dtype == float and spec.gamma.tolist() == [1.0, 2.0]

    def test_constant_family_exact_at_int_steps_only(self, rng):
        # a constant family is integrated exactly at any int step count; 16.5
        # steps would take 17 steps of t/16.5, off by about 7.6e-3, and is refused
        H = random_hermitian(rng, 4)
        U = time_ordered_evolve(constant_family(H), EvolutionSpec(gamma=0.0, t_final=0.7, n_steps=17))
        assert np.max(np.abs(U - scipy.linalg.expm(-0.7j * H))) < 1e-13
        with pytest.raises(ValueError, match="int"):
            EvolutionSpec(gamma=0.0, t_final=0.7, n_steps=16.5)


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

        monkeypatch.setattr(matrix_core, "expm_hermitian_i", counting)
        r = self.raw()
        members = _simulable_twirl_set(r, resolve_config(r).lattice)
        assert len(members) == 64 and TWIRL_STEPS == 16
        assert sum(slices) == 64 * TWIRL_STEPS

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_per_member_evolutions(self, seed):
        # one array-spec evolution of the whole set, against each member's own
        # evolution from numbers
        r = self.raw(seed)
        lattice = resolve_config(r).lattice
        fam = build_lattice_family(lattice)
        members = _simulable_twirl_set(r, lattice)
        for member, (gamma, t) in zip(members, _twirl_drives(r), strict=True):
            assert np.array_equal(member, time_ordered_evolve(fam, EvolutionSpec(gamma, t, n_steps=TWIRL_STEPS)))

    def test_pools_members_into_full_blocks(self, monkeypatch):
        # seed 1's set: 8 pools of 8 members x 16 steps, one `expm_hermitian_i`
        # call each, whose Taylor plans run in 75 `_taylor` calls of at most
        # one block (the members one at a time took 64 and 154)
        taylor_sizes, expm_sizes = [], []
        taylor, expm = matrix_core._taylor, matrix_core.expm_hermitian_i

        def counted_taylor(X, q, s):
            taylor_sizes.append(X.shape)
            return taylor(X, q, s)

        def counted_expm(H, scale):
            expm_sizes.append(H.shape)
            return expm(H, scale)

        monkeypatch.setattr(matrix_core, "_taylor", counted_taylor)
        monkeypatch.setattr(matrix_core, "expm_hermitian_i", counted_expm)
        r = self.raw(seed=1)
        members = _simulable_twirl_set(r, resolve_config(r).lattice)
        assert members.shape == (64, 16, 16) and PRODUCT_ENTRIES // (TWIRL_STEPS * 16**2) == 8
        assert expm_sizes == [(8 * TWIRL_STEPS, 16, 16)] * 8
        assert len(taylor_sizes) == 75
        for sizes, limit in ((taylor_sizes, BLOCK_ENTRIES), (expm_sizes, PRODUCT_ENTRIES)):
            assert all(np.prod(shape) <= limit or shape[0] == 1 for shape in sizes)


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
        # with no defect every pulse is the target's share pi lam A / n_s
        A = random_target_A(rng, 4)
        pulses = design_sequence(A, 0.25, perturbation=0.0, seed=1)
        assert np.array_equal(pulses, np.broadcast_to((np.pi * 0.25 / 4) * A, (4, 4, 4)))
        U = expm_product(pulses, 1.0)
        assert np.max(np.abs(U - expm_hermitian_i(A, np.pi * 0.25))) < 1e-8

    def test_residual_bound(self, rng):
        # the pulses of an exactly Hermitian A are exactly Hermitian, and they
        # sum to pi lam A within n_s perturbation in the operator norm
        A = random_target_A(rng, 4)
        A = 0.5 * (A + A.conj().T)
        pulses = design_sequence(A, 0.25, perturbation=1e-3, seed=5, n_s=4)
        assert pulses.shape == (4, 4, 4)
        assert np.array_equal(pulses, pulses.conj().swapaxes(-1, -2))
        assert 0.0 < np.linalg.norm(np.sum(pulses, axis=0) - np.pi * 0.25 * A, 2) <= 4e-3

    def test_determinism(self, rng):
        A = random_target_A(rng, 3)
        p1 = design_sequence(A, 0.2, perturbation=1e-2, seed=9)
        p2 = design_sequence(A, 0.2, perturbation=1e-2, seed=9)
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, design_sequence(A, 0.2, perturbation=1e-2, seed=10))

    def test_spectrum_out_of_range(self, rng):
        # A is checked once per ensemble, where generate_approx_unitaries enters
        with pytest.raises(SpectrumOutOfRange):
            generate_approx_unitaries(2.0 * np.eye(2), SearConfig(lambdas=(0.25,)))


class TestApproxDiscretizationUnitary:
    """A member's U_sd, the ordered product of its designed pulses."""

    def test_always_unitary(self, rng):
        A = random_target_A(rng, 4)
        for p in (0.0, 1e-3, 0.1, 1.0):
            unitary_stack([expm_product(design_sequence(A, 0.2, perturbation=p, seed=3), 1.0)])

    def test_non_hermitian_term_rejected(self):
        # a term is exponentiated as given: one that is not Hermitian raises,
        # it is not Hermitized first
        with pytest.raises(NotHermitian):
            expm_product(np.stack([0.1 * Z, 0.1 * (X + 1j * X)]), 1.0)

    def test_defect_scales_with_perturbation(self, rng):
        A = random_target_A(rng, 4)
        exact = expm_hermitian_i(A, np.pi * 0.2)
        for p in (1e-3, 1e-2):
            dist = np.linalg.norm(expm_product(design_sequence(A, 0.2, perturbation=p, seed=3), 1.0) - exact, 2)
            assert dist <= 5.0 * p  # empirical constant ~1, generous factor

    def test_single_member_commuting(self, rng):
        # commuting family: kappa=2 Magnus is exact, so the member's
        # exponential equals the time-ordered evolution
        H0 = random_hermitian(rng, 3, scale=0.3)
        fam = sine_family(H0)
        M = magnus_truncated(fam, 1.0, 0.9, 2, n_steps=1024)
        U_direct = time_ordered_evolve(fam, EvolutionSpec(gamma=1.0, t_final=0.9, n_steps=1024))
        assert np.max(np.abs(expm_hermitian_i(M, 1.0) - U_direct)) < 1e-6


def test_random_target_A_gives_up(rng):
    # 16 gaps >= 0.1 in [-1, 1] happen with probability ~2e-10: raise, do not hang
    with pytest.raises(ValueError, match="d=16 and min_gap=0.1"):
        random_target_A(rng, 16)
