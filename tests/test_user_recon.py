import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from userkit import user_recon as user_recon_module
from userkit.config import Experiment, preset_config, resolve_config
from userkit.errors import (
    BadLength,
    DegenerateSpectrum,
    DimensionMismatch,
    GridTooLarge,
    InvalidLambda,
    NotHermitian,
    NotNormalized,
    NotUnitary,
)
from userkit.matrix_core import HermitianEig, eig_hermitian, expm_hermitian_i
from userkit.oracle import exact_intermediate_expectation, multiplicative_expectation
from userkit.sear import run_sear
from userkit.user_recon import (
    MAX_GRID_SAMPLES,
    RECON_TOL,
    Observable,
    PureState,
    aliasing_rate,
    phase_separation,
    required_n_l,
    sample_integer_powers,
    sinc_reconstruct,
    spectral_decompose,
    user_reconstruct,
)
from conftest import no_defect_slack, random_hermitian, random_state, random_target_A


def su_from_phases(phases):
    phases = np.asarray(phases, dtype=float)
    return HermitianEig(values=phases, vectors=np.eye(len(phases), dtype=complex))


class TestSpectralDecompose:
    def test_identity(self):
        su = spectral_decompose(np.eye(3))
        assert np.allclose(su.values, 0.0)

    def test_pauli_x(self):
        su = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(np.sort(su.values), [0.0, np.pi])

    def test_phases_match_generator(self, rng):
        H = random_hermitian(rng, 5)
        H *= 2.5 / np.max(np.abs(np.linalg.eigvalsh(H)))  # spectrum inside (-pi, pi)
        su = spectral_decompose(expm_hermitian_i(H, 1.0))
        assert np.max(np.abs(np.sort(su.values) - np.sort(np.linalg.eigvalsh(H)))) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            spectral_decompose(np.diag([1.0, 2.0]))

    def test_reconstruction(self, rng):
        from userkit.oracle import mc_haar_unitary

        U = mc_haar_unitary(6, 42)
        su = spectral_decompose(U)
        assert np.max(np.abs(su.expm_i(1.0) - U)) < 1e-8

    @pytest.mark.parametrize("offset", [2e-5, 1e-7])
    def test_phase_near_minus_pi_kept(self, offset):
        U = np.diag([np.exp(1j * (-np.pi + offset)), np.exp(0.3j)])
        su = spectral_decompose(U)
        assert su.values[0] == pytest.approx(-np.pi + offset, abs=1e-12)
        assert np.max(np.abs(su.expm_i(1.0) - U)) < 1e-8

    @pytest.mark.parametrize(
        "U", [np.diag([-1.0, 1.0]), np.diag([np.exp(-1j * np.pi), 1.0])], ids=["minus_one", "exp_minus_i_pi"]
    )
    def test_minus_one_reports_plus_pi(self, U):
        su = spectral_decompose(U)
        assert su.values[-1] == np.pi
        assert np.max(np.abs(su.expm_i(1.0) - U)) < 1e-8


class TestPureState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitude_raises(self, bad):
        with pytest.raises(NotNormalized):
            PureState(np.array([bad, 0.0]))


class TestObservable:
    def test_eig_computed_from_matrix(self):
        O = Observable(np.diag([1.0, -1.0]))
        assert np.array_equal(O.eig.values, [-1.0, 1.0])
        assert O.spread() == 2.0

    def test_non_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eig_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            Observable(matrix=np.eye(2), eig=eig_hermitian(np.eye(2)))


class TestPhaseSeparation:
    def test_identity_zero(self):
        assert phase_separation(su_from_phases([0.0, 0.0])) == 0.0

    def test_pi(self):
        assert phase_separation(su_from_phases([0.0, np.pi])) == pytest.approx(np.pi)

    def test_arithmetic(self):
        assert phase_separation(su_from_phases([-0.4, 0.1, 0.9])) == pytest.approx(1.3)

    def test_frequency_spread_not_circular_spread(self):
        # The eigenvalues lie 0.02 apart on the circle, but U^eta turns them in
        # opposite directions: the family's frequency spread is 2 pi - 0.02.
        a = np.pi - 0.01
        su = spectral_decompose(np.diag([np.exp(1j * a), np.exp(-1j * a)]))
        assert phase_separation(su) == pytest.approx(2 * np.pi - 0.02, abs=1e-12)
        assert aliasing_rate(su) == pytest.approx(np.pi / (2 * np.pi - 0.02), abs=1e-12)
        psi, O = PureState(np.array([1.0, 1.0]) / np.sqrt(2)), Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for eta in (0.1, 0.37, 1.0):
            assert multiplicative_expectation(psi, O, su, eta) == pytest.approx(np.cos(2 * a * eta), abs=1e-12)


class TestUnitaryPower:
    def test_zero_power_identity(self, rng):
        su = spectral_decompose(expm_hermitian_i(random_hermitian(rng, 4), 0.5))
        assert np.allclose(su.expm_i(0.0), np.eye(4))

    def test_quarter_turn_squared(self):
        su = spectral_decompose(np.diag([1.0, 1j]))
        assert np.allclose(su.expm_i(2.0), np.diag([1.0, -1.0]))

    def test_identity_roundtrip(self, rng):
        from userkit.oracle import mc_haar_unitary

        U = mc_haar_unitary(5, 7)
        su = spectral_decompose(U)
        assert np.max(np.abs(su.expm_i(1.0) - U)) < 1e-8

    def test_power_composition(self, rng):
        su = spectral_decompose(expm_hermitian_i(random_hermitian(rng, 4), 0.4))
        lhs = su.expm_i(0.3) @ su.expm_i(1.1)
        assert np.max(np.abs(lhs - su.expm_i(1.4))) < 1e-9


class TestMultiplicativeExpectation:
    def test_eta_zero(self, rng):
        d = 4
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        su = spectral_decompose(expm_hermitian_i(random_hermitian(rng, d), 0.3))
        direct = float(np.real(psi.amplitudes.conj() @ O.matrix @ psi.amplitudes))
        assert multiplicative_expectation(psi, O, su, 0.0) == pytest.approx(direct, abs=1e-12)

    def test_identity_observable(self, rng):
        d = 3
        psi = PureState(random_state(rng, d))
        O = Observable(np.eye(d))
        su = spectral_decompose(expm_hermitian_i(random_hermitian(rng, d), 0.3))
        assert multiplicative_expectation(psi, O, su, 1.7) == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_product_oracle(self, rng):
        d = 2
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        O = Observable(np.diag([1.0, -1.0]))
        su = su_from_phases([0.0, 0.7])
        eta = 1.3
        U_eta = su.expm_i(eta)
        v = U_eta @ psi.amplitudes
        oracle = float(np.real(v.conj() @ O.matrix @ v))
        assert multiplicative_expectation(psi, O, su, eta) == pytest.approx(oracle, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(eta=st.floats(-3.0, 3.0), seed=st.integers(0, 10**6))
    def test_spectral_equals_matrix_product(self, eta, seed):
        rng = np.random.default_rng(seed)
        d = 3
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        su = spectral_decompose(expm_hermitian_i(random_hermitian(rng, d), 0.4))
        U_eta = su.expm_i(eta)
        v = U_eta @ psi.amplitudes
        oracle = float(np.real(v.conj() @ O.matrix @ v))
        assert multiplicative_expectation(psi, O, su, eta) == pytest.approx(oracle, abs=1e-10)


class TestAliasing:
    def test_values(self):
        assert aliasing_rate(su_from_phases([0.0, np.pi])) == pytest.approx(1.0)
        assert aliasing_rate(su_from_phases([0.0, np.pi / 2])) == pytest.approx(2.0)

    def test_identity_product(self, rng):
        su = spectral_decompose(expm_hermitian_i(random_hermitian(rng, 4), 0.3))
        assert aliasing_rate(su) * phase_separation(su) == pytest.approx(np.pi)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrum):
            aliasing_rate(su_from_phases([0.2, 0.2]))


class TestGapAndPlan:
    def test_required_n_l(self):
        # ceil(1.2 / lam + 2 ln(1 / RECON_TOL) / delta); 2 ln(1e14) = 64.47
        assert RECON_TOL == 1e-14
        assert required_n_l(0.25, np.pi) == 26  # ceil(4.8 + 20.52)
        assert required_n_l(0.4, 1.0) == 68  # ceil(3.0 + 64.47)
        assert required_n_l(0.13, 0.5) == 139  # ceil(9.23 + 128.94)

    def test_invalid_lambda(self):
        with pytest.raises(InvalidLambda):
            required_n_l(0.6, 1.0)

    def test_grid_limit(self):
        # a grid 2 n_l + 1 must fit MAX_GRID_SAMPLES, from a small lambda or a small slack
        limit = (MAX_GRID_SAMPLES - 1) // 2
        assert required_n_l(1.2 / 2**22, np.pi) == 2**22 + 21 <= limit
        with pytest.raises(GridTooLarge, match="lambda"):
            required_n_l(1.2 / 2**23, np.pi)
        with pytest.raises(GridTooLarge, match="lambda"):
            required_n_l(1e-300, np.pi)
        assert required_n_l(0.25, 1e-5) == 6_447_244 <= limit  # ceil(4.8 + 6_447_238.26)
        with pytest.raises(GridTooLarge, match="band slack"):
            required_n_l(0.25, 1e-6)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, 1e-300])
    def test_no_slack_refused(self, delta):
        with pytest.raises(GridTooLarge, match="band slack"):
            required_n_l(0.25, delta)


class TestSincReconstruct:
    def test_on_grid_delta(self):
        # lam = 0.5: eta = 1 is the k = 2 grid point, all other weights vanish
        samples = np.zeros(9)
        samples[4 + 2] = 3.7
        samples[4 + 1] = 0.9  # lands on an integer sinc argument, weight 0
        assert sinc_reconstruct(samples, 0.5, 1.0, np.pi) == pytest.approx(3.7, abs=1e-12)

    def test_band_limited_cosine(self):
        # frequency pi lam per sample: the slack below pi is pi (1 - lam)
        lam, n_l = 0.25, 200
        k = np.arange(-n_l, n_l + 1)
        samples = np.cos(np.pi * k * lam)
        delta = np.pi * (1 - lam)
        assert sinc_reconstruct(samples, lam, 1.0, delta) == pytest.approx(-1.0, abs=1e-12)
        assert sinc_reconstruct(samples, lam, 0.5, delta) == pytest.approx(0.0, abs=1e-12)
        assert sinc_reconstruct(samples, lam, 0.3, delta) == pytest.approx(np.cos(0.3 * np.pi), abs=1e-12)

    def test_constant_signal(self):
        samples = np.full(401, 2.5)
        assert sinc_reconstruct(samples, 0.25, 1.0, np.pi) == pytest.approx(2.5, abs=1e-12)

    def test_bad_length(self):
        with pytest.raises(BadLength):
            sinc_reconstruct(np.zeros(4), 0.25, 1.0, np.pi)

    @pytest.mark.parametrize("eta", [1.0, np.linspace(0.0, 1.2, 5)], ids=["float", "array"])
    @pytest.mark.parametrize("shape", [(0,), (1,), (4,), (3, 3)])
    def test_bad_length_any_eta(self, shape, eta):
        with pytest.raises(BadLength, match="odd-length"):
            sinc_reconstruct(np.zeros(shape), 0.25, eta, np.pi)

    def test_2d_eta_raises(self):
        with pytest.raises(BadLength, match="1-d"):
            sinc_reconstruct(np.zeros(9), 0.25, np.zeros((2, 3)), np.pi)

    @pytest.mark.parametrize("eta", [1.0, 0, np.float64(0.3), np.array(0.3)], ids=["float", "int", "float64", "0d"])
    def test_float_eta_returns_float(self, eta):
        value = sinc_reconstruct(np.cos(0.25 * np.pi * np.arange(-20, 21)), 0.25, eta, 0.75 * np.pi)
        assert type(value) is float

    def test_array_eta_returns_array(self):
        values = sinc_reconstruct(np.zeros(9), 0.25, [0.0, 0.5], np.pi)
        assert isinstance(values, np.ndarray) and values.shape == (2,)
        assert sinc_reconstruct(np.zeros(9), 0.25, np.empty(0), np.pi).shape == (0,)

    @staticmethod
    def offgrid_first_member():
        """The samples, lambda and slack of the first member of `exact-small` at
        n_sites=16, no synthesis defect and lambdas off the reciprocal integers."""
        raw = dict(preset_config("exact-small").raw, n_sites=16, perturbation=0.0, lambdas=[0.13, 0.23, 0.3, 0.45])
        exp = Experiment.from_config(resolve_config(raw))
        rec = run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear).per_sample[0]
        return rec.samples, rec.lam, rec.delta

    @pytest.mark.parametrize("case", ["offgrid_first_member", "three_samples", "band_limited_cosine"])
    def test_array_equals_scalar_calls(self, case):
        # each value is one dot product with its own weight row, so an array of
        # eta gives the per-eta calls bit for bit
        if case == "offgrid_first_member":
            samples, lam, delta = self.offgrid_first_member()
        elif case == "three_samples":
            samples, lam, delta = np.array([0.3, -1.1, 2.0]), 0.4, 1.0
        else:
            lam = 0.25
            samples, delta = np.cos(np.pi * np.arange(-200, 201) * lam), np.pi * (1 - lam)
        etas = np.linspace(0.0, 1.2, 121)  # reconstruction.csv's grid, eta = 0 first
        etas = np.append(etas, [2 * lam, -lam, 1.0])  # on the sample grid
        values = sinc_reconstruct(samples, lam, etas, delta)
        assert np.array_equal(values, [sinc_reconstruct(samples, lam, eta, delta) for eta in etas])
        assert np.array_equal(sinc_reconstruct(samples, lam, list(etas), delta), values)

    def test_weight_blocks_equal_one_block(self, monkeypatch):
        # a grid too long for one weight block is split by rows, value for value
        lam, delta = 0.25, 0.75 * np.pi
        samples = np.cos(np.pi * np.arange(-200, 201) * lam)
        etas = np.linspace(0.0, 1.2, 121)
        whole = sinc_reconstruct(samples, lam, etas, delta)
        monkeypatch.setattr(user_recon_module, "_WEIGHT_BLOCK", 7 * samples.size)
        assert np.array_equal(sinc_reconstruct(samples, lam, etas, delta), whole)
        monkeypatch.setattr(user_recon_module, "_WEIGHT_BLOCK", 1)
        assert np.array_equal(sinc_reconstruct(samples, lam, etas, delta), whole)


class TestUserReconstruct:
    def test_identity_observable(self, rng):
        d = 4
        A = random_target_A(rng, d)
        psi = PureState(random_state(rng, d))
        O = Observable(np.eye(d))
        U_sd = expm_hermitian_i(A, np.pi * 0.2)
        value, _ = user_reconstruct(psi, O, U_sd, 0.2, no_defect_slack(A, 0.2))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_oracle(self, rng):
        d = 4
        A = random_target_A(rng, d)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        U_sd = expm_hermitian_i(A, np.pi * 0.2)
        exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)
        value, _ = user_reconstruct(psi, O, U_sd, 0.2, no_defect_slack(A, 0.2))
        assert value == pytest.approx(exact, abs=1e-12 * O.spread())

    def test_plan_independence(self, rng):
        A = np.diag([1.0, -1.0]).astype(complex)
        psi = PureState(np.array([1.0, 0.0], dtype=complex))
        O = Observable(random_hermitian(rng, 2))
        exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)
        for lam in (0.1, 0.2, 0.4):
            U_sd = expm_hermitian_i(A, np.pi * lam)
            value, _ = user_reconstruct(psi, O, U_sd, lam, no_defect_slack(A, lam))
            assert value == pytest.approx(exact, abs=1e-12 * O.spread())

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        A = random_target_A(rng, d)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        lam = 0.2
        U_sd = expm_hermitian_i(A, np.pi * lam)
        exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)
        value, _ = user_reconstruct(psi, O, U_sd, lam, no_defect_slack(A, lam))
        assert abs(value - exact) <= 1e-12 * O.spread()

    @pytest.mark.parametrize("lam", [0.13, 0.23, 0.3, 0.45])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_off_grid_matches_oracle(self, rng, d, lam):
        # 1/lam is not an integer, so the value at eta = 1 is interpolated
        H = random_hermitian(rng, d)
        A = H / np.max(np.abs(np.linalg.eigvalsh(H)))  # spectral radius 1
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        U_sd = expm_hermitian_i(A, np.pi * lam)
        exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)
        value, _ = user_reconstruct(psi, O, U_sd, lam, no_defect_slack(A, lam))
        assert abs(value - exact) <= 1e-12 * O.spread()


def chain_reference(psi, O, U, n_l):
    """The per-sample power chain: <v|O v> with a product with O at every power."""
    out = np.empty(2 * n_l + 1)
    v_fwd = psi.amplitudes.copy()
    v_bwd = psi.amplitudes.copy()
    out[n_l] = np.real(v_fwd.conj() @ (O.matrix @ v_fwd))
    for k in range(1, n_l + 1):
        v_fwd = U @ v_fwd
        v_bwd = U.conj().T @ v_bwd
        out[n_l + k] = np.real(v_fwd.conj() @ (O.matrix @ v_fwd))
        out[n_l - k] = np.real(v_bwd.conj() @ (O.matrix @ v_bwd))
    return out


def spectral_reference(psi, O, U, n_l):
    su = spectral_decompose(U)
    return np.array([multiplicative_expectation(psi, O, su, k) for k in range(-n_l, n_l + 1)])


def assert_samples_match_references(psi, O, U, n_l):
    samples = sample_integer_powers(psi, O, U, n_l)
    assert samples.shape == (2 * n_l + 1,)
    # The spectral reference rounds e^{i k phase} at every power k, so its error
    # grows with the grid; the chain reference's stays below 1e-12.
    tol = max(1e-12, 4e-15 * n_l) * max(O.spread(), 1.0)
    assert np.max(np.abs(samples - chain_reference(psi, O, U, n_l))) <= tol
    assert np.max(np.abs(samples - spectral_reference(psi, O, U, n_l))) <= tol


def observable_of_kind(rng, d, kind):
    if kind == "random":
        return Observable(random_hermitian(rng, d))
    if kind == "projector":  # rank 1: eigenvalue 0 is (d - 1)-fold degenerate
        v = random_state(rng, d)
        return Observable(np.outer(v, v.conj()))
    return Observable(2.5 * np.eye(d))


class TestSampleIntegerPowers:
    # n_l + 1 samples per chain: 2, 256 (one full block), 257 and 258 (one
    # row past a block), 601 (two full blocks and a partial one).
    @pytest.mark.parametrize("n_l", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("kind", ["random", "projector", "identity"])
    def test_matches_chain_and_spectral(self, rng, kind, n_l):
        d = 16
        psi = PureState(random_state(rng, d))
        O = observable_of_kind(rng, d, kind)
        U = expm_hermitian_i(random_hermitian(rng, d), 0.2)
        assert_samples_match_references(psi, O, U, n_l)

    @pytest.mark.parametrize("d", [2, 16])
    def test_eigenvector_phases_do_not_matter(self, rng, d):
        # The sampler reads O's eigenvectors only through |E^dag v|^2, so any
        # unit phase on each column leaves the samples as they are.
        H = random_hermitian(rng, d)
        A = H / np.max(np.abs(np.linalg.eigvalsh(H)))
        lam = 0.13  # 1 / lam off the integers
        n_l = required_n_l(lam, no_defect_slack(A, lam))
        U = expm_hermitian_i(A, np.pi * lam)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        rotated = Observable(O.matrix)
        phases = np.exp(2j * np.pi * rng.uniform(size=d))
        object.__setattr__(rotated, "eig", HermitianEig(values=O.eig.values, vectors=O.eig.vectors * phases))
        diff = sample_integer_powers(psi, rotated, U, n_l) - sample_integer_powers(psi, O, U, n_l)
        assert np.max(np.abs(diff)) <= 1e-12 * max(O.spread(), 1.0)

    def test_dimension_mismatch(self, rng):
        U = expm_hermitian_i(random_hermitian(rng, 3), 0.3)
        O3 = Observable(random_hermitian(rng, 3))
        with pytest.raises(DimensionMismatch):
            sample_integer_powers(PureState(random_state(rng, 2)), O3, U, 4)
        with pytest.raises(DimensionMismatch):
            sample_integer_powers(PureState(random_state(rng, 3)), Observable(np.eye(2)), U, 4)

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(1, 6), n_l=st.integers(1, 600), seed=st.integers(0, 10**6))
    @example(d=3, n_l=600, seed=92)  # spectral reference off by 1.20e-12 spread
    @example(d=2, n_l=499, seed=2)  # spectral reference off by 1.001e-12 spread
    def test_property_matches_references(self, d, n_l, seed):
        rng = np.random.default_rng(seed)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        U = expm_hermitian_i(random_hermitian(rng, d), 0.5)
        assert_samples_match_references(psi, O, U, n_l)
