import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from userkit.cli import main
from userkit.config import (
    KNOWN_KEYS,
    SCHEMA_VERSION,
    Experiment,
    load_config,
    preset_config,
    read_matrix_file,
    resolve_config,
    write_matrix_file,
)
from userkit.errors import ConfigError
from userkit.lattice import (
    LatticeSpec,
    build_lattice_family,
    build_target_hamiltonian,
    kinetic_operator,
    shift_matrix,
    target_A_from_hamiltonian,
)
from userkit.matrix_core import expm_hermitian_i, hermiticity_defect, is_unitary
from userkit.sear import run_sear


def run_library(cfg_path):
    exp = Experiment.from_config(load_config(str(cfg_path)))
    return run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear)


def write_config(tmp_path, preset, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(preset_config(preset).raw, **overrides)))
    return path


def zero_spread_config(tmp_path):
    """exact-small with the observable 2.5 * identity: spread(O) = 0."""
    obs = tmp_path / "scalar.mat"
    write_matrix_file(str(obs), 2.5 * np.eye(8))
    return write_config(tmp_path, "exact-small", observable=f"file:{obs}")


class TestLattice:
    def test_drive_vanishes_at_t0(self):
        spec = LatticeSpec(n_sites=8)
        fam = build_lattice_family(spec)
        H0 = fam.K + np.sin(8.0 * 0.0) * fam.V
        assert np.max(np.abs(H0 - kinetic_operator(spec))) < 1e-14

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_kinetic_dispersion(self, n):
        spec = LatticeSpec(n_sites=n, mass=1.3, spacing=0.7)
        w = np.sort(np.linalg.eigvalsh(kinetic_operator(spec)))
        p = 2.0 * np.pi * np.arange(n) / (n * spec.spacing)
        expected = np.sort((np.sin(p * spec.spacing) / spec.spacing) ** 2 / (2 * spec.mass))
        assert np.max(np.abs(w - expected)) < 1e-10

    def test_translation_is_cyclic_unitary(self):
        S = shift_matrix(5)
        assert is_unitary(S)
        v = np.arange(5.0)
        assert np.allclose(S @ v, np.roll(v, 1))

    def test_target_reduces_to_kinetic(self):
        spec = LatticeSpec(n_sites=6, slope=0.0, kinetic_mod=())
        assert np.max(np.abs(build_target_hamiltonian(spec) - kinetic_operator(spec))) < 1e-14

    def test_slope_is_diagonal_shift(self):
        spec = LatticeSpec(n_sites=4, slope=0.3, kinetic_mod=())
        diff = build_target_hamiltonian(spec) - build_target_hamiltonian(
            LatticeSpec(n_sites=4, slope=0.0, kinetic_mod=())
        )
        idx = np.arange(4) - 1.5
        assert np.allclose(diff, np.diag(0.3 * idx * spec.spacing))

    def test_full_target_hermitian(self):
        spec = LatticeSpec(n_sites=16)
        assert hermiticity_defect(build_target_hamiltonian(spec)) < 1e-12

    def test_target_a_zero_hamiltonian(self):
        A, rescale = target_A_from_hamiltonian(np.zeros((4, 4)), 1.0)
        assert np.max(np.abs(A)) == 0.0
        assert rescale == 1.0

    def test_target_a_spectrum_bounded(self):
        spec = LatticeSpec(n_sites=8)
        A, rescale = target_A_from_hamiltonian(build_target_hamiltonian(spec), 10.0)
        assert np.max(np.abs(np.linalg.eigvalsh(A))) <= 1.0 + 1e-12
        assert rescale >= 1.0

    def test_target_a_roundtrip(self):
        spec = LatticeSpec(n_sites=8)
        H_t = build_target_hamiltonian(spec)
        t = 2.0
        A, rescale = target_A_from_hamiltonian(H_t, t)
        t_eff = t / rescale
        lhs = expm_hermitian_i(A, np.pi)
        rhs = expm_hermitian_i(H_t, -t_eff)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestConfig:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            resolve_config({"bogus_key": 1})

    def test_preset_roundtrip(self, tmp_path):
        cfg = preset_config("exact-small")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.raw))
        assert load_config(str(path)).raw == cfg.raw

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")

    def test_n_sites_limit(self):
        assert resolve_config({"n_sites": 256}).raw["n_sites"] == 256
        with pytest.raises(ConfigError, match="n_sites must be at most 256"):
            resolve_config({"n_sites": 257})

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow from extreme values
    def test_resolution_raises_only_config_error(self, data):
        key = data.draw(st.sampled_from(sorted(KNOWN_KEYS)))
        # Size keys take no valid value above 8, so no draw builds a large matrix.
        ints = st.integers(max_value=8) if key in ("n_sites", "n_t", "n_s") else st.integers()
        scalar = st.one_of(ints, st.floats(), st.text(max_size=12), st.none(), st.booleans())
        value = data.draw(st.one_of(scalar, st.lists(scalar, max_size=5)))
        try:
            Experiment.from_config(resolve_config({key: value}))
        except ConfigError:
            pass

    @pytest.mark.parametrize(
        "a, b",
        [
            ({"mass": 1}, {"mass": 1.0}),
            ({"schema": 2}, {"schema": 2.0}),
            ({"kinetic_mod": [0, 0, 1]}, {"kinetic_mod": [0.0, 0.0, 1.0]}),
            ({"drive_omega": 8.0}, {"drive_omega": 3.0}),
        ],
        ids=["int_real_key", "float_schema", "int_kinetic_mod", "haar_drive_omega"],
    )
    def test_config_hash_of_resolved_values(self, a, b):
        assert resolve_config(a).config_hash() == resolve_config(b).config_hash()

    def test_config_hash_tells_computations_apart(self):
        def digest(**overrides):
            return resolve_config(overrides).config_hash()

        assert digest(mass=1.0) != digest(mass=1.5)
        # the simulable twirl set is built at drive_omega
        assert digest(twirl_mode="simulable", drive_omega=8.0) != digest(twirl_mode="simulable", drive_omega=3.0)

    def test_matrix_file_roundtrip(self, tmp_path, rng):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = str(tmp_path / "m.txt")
        write_matrix_file(path, M)
        assert np.max(np.abs(read_matrix_file(path) - M)) < 1e-15


class TestCli:
    def test_preset_prints_json(self, capsys):
        assert main(["preset", "exact-small"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_sites"] == 8

    def test_run_exact_small(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = str(tmp_path / "out")
        assert main(["preset", "exact-small", "--out-file", str(cfg_path)]) == 0
        assert (
            main(["run", str(cfg_path), "--out", out_dir, "--emit", "result_json,samples_csv"])
            == 0
        )
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert abs(result["mean"] - result["exact"]) <= 1e-3
        header = (tmp_path / "out" / "samples.csv").read_text().splitlines()[0]
        assert header == "k,eta,value"

    def test_samples_csv_shape(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        main(["preset", "exact-small", "--out-file", str(cfg_path)])
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--emit", "samples_csv"]) == 0
        rows = [ln.split(",") for ln in (out_dir / "samples.csv").read_text().splitlines()[1:]]
        res = run_library(cfg_path)
        # one block of 2 n_l + 1 rows (k = -n_l .. n_l) per ensemble member,
        # holding exactly that member's sample grid
        assert len(res.per_sample) == len(json.loads(cfg_path.read_text())["lambdas"])
        start = 0
        for rec in res.per_sample:
            n_l = rec.samples.size // 2
            block = rows[start : start + 2 * n_l + 1]
            assert [int(k) for k, _, _ in block] == list(range(-n_l, n_l + 1))
            assert [float(v) for _, _, v in block] == rec.samples.tolist()
            start += 2 * n_l + 1
        assert start == len(rows)

    def test_csv_roundtrip_full_precision(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        main(["preset", "exact-small", "--out-file", str(cfg_path)])
        main(["run", str(cfg_path), "--out", str(out_dir), "--emit", "samples_csv"])
        for ln in (out_dir / "samples.csv").read_text().splitlines()[1:6]:
            _, eta, value = ln.split(",")
            assert f"{float(value):.17g}" == value
            assert f"{float(eta):.17g}" == eta

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        main(["preset", "exact-small", "--out-file", str(cfg_path)])
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["run", str(cfg_path), "--out", str(out_dir), "--seed", "42"]) == 0
            outs.append((out_dir / "result.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"not_a_key": 5}, "not_a_key"),
            ({"n_a": 3}, "n_a"),
            ({"probe_state": "basis:x"}, "probe_state"),
            ({"n_sites": "8"}, "n_sites"),
            ({"n_s": 0}, "n_s"),
            ({"safety": 0.5}, "safety"),
            ({"seed": -1}, "seed"),
            ({"emit": 5}, "emit"),
            ({"output_dir": 5}, "output_dir"),
            ({"spacing": float("nan")}, "spacing"),
            ({"mass": 1e400}, "mass"),
            ({"mass": 10**400}, "mass"),
            ({"lambdas": [10**400, 0.2, 0.125, 0.1]}, "invalid config"),
            ({"observable": "file:obs8.mat", "n_sites": 16}, "observable"),
            ({"probe_state": "gaussian:0:0"}, "probe_state"),
            ({"slope": 1e308}, "lattice"),
            ({"n_sites": 100000}, "n_sites"),
            ({"kappa": 2}, "kappa"),
            ({"n_a": 4}, "n_a"),
            ({"lambdas": []}, "lambdas"),
            ({"observable": "file:nan8.mat", "n_sites": 8}, "observable"),
            ({"observable": "file:nonherm8.mat", "n_sites": 8}, "observable"),
            ({"perturbation": -1}, "perturbation"),
        ],
        ids=[
            "unknown_key",
            "n_a_lambdas_mismatch",
            "probe_basis_not_int",
            "n_sites_string",
            "n_s_zero",
            "safety_below_1",
            "seed_negative",
            "emit_not_list",
            "output_dir_not_string",
            "spacing_nan",
            "mass_overflow",
            "mass_int_beyond_float",
            "lambda_int_beyond_float",
            "observable_dim_mismatch",
            "probe_gaussian_zero_width",
            "model_overflow",
            "n_sites_too_large",
            "kappa_removed",
            "n_a_removed",
            "lambdas_empty",
            "observable_file_nan",
            "observable_file_not_hermitian",
            "perturbation_negative",
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow from extreme values
    def test_unknown_key_exit_2(self, tmp_path, monkeypatch, capsys, overrides, key):
        monkeypatch.chdir(tmp_path)
        write_matrix_file("obs8.mat", np.diag(np.arange(8.0)))
        write_matrix_file("nan8.mat", np.diag([np.nan] + [0.0] * 7))
        write_matrix_file("nonherm8.mat", np.diag(np.arange(8.0)) + np.eye(8, k=1))
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"schema": SCHEMA_VERSION, **overrides}))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    def test_schema_1_preset_file_exit_2(self, tmp_path, capsys):
        # a preset file as schema 1 wrote it: it also carries the keys n_a and kappa
        old = dict(preset_config("noisy-16").raw, schema=1, n_a=4, kappa=2)
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps(old))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"unsupported schema version 1 (expected {SCHEMA_VERSION})" in capsys.readouterr().err

    def test_ensemble_size_is_len_lambdas(self, tmp_path):
        cfg_path = write_config(tmp_path, "exact-small", lambdas=[0.25, 0.2, 0.125])
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--emit", "epsilon_json"]) == 0
        assert len(json.loads((out_dir / "epsilon.json").read_text())["per_k"]) == 3
        assert len(run_library(cfg_path).per_sample) == 3

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "exact-small")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["exact-small", "noisy-16", "zero-spread"])
    def test_run_matches_library(self, tmp_path, preset):
        if preset == "zero-spread":
            cfg_path = zero_spread_config(tmp_path)
        else:
            cfg_path = write_config(tmp_path, preset)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
        result = json.loads((out_dir / "result.json").read_text())
        res = run_library(cfg_path)
        assert (result["mean"], result["epsilon"], result["error_bar"], result["exact"]) == (
            res.mean_value,
            res.noise_strength,
            res.error_bar,
            res.exact_value,
        )

    def test_twirl_zero_spread_exit_3(self, tmp_path, capsys):
        cfg_path = zero_spread_config(tmp_path)
        assert main(["twirl", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "DegenerateDenominator"

    def test_decompose(self, tmp_path, capsys):
        path = str(tmp_path / "u.txt")
        write_matrix_file(path, np.diag([1.0, -1.0]).astype(complex))
        assert main(["decompose", path]) == 0
        out = capsys.readouterr().out
        assert "phase_separation" in out and "aliasing_rate" in out

    def test_decompose_phase_near_minus_pi(self, tmp_path, capsys):
        path = str(tmp_path / "u.txt")
        write_matrix_file(path, np.diag([np.exp(1j * (-np.pi + 2e-5)), np.exp(0.3j)]))
        assert main(["decompose", path]) == 0
        assert "phase_separation" in capsys.readouterr().out

    def test_twirl_emits_epsilon_json(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        main(["preset", "exact-small", "--out-file", str(cfg_path)])
        assert main(["twirl", str(cfg_path), "--out", str(out_dir), "--seed", "3"]) == 0
        data = json.loads((out_dir / "epsilon.json").read_text())
        assert set(data) == {"per_k", "mean", "method", "n_t"}
        assert len(data["per_k"]) == 4
        run_dir = tmp_path / "run"
        assert main(["run", str(cfg_path), "--out", str(run_dir), "--seed", "3"]) == 0
        assert (run_dir / "epsilon.json").read_bytes() == (out_dir / "epsilon.json").read_bytes()
