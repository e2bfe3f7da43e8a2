import collections
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from userkit import config as config_module
from userkit import sear as sear_module
from userkit.channels import DensityMatrix, KrausChannel
from userkit.cli import _fmt, main
from userkit.config import (
    KNOWN_KEYS,
    MAX_DESIGN_ENTRIES,
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
from userkit.oracle import exact_intermediate_expectation
from userkit.sear import run_sear
from userkit.user_recon import ETA_MAX, Observable, sinc_reconstruct


def run_library(cfg_path):
    exp = Experiment.from_config(load_config(str(cfg_path)))
    return run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear)


def write_config(tmp_path, preset, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(preset_config(preset).raw, **overrides)))
    return path


def zero_spread_config(tmp_path, **overrides):
    """exact-small with the observable 2.5 * identity: spread(O) = 0."""
    obs = tmp_path / "scalar.mat"
    write_matrix_file(str(obs), 2.5 * np.eye(8))
    return write_config(tmp_path, "exact-small", observable=f"file:{obs}", **overrides)


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

    @pytest.mark.parametrize("kinetic_mod", [("1", True), (0.0, True), "abc", 0.5, (float("inf"),)])
    def test_kinetic_mod_must_be_finite_numbers(self, kinetic_mod):
        with pytest.raises(ValueError, match="kinetic_mod"):
            LatticeSpec(kinetic_mod=kinetic_mod)

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

    def test_twirl_set_limit(self):
        # resolve_config builds nothing, so no call here builds a twirl set; the
        # limit holds only where one is built, in simulable mode
        sim = {"twirl_mode": "simulable"}
        assert resolve_config({**sim, "n_sites": 256, "n_t": 1024}).raw["n_t"] == 1024
        with pytest.raises(ConfigError, match="n_t"):
            resolve_config({**sim, "n_sites": 256, "n_t": 1025})
        with pytest.raises(ConfigError, match="n_t"):
            resolve_config({**sim, "n_sites": 8, "n_t": 10**9})
        assert resolve_config({"n_t": 10**9}).raw["n_t"] == 10**9
        with pytest.raises(ConfigError, match="n_t"):
            resolve_config({"n_t": 0})

    def test_design_limit(self):
        # resolve_config designs nothing, so no call here runs a design; the
        # default 4 x 4 pulses at 256 sites sit exactly on the limit
        assert 4 * 4 * 256**2 == MAX_DESIGN_ENTRIES
        assert resolve_config({"n_sites": 256}).raw["n_s"] == 4
        assert resolve_config({"n_sites": 4, "n_s": 16384}).raw["n_s"] == 16384
        for overrides in ({"n_sites": 256, "n_s": 5}, {"n_sites": 4, "n_s": 16385}, {"lambdas": [0.2] * 1025}):
            with pytest.raises(ConfigError, match="design entries"):
                resolve_config(overrides)

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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["run", "twirl"]))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow from extreme values
    def test_main_exits_with_a_code(self, data, command):
        # Any one or two keys through the CLI: an exit code, never an exception.
        keys = data.draw(st.lists(st.sampled_from(sorted(KNOWN_KEYS)), min_size=1, max_size=2, unique=True))
        words = st.sampled_from(
            ["basis:x", "basis:3", "gaussian:0:1e-300", "gaussian:2:2", "file:/nonexistent", "momentum-proxy", "simulable"]
        )
        cfg = {}
        for key in keys:
            ints = st.integers(max_value=8) if key in ("n_sites", "n_t", "n_s") else st.integers()
            scalar = st.one_of(ints, st.floats(), st.text(max_size=12), st.none(), st.booleans(), words)
            cfg[key] = data.draw(st.one_of(scalar, st.lists(scalar, max_size=5)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            assert main([command, path, "--out", os.path.join(tmp, "out")]) in (0, 2, 3)

    @pytest.mark.parametrize(
        "a, b",
        [
            ({"mass": 1}, {"mass": 1.0}),
            ({"schema": SCHEMA_VERSION}, {"schema": float(SCHEMA_VERSION)}),
            ({"kinetic_mod": [0, 0, 1]}, {"kinetic_mod": [0.0, 0.0, 1.0]}),
            ({"drive_omega": 8.0}, {"drive_omega": 3.0}),
            ({"n_t": 64}, {"n_t": 128}),
        ],
        ids=["int_real_key", "float_schema", "int_kinetic_mod", "haar_drive_omega", "haar_n_t"],
    )
    def test_config_hash_of_resolved_values(self, a, b):
        assert resolve_config(a).config_hash() == resolve_config(b).config_hash()

    def test_config_hash_tells_computations_apart(self):
        def digest(**overrides):
            return resolve_config(overrides).config_hash()

        assert digest(mass=1.0) != digest(mass=1.5)
        # the simulable twirl set is built at drive_omega
        assert digest(twirl_mode="simulable", drive_omega=8.0) != digest(twirl_mode="simulable", drive_omega=3.0)
        assert digest(twirl_mode="simulable", n_t=64) != digest(twirl_mode="simulable", n_t=128)

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
            ({"safety": 10.0}, "safety"),
            ({"seed": -1}, "seed"),
            ({"emit": 5}, "emit"),
            ({"output_dir": 5}, "output_dir"),
            ({"spacing": float("nan")}, "spacing"),
            ({"mass": 1e400}, "mass"),
            ({"mass": 10**400}, "mass"),
            ({"lambdas": [10**400, 0.2, 0.125, 0.1]}, "lambdas"),
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
            ({"lambdas": [0.25, "0.2"]}, "lambdas"),
            ({"kinetic_mod": [True, 0, 0]}, "kinetic_mod"),
            ({"lambdas": 0.25}, "lambdas"),
        ],
        ids=[
            "unknown_key",
            "n_a_lambdas_mismatch",
            "probe_basis_not_int",
            "n_sites_string",
            "n_s_zero",
            "safety_removed",
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
            "lambda_string",
            "kinetic_mod_bool",
            "lambdas_not_list",
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

    def test_schema_2_file_exit_2(self, tmp_path, capsys):
        # a preset file as schema 2 wrote it: it also carries the key safety
        old = dict(preset_config("noisy-16").raw, schema=2, safety=10.0)
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps(old))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"unsupported schema version 2 (expected {SCHEMA_VERSION})" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "overrides, words",
        [
            ({"lambdas": [1e-9]}, ("lambda", "band slack")),
            # band slack pi (1 - 0.45 spread(A)) - 2 * 4 * 0.3 < 0: U_sd's phases may alias
            ({"n_sites": 16, "lambdas": [0.45], "perturbation": 0.3}, ("band slack", "alias")),
        ],
        ids=["tiny_lambda", "no_band_slack"],
    )
    def test_oversized_grid_exit_3(self, tmp_path, capsys, overrides, words):
        cfg_path = write_config(tmp_path, "exact-small", **overrides)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "GridTooLarge"
        assert all(word in diag["message"] for word in words)

    @pytest.fixture
    def design_calls(self, monkeypatch):
        calls = []
        design = sear_module.design_sequence

        def counted(*args, **kwargs):
            calls.append(args)
            return design(*args, **kwargs)

        monkeypatch.setattr(sear_module, "design_sequence", counted)
        return calls

    @pytest.mark.parametrize("command", ["run", "twirl"])
    def test_oversized_ensemble_exit_2_before_design(self, tmp_path, capsys, design_calls, command):
        cfg_path = write_config(tmp_path, "exact-small", n_sites=4, n_s=200000)
        assert main([command, str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "design entries" in capsys.readouterr().err
        assert design_calls == []

    def test_negative_slack_exit_3_before_design(self, tmp_path, capsys, design_calls):
        # band slack pi (1 - lam spread(A)) - 2 * 200 * 0.01 < 0 for every
        # member: run refuses the grids before any member is designed, while
        # twirl samples no grid and runs
        cfg_path = write_config(tmp_path, "exact-small", n_sites=4, n_s=200, perturbation=0.01)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 3
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "GridTooLarge"
        assert design_calls == []
        assert main(["twirl", str(cfg_path), "--out", str(tmp_path / "twirl")]) == 0
        assert len(design_calls) == 4

    @pytest.mark.parametrize("seed", [1, 7])
    def test_off_grid_lambdas_exact(self, tmp_path, seed):
        # no synthesis defect and 1/lambda off the integers: the value at eta = 1
        # is interpolated, and reconstruction.csv redraws it with the same kernel
        cfg_path = write_config(
            tmp_path,
            "exact-small",
            n_sites=16,
            lambdas=[0.13, 0.23, 0.3, 0.45],
            seed=seed,
            emit=["result_json", "reconstruction_csv"],
        )
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
        result = json.loads((out_dir / "result.json").read_text())
        assert abs(result["mean"] - result["exact"]) <= 1e-12 * result["spread"]
        rows = (out_dir / "reconstruction.csv").read_text().splitlines()[1:]
        value_at_1 = float(rows[100].split(",")[1])  # eta = 100 * 1.2 / 120
        assert value_at_1 == pytest.approx(run_library(cfg_path).per_sample[0].value, abs=1e-12 * result["spread"])

    def test_reconstruction_csv_equals_scalar_calls(self, tmp_path):
        # run interpolates its 121-point grid in one sinc_reconstruct call; each
        # line is what the per-eta call gives for the first member
        cfg_path = write_config(
            tmp_path, "exact-small", n_sites=16, perturbation=0.0, lambdas=[0.13, 0.23, 0.3, 0.45],
            emit=["reconstruction_csv"],
        )
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
        exp = Experiment.from_config(load_config(str(cfg_path)))
        rec = run_library(cfg_path).per_sample[0]
        expected = ["eta,interpolated_value"] + [
            f"{_fmt(eta * exp.t_eff)},{_fmt(sinc_reconstruct(rec.samples, rec.lam, eta, rec.delta))}"
            for eta in np.linspace(0.0, ETA_MAX, 121)
        ]
        assert (out_dir / "reconstruction.csv").read_text().splitlines() == expected

    def test_parser_keeps_no_emit_between_calls(self, tmp_path):
        # the parser is built once per process; a flag of one call is not in the next
        cfg_path = write_config(tmp_path, "noisy-16", output_dir=str(tmp_path / "plain"))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "flagged"), "--emit", "samples_csv"]) == 0
        assert sorted(os.listdir(tmp_path / "flagged")) == ["samples.csv"]
        assert main(["run", str(cfg_path)]) == 0
        assert sorted(os.listdir(tmp_path / "plain")) == ["epsilon.json", "result.json"]

    def test_parser_keeps_no_seed_or_out_between_calls(self, tmp_path):
        cfg_path = write_config(tmp_path, "noisy-16", seed=1, output_dir=str(tmp_path / "plain"))
        assert main(["run", str(cfg_path), "--seed", "2", "--out", str(tmp_path / "seed2")]) == 0
        assert main(["run", str(cfg_path)]) == 0
        assert main(["run", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "seed1")]) == 0
        plain = (tmp_path / "plain" / "result.json").read_bytes()
        assert plain == (tmp_path / "seed1" / "result.json").read_bytes()
        assert plain != (tmp_path / "seed2" / "result.json").read_bytes()

    def test_parser_error_leaves_next_call_working(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "exact-small", output_dir=str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        assert "config" in capsys.readouterr().err
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "result.json").exists()

    def test_exact_above_d64(self, tmp_path):
        # result.json reports the exact value at every dimension, from run_sear's
        # one decomposition of A, and it agrees with the independent oracle
        cfg_path = write_config(tmp_path, "exact-small", n_sites=72, emit=["result_json"])
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
        result = json.loads((out_dir / "result.json").read_text())
        exp = Experiment.from_config(load_config(str(cfg_path)))
        oracle = exact_intermediate_expectation(exp.psi.amplitudes, exp.O.matrix, exp.target_A)
        assert abs(result["exact"] - oracle) <= 1e-9 * result["spread"]

    def test_twirl_zero_spread_simulable_matches_run(self, tmp_path, monkeypatch):
        # no probe resolves a noise strength through a zero-spread observable, and
        # none is needed: twirl and run both report every per_k as 0, and
        # evolve no twirl-set member
        calls = []
        monkeypatch.setattr(config_module, "time_ordered_evolve", lambda *args: calls.append(args))
        cfg_path = zero_spread_config(tmp_path, perturbation=1e-2, twirl_mode="simulable", n_t=16)
        assert main(["twirl", str(cfg_path), "--out", str(tmp_path / "twirl")]) == 0
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        assert calls == []
        doc = (tmp_path / "twirl" / "epsilon.json").read_bytes()
        assert (tmp_path / "run" / "epsilon.json").read_bytes() == doc
        assert json.loads(doc)["per_k"] == [0.0] * 4
        assert json.loads((tmp_path / "run" / "result.json").read_text())["error_bar"] == 0.0

    @pytest.mark.parametrize("command", ["run", "twirl"])
    def test_unresolvable_probe_evolves_no_twirl_member(self, tmp_path, capsys, monkeypatch, command):
        # every probe the config can express is real and gives <p> = Tr[p]/d
        # for momentum-proxy, so no simulable noise strength can be read: the
        # config exits 3 before any twirl-set member is evolved
        calls = []
        evolve = config_module.time_ordered_evolve
        monkeypatch.setattr(config_module, "time_ordered_evolve", lambda *args: calls.append(args) or evolve(*args))
        cfg_path = write_config(tmp_path, "noisy-16", observable="momentum-proxy", twirl_mode="simulable", n_t=8)
        assert main([command, str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "DegenerateDenominator"
        assert len(calls) == 0

    def test_simulable_builds_no_channel_object(self, tmp_path, monkeypatch):
        # run and twirl twirl the member and set stacks as plain arrays
        inits = collections.Counter()
        for cls in (KrausChannel, DensityMatrix):

            def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                inits[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        cfg_path = write_config(tmp_path, "noisy-16", twirl_mode="simulable", n_t=8)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        assert main(["twirl", str(cfg_path), "--out", str(tmp_path / "twirl")]) == 0
        assert sum(inits.values()) == 0

    def test_twirl_generator_beyond_squaring_bound_exit_3(self, tmp_path, capsys):
        # mass 1e-300 puts the step generators' 1-norm near 1e298: far more
        # squarings than keep e^{-iG} unitary, so the twirl set is refused
        cfg_path = write_config(tmp_path, "noisy-16", twirl_mode="simulable", n_t=2, mass=1e-300)
        assert main(["twirl", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "SpectrumOutOfRange"
        assert "squarings" in diag["message"]

    def test_haar_epsilon_reads_no_probe_or_observable(self, tmp_path):
        # The closed-form Haar twirl reads neither, so momentum-proxy runs too:
        # every probe the config can express is real and gives <p> = Tr[p]/d,
        # which no probe-based estimate can divide by.
        docs = set()
        for observable, probe in [
            ("position", "basis:0"),
            ("momentum-proxy", "basis:0"),
            ("position", "gaussian:-3:1.5"),
            ("momentum-proxy", "gaussian:2:2"),
        ]:
            cfg_path = write_config(tmp_path, "noisy-16", observable=observable, probe_state=probe)
            out_dir = tmp_path / f"{observable}-{probe}"
            assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
            docs.add((out_dir / "epsilon.json").read_bytes())
            result = json.loads((out_dir / "result.json").read_text())
            assert result["epsilon"] > 0.0
        assert len(docs) == 1
        data = json.loads(docs.pop())
        assert (data["method"], data["n_t"]) == ("closed_form/haar", None)

    def test_twirl_zero_spread_haar_matches_run(self, tmp_path):
        cfg_path = zero_spread_config(tmp_path, perturbation=1e-2)
        assert main(["twirl", str(cfg_path), "--out", str(tmp_path / "twirl")]) == 0
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        doc = (tmp_path / "twirl" / "epsilon.json").read_bytes()
        assert (tmp_path / "run" / "epsilon.json").read_bytes() == doc
        assert min(json.loads(doc)["per_k"]) > 0.0
        assert json.loads((tmp_path / "run" / "result.json").read_text())["error_bar"] == 0.0

    def test_exact_small_epsilon_not_negative(self, tmp_path):
        # without a defect every member's closed form is rounding; a negative
        # one reads 0, so neither epsilon nor the error bar is negative
        cfg_path = write_config(tmp_path, "exact-small")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        per_k = json.loads((tmp_path / "out" / "epsilon.json").read_text())["per_k"]
        assert all(0.0 <= eps < 1e-14 for eps in per_k) and 0.0 in per_k
        assert 0.0 <= result["epsilon"] < 1e-14 and result["error_bar"] >= 0.0

    @pytest.mark.parametrize("command", ["run", "twirl", "preset"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, command):
        # an output path that cannot be written, under a regular file or where
        # a directory holds the artifact's name, is a config error naming the
        # path, not a traceback, and leaves no temporary file behind
        blocker = tmp_path / "file"
        blocker.write_text("")
        taken = tmp_path / "taken"
        (taken / "epsilon.json").mkdir(parents=True)
        for out, named in ((blocker / "out", blocker / "out"), (taken, taken / "epsilon.json")):
            if command == "preset":
                argv = ["preset", "exact-small", "--out-file", str(named)]
            else:
                argv = [command, str(write_config(tmp_path, "exact-small", output_dir=str(out)))]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and str(named) in err
            assert not list(tmp_path.rglob("*.tmp"))

    def test_large_hermitian_file_observable_simulable(self, tmp_path, rng):
        # An exactly Hermitian observable of norm about 1e8: the mixing law's
        # <psi|O|psi> and Tr[rho O] carry an imaginary rounding residue far
        # above 1e-10, which is not a Hermiticity defect; epsilon does not
        # depend on the observable's scale.
        G = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        M = 0.5 * (G + G.conj().T)
        epsilons = []
        for scale in (1.0, 1e8):
            obs = tmp_path / f"obs-{scale:g}.mat"
            write_matrix_file(str(obs), scale * M)
            O = Observable(read_matrix_file(str(obs)))
            assert np.array_equal(O.matrix, O.matrix.conj().T)
            out_dir = tmp_path / f"out-{scale:g}"
            cfg_path = write_config(
                tmp_path, "noisy-16", n_sites=8, n_t=16, twirl_mode="simulable", observable=f"file:{obs}"
            )
            assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
            epsilons.append(json.loads((out_dir / "result.json").read_text())["epsilon"])
        assert epsilons[1] == pytest.approx(epsilons[0], rel=1e-12, abs=0)
        # a matrix within TOL_EIG of Hermitian is stored exactly Hermitian
        O = Observable(M + 1e-12 * np.triu(G, 1))
        assert np.array_equal(O.matrix, O.matrix.conj().T)

    def test_decompose(self, tmp_path, capsys):
        path = str(tmp_path / "u.txt")
        write_matrix_file(path, np.diag([1.0, -1.0]).astype(complex))
        assert main(["decompose", path]) == 0
        out = capsys.readouterr().out
        assert "phase_separation" in out and "aliasing_rate" in out

    @pytest.mark.parametrize(
        "text, message",
        [("1\nnan 0\n", "finite"), ("0\n", "dimension")],
        ids=["nan_entry", "zero_dimension"],
    )
    def test_decompose_bad_matrix_file_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "u.txt"
        path.write_text(text)
        assert main(["decompose", str(path)]) == 2
        assert message in capsys.readouterr().err

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


class TestDenseBudget:
    """The LAPACK calls of one `userkit run` and one `userkit twirl` on
    noisy-16, counted at np.linalg.  Per run: `eigh` with vectors for A (the
    exact reference, its spread and its spectrum check) and for the observable;
    `eigvalsh` for each of the n_a * n_s defect norms and for the rescale of A;
    no residual norm.  `twirl` decomposes no A, so it checks A's spectrum with
    one more `eigvalsh`.  The counts do not depend on d."""

    @pytest.fixture
    def linalg_calls(self, monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, counted(name, fn))
        return calls

    @pytest.mark.parametrize("n_sites", [16, 32])
    def test_run_and_twirl(self, tmp_path, linalg_calls, n_sites):
        cfg_path = write_config(tmp_path, "noisy-16", n_sites=n_sites)
        r = load_config(str(cfg_path)).raw
        n_a, pulses = len(r["lambdas"]), len(r["lambdas"]) * r["n_s"]
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        assert dict(linalg_calls) == {"eigh": 2, "eigvalsh": pulses + 1, "matrix_power": n_a}
        linalg_calls.clear()
        assert main(["twirl", str(cfg_path), "--out", str(tmp_path / "twirl")]) == 0
        assert dict(linalg_calls) == {"eigh": 1, "eigvalsh": pulses + 2, "matrix_power": n_a}
