"""Experiment configuration: flat JSON schema, presets, matrix-file I/O."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .aqs_magnus import EvolutionSpec, time_ordered_evolve
from .errors import ConfigError, NotHermitian
from .lattice import (
    LatticeSpec,
    build_lattice_family,
    build_target_hamiltonian,
    position_operator,
    sine_momentum_operator,
    target_A_from_hamiltonian,
)
from .matrix_core import TOL_EIG, is_finite_number
from .sear import SearConfig
from .user_recon import Observable, PureState

SCHEMA_VERSION = 3

EMIT_KINDS = {"samples_csv", "reconstruction_csv", "epsilon_json", "result_json"}

INT_KEYS = ("seed", "n_sites", "n_t", "n_s")
# The dense substrate's size limit (see `matrix_core`): every model matrix is n_sites x n_sites.
MAX_N_SITES = 256
# Complex entries the simulable twirl set (n_t matrices of n_sites^2, all built
# before anything runs) may hold: 1 GiB, so n_t = 1024 at 256 sites.
MAX_TWIRL_ENTRIES = 1 << 26
REAL_KEYS = ("mass", "spacing", "drive_omega", "slope", "evolution_time", "perturbation")

DEFAULTS = {
    "schema": SCHEMA_VERSION,
    "seed": 0,
    "n_sites": 16,
    "mass": 1.0,
    "spacing": 1.0,
    "drive_omega": 8.0,
    "slope": 0.1,
    "kinetic_mod": [0.0, 0.0, 0.05],
    "evolution_time": 1.0,
    "n_t": 64,
    "lambdas": [0.25, 0.2, 0.125, 0.1],
    "perturbation": 0.0,
    "n_s": 4,
    "probe_state": "basis:0",
    "observable": "position",
    "twirl_mode": "haar",
    "output_dir": ".",
    "emit": ["result_json"],
}

KNOWN_KEYS = set(DEFAULTS)

PRESETS = {
    "exact-small": {
        "n_sites": 8,
        "perturbation": 0.0,
        "seed": 1,
        "emit": ["result_json", "epsilon_json"],
    },
    "noisy-16": {
        "n_sites": 16,
        "perturbation": 1e-2,
        "n_t": 128,
        "seed": 1,
        "emit": ["result_json", "epsilon_json"],
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    @property
    def lattice(self) -> LatticeSpec:
        r = self.raw
        return LatticeSpec(
            n_sites=r["n_sites"],
            mass=r["mass"],
            spacing=r["spacing"],
            slope=r["slope"],
            kinetic_mod=r["kinetic_mod"],
        )

    @property
    def sear(self) -> SearConfig:
        r = self.raw
        return SearConfig(
            lambdas=r["lambdas"],
            perturbation=r["perturbation"],
            seed=r["seed"],
            n_s=r["n_s"],
        )

    def config_hash(self) -> str:
        """Hash of the resolved values that select what is computed, so that
        equal numbers (1 and 1.0) hash alike.  output_dir and emit select where
        and what to write; drive_omega and n_t only shape the simulable twirl set."""
        r = self.raw
        physics = {k: v for k, v in r.items() if k not in ("output_dir", "emit")}
        physics["schema"] = int(r["schema"])
        physics.update({key: float(r[key]) for key in REAL_KEYS})
        physics.update({key: [float(x) for x in r[key]] for key in ("lambdas", "kinetic_mod")})
        if r["twirl_mode"] == "haar":
            del physics["drive_omega"], physics["n_t"]
        blob = json.dumps(physics, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def resolve_config(overrides: dict) -> ExperimentConfig:
    # Before the key check, so a file of another schema is reported as such.
    schema = overrides.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema} (expected {SCHEMA_VERSION})")
    for key in overrides:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
    raw = dict(DEFAULTS)
    raw.update(overrides)
    if not isinstance(raw["emit"], list) or not all(isinstance(kind, str) for kind in raw["emit"]):
        raise ConfigError(f"emit must be a list of strings, got {raw['emit']!r}")
    if not isinstance(raw["output_dir"], str):
        raise ConfigError(f"output_dir must be a string, got {raw['output_dir']!r}")
    for kind in raw["emit"]:
        if kind not in EMIT_KINDS:
            raise ConfigError(f"unknown emit kind: {kind!r}")
    if raw["twirl_mode"] not in ("haar", "simulable"):
        raise ConfigError(f"unknown twirl_mode: {raw['twirl_mode']!r}")
    for key in INT_KEYS:
        if type(raw[key]) is not int:
            raise ConfigError(f"{key} must be an integer, got {raw[key]!r}")
    for key in REAL_KEYS:
        if not is_finite_number(raw[key]):
            raise ConfigError(f"{key} must be a finite number, got {raw[key]!r}")
    if raw["n_t"] < 1:
        raise ConfigError(f"n_t must be positive, got {raw['n_t']}")
    if raw["n_sites"] > MAX_N_SITES:
        raise ConfigError(f"n_sites must be at most {MAX_N_SITES}, got {raw['n_sites']}")
    if raw["twirl_mode"] == "simulable" and raw["n_t"] * raw["n_sites"] ** 2 > MAX_TWIRL_ENTRIES:
        raise ConfigError(
            f"n_t * n_sites^2 = {raw['n_t'] * raw['n_sites'] ** 2} twirl-set entries exceed {MAX_TWIRL_ENTRIES}"
        )
    cfg = ExperimentConfig(raw=raw)
    try:  # their own element and range checks, reported as config errors
        cfg.lattice, cfg.sear
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return cfg


@dataclass(frozen=True)
class Experiment:
    """Everything `sear.run_sear` needs, resolved from one config: the rescaled
    target A (with the evolution time t_eff it stands for), probe, observable,
    twirl set and ensemble settings.  The twirl set is None for the Haar
    measure, and empty in simulable mode for a zero-spread observable, whose
    noise strengths are 0 whatever the set."""

    target_A: np.ndarray
    t_eff: float
    psi: PureState
    O: Observable
    twirl_set: list | None
    sear: SearConfig

    @classmethod
    def from_config(cls, cfg: ExperimentConfig) -> "Experiment":
        r = cfg.raw
        lattice = cfg.lattice
        try:  # extreme finite parameters can still overflow the model
            target_A, rescale = target_A_from_hamiltonian(build_target_hamiltonian(lattice), r["evolution_time"])
        except ValueError as exc:
            raise ConfigError(f"lattice parameters give an invalid target Hamiltonian: {exc}") from exc
        try:  # a file: observable may hold any matrix
            O = Observable(observable_matrix(r["observable"], lattice))
        except (ValueError, NotHermitian, ConfigError) as exc:
            raise ConfigError(f"observable {r['observable']!r}: {exc}") from exc
        if O.dim != lattice.n_sites:
            raise ConfigError(f"observable has dimension {O.dim}, n_sites is {lattice.n_sites}")
        if r["twirl_mode"] == "haar":
            twirl_set = None
        elif O.spread() <= TOL_EIG:  # no noise strength is read through it
            twirl_set = []
        else:
            twirl_set = _simulable_twirl_set(r, lattice)
        return cls(
            target_A=target_A,
            t_eff=r["evolution_time"] / rescale,
            psi=PureState(probe_state_vector(r["probe_state"], lattice)),
            O=O,
            twirl_set=twirl_set,
            sear=cfg.sear,
        )


# Magnus-4 steps per twirl-set member.  Over the 64 members of `noisy-16` with
# `twirl_mode: simulable` at seeds 1-3 (d=16), the operator-norm error against
# a 512-step evolution is at most 7.8e-5 (medians 3.1e-6 to 3.6e-6), and
# falls about 16-fold per doubling of the steps.
TWIRL_STEPS = 16


def _twirl_drives(r: dict) -> list[tuple[float, float]]:
    """The seeded (gamma, t) of each simulable twirl-set member."""
    rng = np.random.default_rng(r["seed"] + 7919)
    return [(r["drive_omega"] * (0.5 + rng.random()), 0.3 + 0.7 * rng.random()) for _ in range(r["n_t"])]


def _simulable_twirl_set(r: dict, lattice: LatticeSpec) -> list:
    """AQS evolutions on a seeded (gamma, t) grid: not a unitary 2-design, so the
    noise strengths carry a set-dependent bias (epsilon.json records the mode)."""
    fam = build_lattice_family(lattice)
    return [
        time_ordered_evolve(fam, EvolutionSpec(gamma=gamma, t_final=t, n_steps=TWIRL_STEPS))
        for gamma, t in _twirl_drives(r)
    ]


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset: {name!r} (have {sorted(PRESETS)})")
    return resolve_config(dict(PRESETS[name]))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return resolve_config(data)


def probe_state_vector(spec_str: str, lattice: LatticeSpec) -> np.ndarray:
    """'basis:<index>' or 'gaussian:<center>:<width>' (positions in units of a)."""
    parts = str(spec_str).split(":")
    n = lattice.n_sites
    try:
        if parts[0] == "basis":
            idx = int(parts[1]) if len(parts) > 1 else 0
            if not 0 <= idx < n:
                raise ConfigError(f"probe_state basis index {idx} out of range [0, {n})")
            v = np.zeros(n, dtype=complex)
            v[idx] = 1.0
            return v
        if parts[0] == "gaussian":
            center = float(parts[1]) if len(parts) > 1 else 0.0
            width = float(parts[2]) if len(parts) > 2 else 1.0
            x = (np.arange(n) - (n - 1) / 2.0) * lattice.spacing
            v = np.exp(-((x - center) ** 2) / (4.0 * width**2)).astype(complex)
            norm = np.linalg.norm(v)
            if not norm > 0:
                raise ConfigError(f"probe_state {spec_str!r} is not a normalizable state on this lattice")
            return v / norm
    except ValueError as exc:
        raise ConfigError(f"probe_state {spec_str!r}: {exc}") from exc
    raise ConfigError(f"unknown probe_state spec: {spec_str!r}")


def observable_matrix(spec_str: str, lattice: LatticeSpec) -> np.ndarray:
    parts = str(spec_str).split(":", 1)
    if parts[0] == "position":
        return position_operator(lattice)
    if parts[0] == "momentum-proxy":
        return sine_momentum_operator(lattice)
    if parts[0] == "file":
        if len(parts) != 2:
            raise ConfigError("a 'file' observable needs a path: 'file:<path>'")
        return read_matrix_file(parts[1])
    raise ConfigError("unknown observable spec")


def read_matrix_file(path: str) -> np.ndarray:
    """Plain-text matrix: first line dim, then dim^2 lines 're im' row-major."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        dim = int(lines[0])
        entries = [complex(float(a), float(b)) for a, b in (ln.split() for ln in lines[1:])]
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"malformed matrix file {path}: {exc}") from exc
    if dim < 1:
        raise ConfigError(f"matrix file {path}: dimension must be >= 1, got {dim}")
    if len(entries) != dim * dim:
        raise ConfigError(f"matrix file {path}: expected {dim * dim} entries, got {len(entries)}")
    M = np.asarray(entries, dtype=complex).reshape(dim, dim)
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"matrix file {path}: entries must be finite")
    return M


def write_matrix_file(path: str, M: np.ndarray) -> None:
    M = np.asarray(M, dtype=complex)
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]}\n")
        for entry in M.reshape(-1):
            fh.write(f"{entry.real:.17g} {entry.imag:.17g}\n")


def atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)
