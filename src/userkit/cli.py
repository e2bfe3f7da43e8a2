"""Command-line entry point.

Subcommands:
  run <config>         Full pipeline on a JSON config; emits requested artifacts.
  preset <name>        Print (or write with --out) a ready-to-run preset config.
  decompose <matrix>   Spectral report of a unitary from a matrix file.
  twirl <config>       Noise-strength estimation only; emits epsilon_json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import (
    Experiment,
    ExperimentConfig,
    atomic_write_text,
    load_config,
    preset_config,
    read_matrix_file,
    resolve_config,
)
from .errors import ConfigError, UserKitError
from .sear import estimate_noise_strength, generate_approx_unitaries, run_sear
from .user_recon import ETA_MAX, aliasing_rate, phase_separation, sinc_reconstruct, spectral_decompose

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _output_dir(cfg: ExperimentConfig) -> str:
    """The config's output directory, created if missing; ConfigError naming it if it cannot be."""
    out_dir = cfg.raw["output_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from exc
    return out_dir


def _write_epsilon_json(cfg: ExperimentConfig, per_k: list, noise_strength: float) -> None:
    r = cfg.raw
    haar = r["twirl_mode"] == "haar"
    payload = {
        "per_k": per_k,
        "mean": noise_strength,
        "method": "closed_form/haar" if haar else "discrete_sim/simulable",
        "n_t": None if haar else r["n_t"],
    }
    atomic_write_text(
        os.path.join(r["output_dir"], "epsilon.json"),
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
    )


def _cmd_run(args) -> int:
    cfg = _apply_flags(load_config(args.config), args)
    exp = Experiment.from_config(cfg)
    res = run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear)

    out_dir = _output_dir(cfg)
    emit = set(cfg.raw["emit"])

    if "samples_csv" in emit:
        lines = ["k,eta,value"]
        for rec in res.per_sample:
            n_l = rec.samples.size // 2
            for j, val in enumerate(rec.samples):
                k = j - n_l
                lines.append(f"{k},{_fmt(k * rec.lam * exp.t_eff)},{_fmt(val)}")
        atomic_write_text(os.path.join(out_dir, "samples.csv"), "\n".join(lines) + "\n")

    if "reconstruction_csv" in emit:
        rec = res.per_sample[0]
        etas = np.linspace(0.0, ETA_MAX, 121)
        values = sinc_reconstruct(rec.samples, rec.lam, etas, rec.delta)
        lines = ["eta,interpolated_value"]
        lines.extend(f"{_fmt(eta * exp.t_eff)},{_fmt(v)}" for eta, v in zip(etas, values))
        atomic_write_text(os.path.join(out_dir, "reconstruction.csv"), "\n".join(lines) + "\n")

    if "epsilon_json" in emit:
        _write_epsilon_json(cfg, [rec.epsilon for rec in res.per_sample], res.noise_strength)

    if "result_json" in emit:
        payload = {
            "mean": res.mean_value,
            "error_bar": res.error_bar,
            "epsilon": res.noise_strength,
            "spread": res.spread,
            "exact": res.exact_value,
            "config_hash": cfg.config_hash(),
        }
        atomic_write_text(
            os.path.join(out_dir, "result.json"),
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
        )

    print(f"<O_i> ~ {res.mean_value:.12g} +/- {abs(res.error_bar):.12g}")
    return 0


def _apply_flags(cfg: ExperimentConfig, args) -> ExperimentConfig:
    raw = dict(cfg.raw)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["output_dir"] = args.out
    if args.emit:
        raw["emit"] = [kind for chunk in args.emit for kind in chunk.split(",") if kind]
    return resolve_config(raw)


def _cmd_preset(args) -> int:
    cfg = preset_config(args.name)
    cfg = _apply_flags(cfg, args)
    text = json.dumps(cfg.raw, sort_keys=True, indent=2) + "\n"
    if args.out_file:
        atomic_write_text(args.out_file, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decompose(args) -> int:
    U = read_matrix_file(args.matrix_file)
    su = spectral_decompose(U)
    P = phase_separation(su)
    print(f"dim: {su.dim}")
    print("phases:", " ".join(_fmt(p) for p in su.values))
    print(f"phase_separation: {_fmt(P)}")
    if P > 0:
        print(f"aliasing_rate: {_fmt(aliasing_rate(su))}")
    else:
        print("aliasing_rate: inf (degenerate spectrum)")
    return 0


def _cmd_twirl(args) -> int:
    """Ensemble and twirl stages only: no sampling or reconstruction."""
    cfg = _apply_flags(load_config(args.config), args)
    exp = Experiment.from_config(cfg)
    U_k, _ = generate_approx_unitaries(exp.target_A, exp.sear)
    noise_strength, per_k = estimate_noise_strength(U_k, exp.twirl_set, exp.psi, exp.O)
    _output_dir(cfg)
    _write_epsilon_json(cfg, per_k, noise_strength)
    print(f"epsilon ~ {noise_strength:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="userkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--emit", action="append", default=None, help="comma-separated artifact kinds")

    sp = sub.add_parser("run", help="run the full pipeline on a config file")
    sp.add_argument("config")
    common(sp)
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("preset", help="print a preset config")
    sp.add_argument("name")
    sp.add_argument("--out-file", default=None, help="write the config here instead of stdout")
    common(sp)
    sp.set_defaults(func=_cmd_preset)

    sp = sub.add_parser("decompose", help="spectral report for a unitary matrix file")
    sp.add_argument("matrix_file")
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("twirl", help="noise-strength estimation only")
    sp.add_argument("config")
    common(sp)
    sp.set_defaults(func=_cmd_twirl)
    return p


# Built once, at import: parse_args leaves a parser as it found it, so each
# main call parses into a fresh namespace.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UserKitError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diag), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
