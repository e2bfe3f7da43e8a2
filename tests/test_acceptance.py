"""Acceptance suite: one test per release criterion, one status line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines on stdout.  Every expected value is either computed by the
independent oracle module or asserted against a closed form.  A zero-slack
coverage check follows the criteria.
"""

import json
import time
from math import comb

import numpy as np
import pytest

from conftest import no_defect_slack, random_hermitian, random_state, random_target_A

from userkit.aqs_magnus import EvolutionSpec, magnus_truncated, time_ordered_evolve
from userkit.channels import noise_strength_from_expectation
from userkit.cli import main
from userkit.config import Experiment, preset_config, resolve_config
from userkit.lattice import LatticeSpec, build_lattice_family
from userkit.matrix_core import expm_hermitian_i
from userkit.oracle import (
    density_from_pure,
    depolarize,
    exact_intermediate_expectation,
    expectation,
    mc_haar_unitary,
    sear_error_channel,
    twirl_analytic,
    twirl_haar_mc,
)
from userkit.sear import SearConfig, run_sear
from userkit.user_recon import (
    Observable,
    PureState,
    sample_integer_powers,
    sinc_reconstruct,
    user_reconstruct,
)


def _report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{num} {name}: {detail}")
    assert ok, f"criterion-{num} {name}: {detail}"


def _run_preset(preset, seed, perturbation=None):
    """End-to-end lattice run on the CLI's pipeline, minus artifact IO."""
    raw = dict(preset_config(preset).raw, seed=seed)
    if perturbation is not None:
        raw["perturbation"] = perturbation
    exp = Experiment.from_config(resolve_config(raw))
    return run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear)


def test_criterion_1_reconstruction_exactness():
    """100 random instances, d in {2,4,8}: reconstruction vs the spectral oracle."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    lam = 0.2
    errors = []
    for i in range(100):
        d = (2, 4, 8)[i % 3]
        A = random_target_A(rng, d, min_gap=0.1)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        U_sd = expm_hermitian_i(A, np.pi * lam)
        rec, _ = user_reconstruct(psi, O, U_sd, lam, no_defect_slack(A, lam))
        exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)
        errors.append(abs(rec - exact))
    errors = np.asarray(errors)
    elapsed = time.time() - t0
    ok = bool(np.max(errors) <= 1e-2 and np.median(errors) <= 1e-3 and elapsed < 30.0)
    _report(
        1,
        "reconstruction exactness",
        ok,
        f"max={np.max(errors):.2e} median={np.median(errors):.2e} t={elapsed:.1f}s",
    )


def test_criterion_2_aliasing_violation_detected():
    """Oversized sampling steps must visibly corrupt the reconstruction.

    Adversarial two-level instances put all signal power at the top frequency;
    the step is drawn beyond the admissible range, so the band limit is broken
    and the sinc interpolant lands on the aliased signal instead.
    """
    violations = 0
    n_trials = 50
    for seed in range(n_trials):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.98, 1.0)
        V = mc_haar_unitary(2, seed + 1000)
        A = (V * np.array([w, -w])) @ V.conj().T
        th = rng.uniform(0.3, 0.7) * np.pi / 2
        ph = rng.uniform(0, 2 * np.pi)
        psi = PureState(np.cos(th) * V[:, 0] + np.sin(th) * np.exp(1j * ph) * V[:, 1])
        off = np.outer(V[:, 0], V[:, 1].conj())
        O = Observable(off + off.conj().T)
        lam = rng.uniform(0.6, 0.8)  # deliberately outside (0, 1/2)
        U_sd = expm_hermitian_i(A, np.pi * lam)
        samples = sample_integer_powers(psi, O, U_sd, 301)
        # The grid rule refuses these steps (their band slack pi (1 - 2 w lam) is
        # negative), so the kernel is drawn at slack 1; every slack from 0.1 to pi
        # corrupts the same draws.
        rec = sinc_reconstruct(samples, lam, 1.0, 1.0)
        exact = exact_intermediate_expectation(psi.amplitudes, O.matrix, A)
        if abs(rec - exact) > 0.1 * O.spread():
            violations += 1
    ok = violations >= 45
    _report(2, "aliasing violation detected", ok, f"{violations}/{n_trials} corrupted")


def test_criterion_3_magnus_convergence_slopes():
    """Defect-vs-time slopes for the driven lattice: ~2 at order 1, ~3 at order 2."""
    t0 = time.time()
    omega = 39.5
    fam = build_lattice_family(LatticeSpec(n_sites=8))
    ts = [0.2, 0.1, 0.05, 0.025]
    slopes = []
    for kappa in (1, 2):
        errs = []
        for t in ts:
            U_ref = time_ordered_evolve(fam, EvolutionSpec(gamma=omega, t_final=t, n_steps=1024))
            M = magnus_truncated(fam, omega, t, kappa, n_steps=1024)
            errs.append(np.linalg.norm(expm_hermitian_i(M, 1.0) - U_ref, 2))
        slopes.append(float(np.polyfit(np.log(ts), np.log(errs), 1)[0]))
    elapsed = time.time() - t0
    ok = abs(slopes[0] - 2.0) <= 0.3 and abs(slopes[1] - 3.0) <= 0.3 and elapsed < 60.0
    _report(
        3,
        "magnus convergence slopes",
        ok,
        f"order-1 slope={slopes[0]:.3f} order-2 slope={slopes[1]:.3f} t={elapsed:.1f}s",
    )


def test_criterion_4_analytic_twirl_vs_monte_carlo():
    """Closed-form twirl within 3 standard errors of the Monte-Carlo twirl."""
    rng = np.random.default_rng(404)
    agree = 0
    n_channels = 20
    for i in range(n_channels):
        d = (2, 4)[i % 2]
        n_a = (2, 4, 8)[i % 3]
        A = random_hermitian(rng, d)
        U_i = expm_hermitian_i(A, 1.0)
        approx = []
        for _ in range(n_a):
            delta = random_hermitian(rng, d, scale=0.1)
            approx.append(expm_hermitian_i(delta, 1.0) @ U_i)
        ch = sear_error_channel(U_i, approx)
        probe = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        analytic = twirl_analytic(U_i, approx)
        mc = twirl_haar_mc(ch, 2000, seed=5000 + i, probe=probe, O=O)
        if abs(analytic.epsilon - mc.epsilon) <= 3.0 * mc.stderr + 1e-12:
            agree += 1
    ok = agree >= 18
    _report(4, "analytic twirl vs Monte Carlo", ok, f"{agree}/{n_channels} within 3 sigma")


def test_criterion_5_exact_depolarizer_recovered():
    """Noise strengths of ideal depolarizing maps recovered to 1e-10."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for eps in (0.0, 0.1, 0.5):
        for d in (2, 4, 8):
            psi = PureState(random_state(rng, d))
            O = Observable(random_hermitian(rng, d))
            comp_value = expectation(depolarize(density_from_pure(psi), eps), O)
            rec = noise_strength_from_expectation(comp_value, psi, O)
            worst = max(worst, abs(rec - eps))
    ok = worst <= 1e-10
    _report(5, "exact depolarizer recovered", ok, f"max |eps_rec - eps|={worst:.2e}")


def test_criterion_6_error_bar_identity():
    """Reported error bar equals noise strength times observable spread."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(50):
        d = 2
        A = random_target_A(rng, d, min_gap=0.2)
        psi = PureState(random_state(rng, d))
        O = Observable(random_hermitian(rng, d))
        twirl = [mc_haar_unitary(d, rng) for _ in range(4)]
        cfg = SearConfig(lambdas=(0.25, 0.2), perturbation=1e-3, seed=i, n_s=2)
        res = run_sear(A, psi, O, twirl, cfg)
        worst = max(worst, abs(res.error_bar - res.noise_strength * res.spread))
    ok = worst <= 1e-12
    _report(6, "error-bar identity", ok, f"max defect={worst:.2e}")


def test_criterion_7_exact_mode_collapse():
    """With zero perturbation the full pipeline reproduces the ideal value."""
    res = _run_preset("exact-small", seed=1)
    err = abs(res.mean_value - res.exact_value)
    eps = abs(res.noise_strength)
    ok = err <= 1e-3 and eps <= 1e-6
    _report(7, "exact-mode collapse", ok, f"|mean-exact|={err:.2e} eps={eps:.2e}")


def test_criterion_8_noisy_coverage_and_monotonicity():
    """Noisy 16-site study: error bars cover the truth, noise grows with defects."""
    t0 = time.time()
    hits = 0
    n_seeds = 50
    for seed in range(n_seeds):
        res = _run_preset("noisy-16", seed=seed)
        err = abs(res.mean_value - res.exact_value)
        if err <= res.error_bar + 0.05 * res.spread:
            hits += 1
    medians = []
    for p in (0.0, 1e-3, 1e-2, 1e-1):
        eps = [_run_preset("noisy-16", seed=s, perturbation=p).noise_strength for s in range(8)]
        medians.append(float(np.median(eps)))
    monotone = all(medians[i] <= medians[i + 1] + 1e-12 for i in range(len(medians) - 1))
    elapsed = time.time() - t0
    ok = hits >= int(0.8 * n_seeds) and monotone and elapsed < 600.0
    _report(
        8,
        "noisy coverage and monotonicity",
        ok,
        f"coverage={hits}/{n_seeds} medians={['%.1e' % m for m in medians]} t={elapsed:.0f}s",
    )


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed produce byte-identical result artifacts."""
    cfg_path = tmp_path / "cfg.json"
    assert main(["preset", "exact-small", "--out-file", str(cfg_path)]) == 0
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["run", str(cfg_path), "--seed", "5", "--out", str(out_dir)]) == 0
        outs.append((out_dir / "result.json").read_bytes())
    ok = outs[0] == outs[1]
    _report(9, "determinism", ok, f"{len(outs[0])} bytes, identical={ok}")


def test_zero_slack_coverage():
    """The error bar alone, with no slack, covers the exact value on noisy-16.

    The bar is held to criterion 8's rate, covering at least 80% of seeds.  The
    threshold is the fewest hits that such a bar reaches with probability at
    least 99% over n_seeds independent seeds (the binomial lower 1% tail), so
    it follows from the seed count alone: 12 of 20.  A zeroed error bar covers
    no seed.
    """
    n_seeds, rate, alpha = 20, 0.8, 0.01

    def below(k):  # P(fewer than k hits) for a bar with coverage `rate`
        return sum(comb(n_seeds, j) * rate**j * (1 - rate) ** (n_seeds - j) for j in range(k))

    threshold = max(k for k in range(n_seeds + 1) if below(k) <= alpha)
    hits, ratios = 0, []
    for seed in range(n_seeds):
        res = _run_preset("noisy-16", seed=seed)
        err = abs(res.mean_value - res.exact_value)
        hits += err <= res.error_bar
        ratios.append(res.error_bar / err if err else np.inf)
    ok = hits >= threshold
    detail = f"coverage={hits}/{n_seeds} (threshold {threshold}) bar/err min={min(ratios):.2f} median={np.median(ratios):.2f}"
    print(f"[{'PASS' if ok else 'FAIL'}] zero-slack coverage: {detail}")
    assert ok, f"zero-slack coverage: {detail}"
