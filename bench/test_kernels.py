"""Micro-benchmarks of the hot kernels, on the inputs a real run gives them.

    python -m pytest bench --benchmark-only

`sample_integer_powers` runs on the grid of the last ensemble member
(lambda = 0.1, the longest grid) of the `noisy-16` preset at d=16 and of the
same config at n_sites=128, and `sinc_reconstruct` interpolates the value at
eta = 1 from that member's samples; the haar noise stage,
`estimate_noise_strength(approx, None, psi, O)` as `run` calls it in
`twirl_mode: haar` (the ensemble checked once, then `twirl_analytic` per member
from the members' overlaps), runs on the whole ensemble of `noisy-16` at d=16
and at n_sites=128; `twirl_discrete` runs on the defect channel measured against
the first member at d=16 over the 64-member simulable twirl set of `noisy-16`
with `twirl_mode: simulable`, `n_t: 64`; `time_ordered_evolve` builds one
member of the simulable twirl set (`twirl_mode: simulable`, `TWIRL_STEPS` = 16
fourth-order Magnus steps) of `noisy-16` at d=16 and at n_sites=128;
`magnus_truncated` forms the order-2 Magnus operator of the lattice family at
the same drive, on the 128-step grid the drive-fit designer uses, at d=16 and
at n_sites=128; `eig_hermitian` decomposes the first block of step generators
`G_n` that `time_ordered_evolve` exponentiates at once for that member: a stack
of 16 at d=16 and one matrix at n_sites=128.  `bench/` is outside the test suite's
`testpaths`, so a plain `pytest` run skips it.
"""

import numpy as np
import pytest

from userkit.aqs_magnus import EvolutionSpec, magnus_truncated, time_ordered_evolve
from userkit.channels import sear_error_channel, twirl_discrete
from userkit.config import TWIRL_STEPS, Experiment, preset_config, resolve_config
from userkit.lattice import build_lattice_family
from userkit.matrix_core import eig_hermitian
from userkit.sear import estimate_noise_strength, generate_approx_unitaries, run_sear
from userkit.user_recon import required_n_l, sample_integer_powers, sinc_reconstruct


def noisy_experiment(n_sites, **overrides):
    raw = dict(preset_config("noisy-16").raw, n_sites=n_sites, **overrides)
    exp = Experiment.from_config(resolve_config(raw))
    return exp, generate_approx_unitaries(exp.target_A, exp.sear)


@pytest.fixture(scope="module", params=[16, 128], ids=["d16", "d128"])
def last_member(request):
    """The inputs and the record of the last ensemble member of a run."""
    exp, approx = noisy_experiment(request.param)
    res = run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear)
    return exp, approx[-1][1], res.per_sample[-1]


def test_sample_integer_powers(benchmark, last_member):
    exp, U_sd, rec = last_member
    n_l = required_n_l(rec.lam, rec.delta)
    samples = benchmark(sample_integer_powers, exp.psi, exp.O, U_sd, n_l)
    assert samples.shape == (2 * n_l + 1,)


def test_sinc_reconstruct(benchmark, last_member):
    _, _, rec = last_member
    value = benchmark(sinc_reconstruct, rec.samples, rec.lam, 1.0, rec.delta)
    assert value == rec.value


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_twirl_closed_form(benchmark, n_sites):
    exp, approx = noisy_experiment(n_sites)
    assert exp.twirl_set is None  # twirl_mode: haar
    mean_eps, per_k = benchmark(estimate_noise_strength, approx, None, exp.psi, exp.O)
    assert mean_eps > 0.0 and len(per_k) == len(approx)


def test_twirl_discrete_d16(benchmark):
    exp, approx = noisy_experiment(16, twirl_mode="simulable", n_t=64)
    unitaries = [U_k for U_k, _, _ in approx]
    ch = sear_error_channel(unitaries[0], unitaries)
    est = benchmark(twirl_discrete, ch, exp.twirl_set, exp.psi, exp.O)
    assert est.epsilon >= 0.0


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_time_ordered_evolve(benchmark, n_sites):
    cfg = resolve_config(dict(preset_config("noisy-16").raw, n_sites=n_sites))
    fam = build_lattice_family(cfg.lattice)
    # the middle of the (gamma, t) ranges the simulable twirl set draws from
    spec = EvolutionSpec(gamma=cfg.raw["drive_omega"], t_final=0.65, n_steps=TWIRL_STEPS)
    U = benchmark(time_ordered_evolve, fam, spec)
    assert U.shape == (n_sites, n_sites)


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_magnus_truncated(benchmark, n_sites):
    cfg = resolve_config(dict(preset_config("noisy-16").raw, n_sites=n_sites))
    fam = build_lattice_family(cfg.lattice)
    M = benchmark(magnus_truncated, fam, cfg.raw["drive_omega"], 0.65, 2, 128)
    assert M.shape == (n_sites, n_sites)


@pytest.mark.parametrize("n_sites, n_slices", [(16, 16), (128, 1)], ids=["d16_stack16", "d128"])
def test_eig_hermitian(benchmark, n_sites, n_slices):
    cfg = resolve_config(dict(preset_config("noisy-16").raw, n_sites=n_sites))
    fam = build_lattice_family(cfg.lattice)
    # the first steps' generators G_n of the member above
    h = 0.65 / TWIRL_STEPS
    t = np.arange(n_slices) * h
    s1 = np.sin(cfg.raw["drive_omega"] * (t + (0.5 - np.sqrt(3.0) / 6.0) * h))
    s2 = np.sin(cfg.raw["drive_omega"] * (t + (0.5 + np.sqrt(3.0) / 6.0) * h))
    H = (
        h * fam.K
        + (0.5 * h * (s1 + s2))[:, None, None] * fam.V
        + ((np.sqrt(3.0) / 12.0) * h * h * (s2 - s1))[:, None, None] * fam.iKV
    )
    H = H if n_slices > 1 else H[0]
    eig = benchmark(eig_hermitian, H)
    assert eig.vectors.shape == H.shape
