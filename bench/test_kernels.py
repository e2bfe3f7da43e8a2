"""Micro-benchmarks of the hot kernels, on the inputs a real run gives them.

    python -m pytest bench --benchmark-only

`generate_approx_unitaries` designs the whole ensemble of the `noisy-16`
preset (four members of `n_s = 4` pulses each: each member's pulse stack, its
ordered product `U_sd = expm_product(pulses, 1.0)` and `U_k = U_sd^tau`,
returned as the two `(n_a, d, d)` stacks `(U_k, U_sd)`) at d=16 and at
n_sites=128, as `userkit twirl` does; `run` designs the same ensemble after
checking `A` from its one decomposition.  `sample_integer_powers` runs on the
grid of the last ensemble member's `U_sd` (lambda = 0.1, the longest grid) of
the `noisy-16` preset at d=16 and of the same config at n_sites=128, and
`sinc_reconstruct` interpolates the value at eta = 1 from that member's
samples, and the 121 points of `reconstruction.csv` (eta = 0 .. `ETA_MAX`) in
one call, as `run` writes them; the haar noise stage,
`estimate_noise_strength(U_k, None, psi, O)` as `run` calls it in
`twirl_mode: haar` (the `U_k` stack checked once, then every member's closed
form at once from the stacked members' overlaps, `channels.haar_strengths`),
runs on the whole ensemble of `noisy-16` at d=16 and at n_sites=128;
`estimate_noise_strength(U_k, twirl_set, psi, O)` twirls the defect channel of
every `U_k` of that ensemble at d=16 over the 64-member simulable twirl set of
`noisy-16` with `twirl_mode: simulable`, `n_t: 64` (both stacks checked once
per call, then per member one Kraus stack and `chi` formed for all set members
at once, `channels.set_strengths`);
`_simulable_twirl_set` builds that whole 64-member set (one
`time_ordered_evolve` call on the drives as arrays: pools of 8 members of
`TWIRL_STEPS` = 16 fourth-order Magnus steps, each pool multiplied out by one
`expm_product` call); `time_ordered_evolve` builds one member of such a set
(a spec of numbers) of `noisy-16` at d=16 and at n_sites=128;
`magnus_truncated` forms the order-2 Magnus operator of the lattice family at
the same drive, on a 128-step midpoint grid (acceptance criterion 3 and
`scripts/magnus_slopes.py` use 1,024 steps), at d=16 and at n_sites=128;
`expm_hermitian_i` exponentiates the first block of step generators `G_n` that
`expm_product` passes it in a run (at d=16 the first pool of the simulable
set, 8 members x 16 steps; at n_sites=128 the first 2 steps of the member
above), from matrix products, and `eig_hermitian` decomposes the same block,
as `run_sear`'s exact reference decomposes `A`.
`bench/` is outside the test suite's `testpaths`, so a plain `pytest` run
skips it.
"""

import numpy as np
import pytest

from userkit.aqs_magnus import EvolutionSpec, magnus_truncated, time_ordered_evolve
from userkit import matrix_core
from userkit.config import TWIRL_STEPS, Experiment, _simulable_twirl_set, preset_config, resolve_config
from userkit.lattice import build_lattice_family
from userkit.matrix_core import eig_hermitian, expm_hermitian_i
from userkit.sear import estimate_noise_strength, generate_approx_unitaries, run_sear
from userkit.user_recon import ETA_MAX, required_n_l, sample_integer_powers, sinc_reconstruct


def noisy_experiment(n_sites, **overrides):
    raw = dict(preset_config("noisy-16").raw, n_sites=n_sites, **overrides)
    exp = Experiment.from_config(resolve_config(raw))
    return exp, generate_approx_unitaries(exp.target_A, exp.sear)


@pytest.fixture(scope="module", params=[16, 128], ids=["d16", "d128"])
def last_member(request):
    """The inputs, the U_sd and the record of the last ensemble member of a run."""
    exp, (_, U_sd) = noisy_experiment(request.param)
    res = run_sear(exp.target_A, exp.psi, exp.O, exp.twirl_set, exp.sear)
    return exp, U_sd[-1], res.per_sample[-1]


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_generate_approx_unitaries(benchmark, n_sites):
    raw = dict(preset_config("noisy-16").raw, n_sites=n_sites)
    exp = Experiment.from_config(resolve_config(raw))
    U_k, U_sd = benchmark(generate_approx_unitaries, exp.target_A, exp.sear)
    assert U_k.shape == U_sd.shape == (len(exp.sear.lambdas), n_sites, n_sites)


def test_sample_integer_powers(benchmark, last_member):
    exp, U_sd, rec = last_member
    n_l = required_n_l(rec.lam, rec.delta)
    samples = benchmark(sample_integer_powers, exp.psi, exp.O, U_sd, n_l)
    assert samples.shape == (2 * n_l + 1,)


def test_sinc_reconstruct(benchmark, last_member):
    _, _, rec = last_member
    value = benchmark(sinc_reconstruct, rec.samples, rec.lam, 1.0, rec.delta)
    assert value == rec.value


def test_reconstruction_grid(benchmark, last_member):
    _, _, rec = last_member
    etas = np.linspace(0.0, ETA_MAX, 121)
    values = benchmark(sinc_reconstruct, rec.samples, rec.lam, etas, rec.delta)
    assert values.shape == etas.shape and values[100] == rec.value  # eta = 1


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_twirl_closed_form(benchmark, n_sites):
    exp, (U_k, _) = noisy_experiment(n_sites)
    assert exp.twirl_set is None  # twirl_mode: haar
    mean_eps, per_k = benchmark(estimate_noise_strength, U_k, None, exp.psi, exp.O)
    assert mean_eps > 0.0 and len(per_k) == len(U_k)


def test_twirl_simulable_set_d16(benchmark):
    exp, (U_k, _) = noisy_experiment(16, twirl_mode="simulable", n_t=64)
    mean_eps, per_k = benchmark(estimate_noise_strength, U_k, exp.twirl_set, exp.psi, exp.O)
    assert len(exp.twirl_set) == 64 and len(per_k) == len(U_k)


def simulable_config(n_sites=16):
    return resolve_config(dict(preset_config("noisy-16").raw, n_sites=n_sites, twirl_mode="simulable", n_t=64))


def middle_member(n_sites):
    """The lattice family at n_sites and the spec of one simulable member at
    the middle of the (gamma, t) ranges the twirl set draws from."""
    cfg = simulable_config(n_sites)
    spec = EvolutionSpec(gamma=cfg.raw["drive_omega"], t_final=0.65, n_steps=TWIRL_STEPS)
    return build_lattice_family(cfg.lattice), spec


def test_simulable_twirl_set(benchmark):
    cfg = simulable_config()
    members = benchmark(_simulable_twirl_set, cfg.raw, cfg.lattice)
    assert members.shape == (64, 16, 16)


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_time_ordered_evolve(benchmark, n_sites):
    fam, spec = middle_member(n_sites)
    U = benchmark(time_ordered_evolve, fam, spec)
    assert U.shape == (n_sites, n_sites)


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_magnus_truncated(benchmark, n_sites):
    cfg = resolve_config(dict(preset_config("noisy-16").raw, n_sites=n_sites))
    fam = build_lattice_family(cfg.lattice)
    M = benchmark(magnus_truncated, fam, cfg.raw["drive_omega"], 0.65, 2, 128)
    assert M.shape == (n_sites, n_sites)


@pytest.fixture(scope="module", params=[16, 128], ids=["d16_pool8x16", "d128_steps2"])
def first_generators(request):
    """The first block of step generators G_n that `expm_product` passes to
    `expm_hermitian_i`, captured in a run: at d=16 from the simulable set's
    build (its first pool, 8 members x 16 steps), at n_sites=128 from the
    evolution of the member above (its first 2 steps)."""
    blocks = []
    expm = matrix_core.expm_hermitian_i
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix_core, "expm_hermitian_i", lambda H, scale: blocks.append(H) or expm(H, scale))
        if request.param == 16:
            cfg = simulable_config()
            _simulable_twirl_set(cfg.raw, cfg.lattice)
        else:
            time_ordered_evolve(*middle_member(request.param))
    return blocks[0]


def test_expm_hermitian_i(benchmark, first_generators):
    assert first_generators.shape in [(8 * TWIRL_STEPS, 16, 16), (2, 128, 128)]
    U = benchmark(expm_hermitian_i, first_generators, -1.0)
    assert U.shape == first_generators.shape


def test_eig_hermitian(benchmark, first_generators):
    eig = benchmark(eig_hermitian, first_generators)
    assert eig.vectors.shape == first_generators.shape
