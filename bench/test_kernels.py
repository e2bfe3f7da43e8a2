"""Micro-benchmarks of the hot kernels, on the inputs a real run gives them.

    python -m pytest bench --benchmark-only

`sample_integer_powers` runs on the grid of the last ensemble member
(lambda = 0.1, the longest grid) of the `noisy-16` preset at d=16 and of the
same config at n_sites=128; `twirl_discrete` runs on the first complementary
defect channel of `noisy-16` over its 128-member Haar twirl set;
`time_ordered_evolve` builds one member of the simulable twirl set
(`twirl_mode: simulable`, 128 slices) of `noisy-16` at d=16 and at
n_sites=128; `magnus_truncated` forms the order-2 Magnus operator of the
lattice family at the same drive, on the 128-step grid the drive-fit designer
uses, at d=16 and at n_sites=128.  `bench/` is outside the test suite's
`testpaths`, so a plain `pytest` run skips it.
"""

import pytest

from userkit.aqs_magnus import EvolutionSpec, magnus_truncated, time_ordered_evolve
from userkit.channels import complementary_error_channel, twirl_discrete
from userkit.config import Experiment, preset_config, resolve_config
from userkit.lattice import build_lattice_family
from userkit.matrix_core import eig_hermitian
from userkit.sear import generate_approx_unitaries
from userkit.user_recon import ReconstructionPlan, min_eigenvalue_gap, sample_integer_powers


def noisy_experiment(n_sites):
    raw = dict(preset_config("noisy-16").raw, n_sites=n_sites)
    exp = Experiment.from_config(resolve_config(raw))
    return exp, generate_approx_unitaries(exp.target_A, exp.sear)


@pytest.fixture(scope="module", params=[16, 128], ids=["d16", "d128"])
def sampling_inputs(request):
    exp, approx = noisy_experiment(request.param)
    _, U_sd, plan = approx[-1]
    gap = min_eigenvalue_gap(eig_hermitian(exp.target_A))
    n_l = ReconstructionPlan.from_gap(gap, plan.lam, exp.sear.safety).n_l
    return exp.psi, exp.O, U_sd, n_l


def test_sample_integer_powers(benchmark, sampling_inputs):
    psi, O, U_sd, n_l = sampling_inputs
    samples = benchmark(sample_integer_powers, psi, O, U_sd, n_l)
    assert samples.shape == (2 * n_l + 1,)


def test_twirl_discrete_d16(benchmark):
    exp, approx = noisy_experiment(16)
    ch = complementary_error_channel([U_k for U_k, _, _ in approx], 0)
    est = benchmark(twirl_discrete, ch, exp.twirl_set, exp.psi, exp.O)
    assert est.epsilon >= 0.0


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_time_ordered_evolve(benchmark, n_sites):
    cfg = resolve_config(dict(preset_config("noisy-16").raw, n_sites=n_sites))
    fam = build_lattice_family(cfg.lattice)
    # the middle of the (gamma, t) ranges the simulable twirl set draws from
    spec = EvolutionSpec(gamma=cfg.raw["drive_omega"], t_final=0.65, n_steps=128)
    U = benchmark(time_ordered_evolve, fam, spec)
    assert U.shape == (n_sites, n_sites)


@pytest.mark.parametrize("n_sites", [16, 128], ids=["d16", "d128"])
def test_magnus_truncated(benchmark, n_sites):
    cfg = resolve_config(dict(preset_config("noisy-16").raw, n_sites=n_sites))
    fam = build_lattice_family(cfg.lattice)
    M = benchmark(magnus_truncated, fam, cfg.raw["drive_omega"], 0.65, 2, 128)
    assert M.shape == (n_sites, n_sites)
