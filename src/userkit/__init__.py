"""userkit: expectation-value reconstruction for analog quantum simulators.

Two pipelines:

* USER -- sample expectation values at integer powers of a simulable
  fractional-power unitary and sinc-interpolate the inaccessible value.
* SEAR -- run USER with imperfect (Magnus-truncated) discretization
  sequences, twirl the ensemble-defect channels into a depolarizing noise
  strength, and report value +/- (noise strength x observable spread).
"""

from .matrix_core import (
    TOL_EIG,
    TOL_UNITARY,
    HermitianEig,
    eig_hermitian,
    expm_hermitian_i,
    is_unitary,
)
from .user_recon import (
    Observable,
    PureState,
    ReconstructionPlan,
    SpectralUnitary,
    aliasing_rate,
    check_discretization,
    min_eigenvalue_gap,
    multiplicative_expectation,
    phase_separation,
    required_n_l,
    sinc_reconstruct,
    spectral_decompose,
    unitary_power,
    user_reconstruct,
)
from .aqs_magnus import (
    EvolutionSpec,
    HamiltonianFamily,
    SequencePlan,
    approx_discretization_unitary,
    design_sequence,
    design_sequence_drive_fit,
    magnus_omega1,
    magnus_omega2,
    magnus_truncated,
    time_ordered_evolve,
)
from .channels import (
    DensityMatrix,
    DepolarizingEstimate,
    KrausChannel,
    apply_channel,
    complementary_error_channel,
    density_from_pure,
    depolarize,
    expectation,
    haar_unitary,
    noise_strength_from_expectation,
    sear_error_channel,
    twirl_analytic,
    twirl_discrete,
    twirl_haar_mc,
)
from .sear import (
    SearConfig,
    SearResult,
    estimate_noise_strength,
    generate_approx_unitaries,
    reconstruct_members,
    run_sear,
)
from .lattice import (
    LatticeSpec,
    build_lattice_family,
    build_target_hamiltonian,
    target_A_from_hamiltonian,
)

__version__ = "0.1.0"
