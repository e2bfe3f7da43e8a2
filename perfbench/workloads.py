"""The benchmark's workloads: which CLI command runs on which config.

Why each workload was chosen is recorded in BENCHMARK.json.

Each config is written as overrides on top of the library defaults, the same
way the `noisy-16` and `exact-small` presets are stored, so a key the library
drops later does not break the benchmark.  The preset values are copied here
rather than read from the library, so the inputs stay fixed while the
library changes.  The workload seed becomes the config's `seed`; call i of a
run passes `--seed <seed + i>` on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

# `userkit preset noisy-16`, as overrides of the library defaults.
NOISY_16 = {
    "n_sites": 16,
    "perturbation": 1e-2,
    "n_t": 128,
    "emit": ["result_json", "epsilon_json"],
}

# The config file and the artifact directory, relative to the run's directory.
CONFIG_FILE = "config.json"
OUTPUT_DIR = "out"

ARTIFACT_FILES = {
    "result_json": "result.json",
    "epsilon_json": "epsilon.json",
    "samples_csv": "samples.csv",
    "reconstruction_csv": "reconstruction.csv",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # `userkit` subcommand: "run" or "twirl"
    overrides: dict
    # Largest |mean - exact| / spread(O) a call may show before it counts as
    # failed; None for commands that report no mean.
    oracle_tol: float | None

    def config(self, seed: int) -> dict:
        return dict(self.overrides, seed=seed, output_dir=OUTPUT_DIR)

    def artifacts(self) -> list[str]:
        """Files every successful call must leave in the output directory."""
        if self.command == "twirl":
            return ["epsilon.json"]
        return [ARTIFACT_FILES[kind] for kind in self.overrides["emit"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noisy-16",
            command="run",
            overrides=dict(NOISY_16),
            # Observed |mean - exact| / spread is 2e-3..5e-3 from the injected
            # synthesis defects; 0.05 is the slack criterion 8 adds on top of
            # the error bar.
            oracle_tol=0.05,
        ),
        Workload(
            name="lattice-128",
            command="run",
            overrides=dict(NOISY_16, n_sites=128),
            oracle_tol=0.05,
        ),
        Workload(
            name="offgrid-exact",
            command="run",
            overrides={
                "n_sites": 16,
                "perturbation": 0.0,
                "lambdas": [0.13, 0.23, 0.3, 0.45],
                "emit": ["result_json", "samples_csv", "reconstruction_csv", "epsilon_json"],
            },
            # No synthesis defect: the error is pure sinc truncation, about
            # 1.8e-8 of the spread at the time of writing.
            oracle_tol=1e-7,
        ),
        Workload(
            name="simulable-twirl",
            command="twirl",
            overrides=dict(NOISY_16, twirl_mode="simulable", n_t=64),
            oracle_tol=None,
        ),
    )
}
