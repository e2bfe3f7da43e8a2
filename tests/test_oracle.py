import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from userkit.errors import SpectrumOutOfRange
from userkit.oracle import exact_intermediate_expectation, mc_haar_unitary
from conftest import random_hermitian, random_state


class TestExactIntermediateExpectation:
    def test_zero_generator(self, rng):
        psi = random_state(rng, 4)
        O = random_hermitian(rng, 4)
        direct = float(np.real(psi.conj() @ O @ psi))
        assert exact_intermediate_expectation(psi, O, np.zeros((4, 4))) == pytest.approx(
            direct, abs=1e-12
        )

    def test_identity_observable(self, rng):
        psi = random_state(rng, 3)
        A = random_hermitian(rng, 3, scale=0.3)
        assert exact_intermediate_expectation(psi, np.eye(3), A) == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_out_of_range(self, rng):
        with pytest.raises(SpectrumOutOfRange):
            exact_intermediate_expectation(random_state(rng, 2), np.eye(2), 2.0 * np.eye(2))


class TestMcHaarUnitary:
    def test_dim_one_unit_modulus(self):
        u = mc_haar_unitary(1, 0)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_columns_normalized(self):
        U = mc_haar_unitary(5, 3)
        assert np.max(np.abs(np.linalg.norm(U, axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(U.conj().T @ U - np.eye(5))) < 1e-12

    def test_first_entry_moment(self):
        # Haar: E|U_00|^2 = 1/d; binomial-style stderr over n samples
        d, n = 3, 10000
        vals = np.array([abs(mc_haar_unitary(d, s)[0, 0]) ** 2 for s in range(n)])
        stderr = np.std(vals, ddof=1) / np.sqrt(n)
        assert abs(np.mean(vals) - 1.0 / d) <= 3.0 * stderr


class TestDependencyDirection:
    def test_main_modules_never_import_oracle(self):
        # The oracle must stay independent: reference values mean nothing if
        # the code under test can reach into the module that produced them.
        import pathlib

        import userkit

        import ast

        pkg_dir = pathlib.Path(userkit.__file__).parent
        for path in pkg_dir.glob("*.py"):
            if path.name in ("oracle.py", "__init__.py"):
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                assert not any("oracle" in n for n in names), (
                    f"{path.name} imports oracle"
                )

    def test_cli_leaves_oracle_unloaded(self):
        # oracle imports channels and user_recon; no module the CLI loads may
        # import it back, however indirectly
        code = "import sys, userkit.cli; print('userkit.oracle' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
