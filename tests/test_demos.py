"""Every demo runs to completion from a scratch directory and prints its
key line."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# demo script -> a line its output must hold
DEMOS = {
    "01_projection_difference_fill": "middle-spectrum pairing defect",
    "02_stationary_scattering": "a = max sin(theta/2): channel",
    "03_hankel_spectra": "Laplace-transform factorizations",
    "04_product_representation": "product identity residuals",
    "05_invariance_principle": "projection-difference identity residual",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run([sys.executable, os.path.join(REPO, "demos", f"{demo}.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert DEMOS[demo] in out.stdout
