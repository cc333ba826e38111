"""The scripts in demos/ run against the current API.

Each demo runs to completion in a subprocess.  The CT demo solves the
desk-scale scene with all three solvers at eps 1e-5, in a few seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["tv_denoising.py",
                                  "product_space_equivalences.py",
                                  "ct_reconstruction.py"])
def test_demo_runs(name):
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(
        os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    # the suite's warning filters, which a subprocess does not inherit
    warn = [f"-Werror::{w}" for w in ("RuntimeWarning", "DeprecationWarning",
                                      "PendingDeprecationWarning")]
    proc = subprocess.run([sys.executable, *warn, str(DEMOS / name)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

