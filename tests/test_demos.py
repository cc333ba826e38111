"""The scripts in demos/ run against the current API.

The two quick demos run to completion in a subprocess; the CT demo solves
the desk-scale scene with all three solvers and takes minutes, so it is
only compiled.
"""

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["tv_denoising.py",
                                  "product_space_equivalences.py"])
def test_demo_runs(name):
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(
        os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_ct_demo_compiles(tmp_path):
    py_compile.compile(str(DEMOS / "ct_reconstruction.py"),
                       cfile=str(tmp_path / "ct_reconstruction.pyc"),
                       doraise=True)
