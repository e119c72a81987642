"""simlearn's runtime needs only NumPy, and a process pool only for
``experiment --workers N`` with N > 1: importing the package, the CLI and
the acceptance suite in a fresh interpreter loads no SciPy module and no
module of the pool."""

import subprocess
import sys
from pathlib import Path

import pytest

import simlearn

SRC = Path(simlearn.__file__).resolve().parents[1]


@pytest.mark.parametrize("package", ["scipy", "multiprocessing",
                                     "concurrent"])
def test_import_loads_no(package):
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import simlearn, simlearn.cli, simlearn.acceptance; "
            "print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
