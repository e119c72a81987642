"""simlearn's runtime needs only NumPy: importing the package, the CLI and
the acceptance suite in a fresh interpreter loads no SciPy module."""

import subprocess
import sys
from pathlib import Path

import simlearn

SRC = Path(simlearn.__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import simlearn, simlearn.cli, simlearn.acceptance; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
