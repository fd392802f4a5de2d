import os
import subprocess
import sys
from pathlib import Path

import matroid_hopf

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1])},
    )


def test_show_expansions_runs():
    child = run_script("show_expansions.py")
    assert child.returncode == 0, child.stderr
    assert "restriction-deletion coproducts" in child.stdout
    assert "P_U_{2,4} = x^4" in child.stdout

