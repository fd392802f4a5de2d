import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_enumerate_oracle_counts():
    child = run_script("enumerate_oracle.py", "3")
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[1:] == [
        "n=1: labeled=2 classes=2",
        "n=2: labeled=5 classes=4",
        "n=3: labeled=16 classes=8",
    ]


def assert_usage_error(arg):
    child = run_script("enumerate_oracle.py", arg)
    assert child.returncode == 2
    assert child.stdout == ""
    assert child.stderr.splitlines() == ["usage: python scripts/enumerate_oracle.py [max_n]"]


@pytest.mark.parametrize("arg", ["--help", "three", "2.5"])
def test_enumerate_oracle_rejects_non_integer(arg):
    assert_usage_error(arg)


@pytest.mark.parametrize("arg", ["-1", "5"])
def test_enumerate_oracle_rejects_out_of_range(arg):
    # 5 would start a scan of 2^32 families: it is refused before any counting
    assert_usage_error(arg)
