import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import matroid_hopf
from matroid_hopf import cli
from matroid_hopf.matroid import MalformedRecord


def test_all_names_every_public_object_and_no_module():
    names = matroid_hopf.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not isinstance(getattr(matroid_hopf, name), ModuleType), name
    public = {
        name
        for name, value in vars(matroid_hopf).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(names)


@pytest.mark.parametrize(
    "cls, bad_input",
    [
        (matroid_hopf.AxiomViolation, True),
        (matroid_hopf.InvalidRank, True),
        (MalformedRecord, True),
        (matroid_hopf.GroundSetTooLarge, True),
        (matroid_hopf.BadVertexIndex, True),
        (matroid_hopf.EmptyMatroidError, True),
        (matroid_hopf.CatalogTooLarge, True),
        # misuse of the API, not bad input
        (matroid_hopf.ArityMismatch, False),
        (matroid_hopf.NotInfinitesimal, False),
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_input_errors_are_one_type(cls, bad_input):
    assert issubclass(cls, ValueError)
    assert issubclass(cls, matroid_hopf.InputError) == bad_input


def test_cli_raises_the_library_input_error():
    assert cli.InputError is matroid_hopf.InputError


def test_import_loads_no_heavy_stdlib_module():
    # dataclasses loads inspect, ast and dis, and these took half of the
    # package's import time; a fresh interpreter without site-packages
    # imports the package and its CLI without any of them
    src = str(Path(matroid_hopf.__file__).parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import matroid_hopf, matroid_hopf.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
