"""The benchmark tracer must find every boundary it wraps in the package.

A deleted or renamed traced name (a method such as ``Monomial.from_factors``,
a function such as ``alpha_of_monomial``, a ``check_*`` suite) makes
``Tracer.install`` raise ``TracerError``; this test fails on it here instead
of only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import matroid_hopf
# loaded before the snapshot below, since the tracer wraps its suites
import matroid_hopf.verify  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings(tracer):
    """Every name bound in a package module or on a package class."""
    out = {}
    for short, mod in tracer.package_modules().items():
        for name, value in vars(mod).items():
            out[short, name] = value
            if isinstance(value, type) and value.__module__.startswith("matroid_hopf"):
                for attr, member in vars(value).items():
                    out[short, name, attr] = member
    return out


def test_tracer_installs_and_restores_every_boundary():
    tracer = load_tracer()
    before = package_bindings(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = matroid_hopf.characters.alpha_of_monomial
        assert wrapped is not before["characters", "alpha_of_monomial"]
    finally:
        t.uninstall()
    after = package_bindings(tracer)
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []
