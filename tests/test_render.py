"""Rendered sums against the term-by-term oracle in ``oracles.render_sum``."""

import pytest

from matroid_hopf import (
    CoproductMode,
    IsoKey,
    ModuleElement,
    Monomial,
    TensorElement,
    antipode_rd,
    canonical_key,
    coproduct,
    graphic,
    iterated_coproduct,
    split,
    uniform,
)
from matroid_hopf.matroid import MAX_GROUND_SET

from oracles import render_monomial, render_sum


def test_sums_render_as_the_oracle(oracle_cases):
    for m in oracle_cases:
        outputs = [antipode_rd(canonical_key(m))]
        for mode in CoproductMode:
            outputs += [coproduct(mode, m), iterated_coproduct(mode, m, "left")]
            if m.n:
                halves = split(mode, m)
                outputs += [halves.prec, halves.succ]
        for x in outputs:
            assert x.render() == render_sum(x)


def _twin(key):
    """An IsoKey equal to ``key`` but a distinct object."""
    twin = IsoKey(key.n, key.rank, key.family)
    assert twin == key and twin is not key
    return twin


@pytest.mark.parametrize(
    "matroid",
    [uniform(1, 2), graphic(3, [(0, 1), (1, 2), (2, 0), (0, 1)])],
    ids=["U12", "M(C3 + parallel edge)"],
)
def test_equal_keys_that_are_distinct_objects(matroid):
    key = canonical_key(matroid)
    other = canonical_key(uniform(1, 1))
    name = key.render()
    square = Monomial((key, _twin(key)))
    assert square.render() == render_monomial(square) == f"{name}^2"
    cube = Monomial((_twin(key), key, _twin(key)))
    mixed = Monomial(tuple(sorted((other, key, _twin(key)), key=IsoKey.sort_key)))
    t = TensorElement(
        2,
        {
            (cube, Monomial((key,))): -2,
            (Monomial((_twin(key),)), square): 1,
            (mixed, Monomial.unit()): 3,
            (Monomial((other,)), cube): 1,
        },
    )
    assert t.render() == render_sum(t)
    assert f"{name}^3⊗{name}" in t.render()
    e = ModuleElement({cube: 1, square: -1, mixed: 2, Monomial((_twin(other),)): 1})
    assert e.render() == render_sum(e)
    assert e.render().startswith(f"1*{name}^3")


def test_keys_beyond_the_ground_set_cap_render():
    n = MAX_GROUND_SET + 2
    big = IsoKey(n, 1, (0, 1, 2))
    free = IsoKey(n, n, tuple(range(1 << n)))
    assert big.render() == f"M[{n};0,1,2]"
    t = TensorElement.from_term((Monomial((big, _twin(big))), Monomial((free,))))
    assert t.render() == render_sum(t) == f"M[{n};0,1,2]^2⊗U_{{{n},{n}}}"
    e = ModuleElement({Monomial((free,)): -1})
    assert e.render() == render_sum(e) == f"-1*U_{{{n},{n}}}"
