"""Convolution characters of the restriction-deletion Hopf algebra.

Linear functionals send monomials to exact polynomials in x, y, s.  The two
infinitesimal characters detect a single loop and a single coloop; scaled
combinations of them exponentiate (by a recursion on the degree) to genuine
characters, and a two-factor convolution of such exponentials recovers the
subset-sum polynomial invariant up to a power of s.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb

from .canonical import check_size
from .formal import Monomial, Polynomial, ONE, S, X, Y, ZERO
from .hopf import CoproductMode, coproduct_monomial
from .matroid import Matroid, uniform


class NotInfinitesimal(ValueError):
    pass


class LinearFunctional:
    """A linear map from monomials to polynomials, memoized per monomial.

    ``integer_valued`` marks functionals whose values provably have integer
    coefficients; the convolution exponential asserts that its divisions by
    the degree leave them integral.  The memo is a dict on the instance, not
    a ``functools.cache`` wrapper, so that ``__call__`` stays a plain method
    that ``perfbench/tracer.py`` can wrap by name.
    """

    def __init__(self, rule, name: str = "", integer_valued: bool = False):
        self._rule = rule
        self.name = name
        self.integer_valued = integer_valued
        self._memo: dict[Monomial, Polynomial] = {}

    def __call__(self, m: Monomial) -> Polynomial:
        hit = self._memo.get(m)
        if hit is None:
            hit = self._rule(m)
            self._memo[m] = hit
        return hit

    def __repr__(self) -> str:
        return f"LinearFunctional({self.name})"


def indicator(key_matroid: Matroid, name: str) -> LinearFunctional:
    """Infinitesimal character supported on one connected class."""
    target = Monomial.from_matroid(key_matroid)
    if len(target.factors) != 1:
        raise ValueError("indicator support must be a single connected class")

    def rule(m: Monomial) -> Polynomial:
        return ONE if m == target else ZERO

    return LinearFunctional(rule, name, integer_valued=True)


@cache
def delta_loop() -> LinearFunctional:
    """1 on the class of a single loop, 0 elsewhere."""
    return indicator(uniform(0, 1), "delta_loop")


@cache
def delta_coloop() -> LinearFunctional:
    """1 on the class of a single coloop, 0 elsewhere."""
    return indicator(uniform(1, 1), "delta_coloop")


def linear_combination(parts: list[tuple[Polynomial, LinearFunctional]], name: str = "") -> LinearFunctional:
    """Sum of polynomial multiples of functionals."""

    def rule(m: Monomial) -> Polynomial:
        out = ZERO
        for coeff, f in parts:
            out = out + coeff * f(m)
        return out

    integer = all(
        f.integer_valued and c.has_integer_coefficients() for c, f in parts
    )
    return LinearFunctional(rule, name, integer_valued=integer)


def conv_unit() -> LinearFunctional:
    """The convolution unit: the counit followed by the algebra unit."""

    def rule(m: Monomial) -> Polynomial:
        return ONE if m.is_unit else ZERO

    return LinearFunctional(rule, "unit", integer_valued=True)


def convolve(f: LinearFunctional, g: LinearFunctional) -> LinearFunctional:
    """Convolution along the restriction-deletion coproduct."""

    def rule(m: Monomial) -> Polynomial:
        out = ZERO
        for (a, b), c in coproduct_monomial(CoproductMode.RD, m).terms.items():
            out = out + c * (f(a) * g(b))
        return out

    name = f"({f.name}*{g.name})"
    return LinearFunctional(rule, name, integer_valued=f.integer_valued and g.integer_valued)


def conv_exp(f: LinearFunctional) -> LinearFunctional:
    """Convolution exponential E = sum over k of f^{*k}/k! of a functional f
    vanishing on the unit.

    The restriction-deletion coproduct is cocommutative, so convolution is
    commutative, and D(g)(m) = deg(m) g(m) is a derivation of it because the
    coproduct preserves degree.  Hence D(E) = E * D(f): E(1) = 1 and
    deg(m) E(m) = sum c deg(b) E(a) f(b) over the terms c a (x) b of the
    coproduct of m.  Terms with f(b) = 0 are skipped; they include b = 1, so
    every a left has lower degree than m.  Exact rational arithmetic; when
    the input is integer valued the result must be too, and this is checked.
    """
    if f(Monomial.unit()) != ZERO:
        raise NotInfinitesimal(
            "convolution exponential needs a functional vanishing on the unit"
        )

    def rule(m: Monomial) -> Polynomial:
        if m.is_unit:
            return ONE
        out = ZERO
        for (a, b), c in coproduct_monomial(CoproductMode.RD, m).terms.items():
            fb = f(b)
            if fb:
                out = out + c * b.degree * (exp(a) * fb)
        out = out / m.degree
        if f.integer_valued and not out.has_integer_coefficients():
            raise AssertionError(
                f"exponential of {f.name or 'functional'} is not integral on {m}"
            )
        return out

    exp = LinearFunctional(rule, f"exp({f.name})", integer_valued=f.integer_valued)
    return exp


def _exp_s(coloop: Polynomial, loop: Polynomial, name: str) -> LinearFunctional:
    """exp(s(coloop delta_coloop + loop delta_loop))."""
    return conv_exp(
        linear_combination([(S * coloop, delta_coloop()), (S * loop, delta_loop())], name)
    )


@cache
def alpha_functional() -> LinearFunctional:
    """exp(s(coloop + (y-1) loop)) convolved with exp(s((x-1) coloop + loop))."""
    return convolve(
        _exp_s(ONE, Y - ONE, "s{dc+(y-1)dl}"), _exp_s(X - ONE, ONE, "s{(x-1)dc+dl}")
    )


@cache
def alpha_four_factor_functional() -> LinearFunctional:
    """Four-factor form: the pair of mutually inverse middle exponentials inserted."""
    out = _exp_s(ONE, Y - ONE, "s{dc+(y-1)dl}")
    for coloop, loop, name in (
        (-ONE, ONE, "s{-dc+dl}"),
        (ONE, -ONE, "s{dc-dl}"),
        (X - ONE, ONE, "s{(x-1)dc+dl}"),
    ):
        out = convolve(out, _exp_s(coloop, loop, name))
    return out


def alpha(matroid: Matroid) -> Polynomial:
    """The character value at a matroid class; equals s^|E| P_M(x, y)."""
    check_size(matroid.n)
    return alpha_functional()(Monomial.from_matroid(matroid))


def alpha_of_monomial(m: Monomial) -> Polynomial:
    return alpha_functional()(m)


def alpha_four_factor(matroid: Matroid) -> Polynomial:
    check_size(matroid.n)
    return alpha_four_factor_functional()(Monomial.from_matroid(matroid))


def poly_P(matroid: Matroid) -> Polynomial:
    """Subset sum of (x-1)^(c(E)-c(A)) (y-1)^(l(A)) over all subsets A.

    The walk visits every subset but groups them by (c(A), l(A)).  A pair
    seen k times with a = c(E)-c(A) and l = l(A) adds
    k C(a,i) (-1)^(a-i) C(l,j) (-1)^(l-j) to the integer coefficient of
    x^i y^j; one polynomial is built from those coefficients at the end.
    """
    check_size(matroid.n)
    loops = matroid.loops()
    nonloops = matroid.full_mask & ~loops
    pairs = Counter(
        ((a & nonloops).bit_count(), (a & loops).bit_count())
        for a in range(1 << matroid.n)
    )
    c_total = nonloops.bit_count()
    coeffs: dict[tuple[int, int, int], int] = {}
    for (c_a, l_a), k in pairs.items():
        a = c_total - c_a
        for i in range(a + 1):
            k_i = k * comb(a, i) * (-1) ** (a - i)
            for j in range(l_a + 1):
                term = k_i * comb(l_a, j) * (-1) ** (l_a - j)
                coeffs[i, j, 0] = coeffs.get((i, j, 0), 0) + term
    return Polynomial(coeffs)


def poly_P_closed_form(matroid: Matroid) -> Polynomial:
    """x^c(E) y^l(E), the monomial the subset sum collapses to."""
    c, l = matroid.element_counts()
    return X**c * Y**l


def poly_P_convolution_rhs(matroid: Matroid) -> Polynomial:
    """Sum over subsets A of P_{M|A}(0, y) P_{M\\A}(x, 0), as an RD convolution."""
    check_size(matroid.n)
    f = LinearFunctional(lambda m: poly_P(m.matroid()).eval(x=0))
    g = LinearFunctional(lambda m: poly_P(m.matroid()).eval(y=0))
    return convolve(f, g)(Monomial.from_matroid(matroid))


def poly_P_recursion_check(matroid: Matroid, e: int) -> bool:
    """Exact check of the one-element deletion recursion at element e.

    Deleting a loop multiplies the invariant by y; deleting any other
    element multiplies it by x.
    """
    factor = Y if matroid.is_loop(e) else X
    return poly_P(matroid) == factor * poly_P(matroid.delete(1 << e))
