"""Convolution characters of the restriction-deletion Hopf algebra.

Linear functionals send monomials to exact polynomials in x, y, s.  The two
infinitesimal characters detect a single loop and a single coloop; scaled
combinations of them exponentiate (by a recursion on the degree) to genuine
characters, and a two-factor convolution of such exponentials recovers the
subset-sum polynomial invariant up to a power of s.  That invariant,
``poly_P``, depends on a matroid only through its numbers of non-loops and
loops, so it is computed and memoized once per pair of counts.

A functional records its support when its factory fixes it.  The
exponential of one supported on one-element classes reads only the
coproduct terms whose right leg has one element,
``hopf.single_deletion_terms``: every other term is multiplied by a value
of the functional outside its support, which is zero.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .formal import Monomial, Polynomial, ONE, S, X, Y, ZERO
from .hopf import CoproductMode, coproduct_monomial, single_deletion_terms
from .matroid import MAX_GROUND_SET, Matroid, check_size, class_orbits, uniform


class NotInfinitesimal(ValueError):
    pass


class LinearFunctional:
    """A linear map from monomials to polynomials, memoized per monomial.

    ``integer_valued`` marks functionals whose values provably have integer
    coefficients; the convolution exponential asserts that its divisions by
    the degree leave them integral.  The memo is a dict on the instance, not
    a ``functools.cache`` wrapper, so that ``__call__`` stays a plain method
    that ``perfbench/tracer.py`` can wrap by name.

    ``support`` is a set of monomials outside which the functional vanishes,
    or None when it is not known.
    """

    def __init__(
        self,
        rule,
        name: str = "",
        integer_valued: bool = False,
        support: frozenset[Monomial] | None = None,
    ):
        self._rule = rule
        self.name = name
        self.integer_valued = integer_valued
        self.support = support
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

    return LinearFunctional(rule, name, integer_valued=True, support=frozenset([target]))


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
    support = None
    if all(f.support is not None for _, f in parts):
        support = frozenset().union(*[f.support for _, f in parts])
    return LinearFunctional(rule, name, integer_valued=integer, support=support)


def conv_unit() -> LinearFunctional:
    """The convolution unit: the counit followed by the algebra unit."""

    def rule(m: Monomial) -> Polynomial:
        return ONE if m.is_unit else ZERO

    return LinearFunctional(
        rule, "unit", integer_valued=True, support=frozenset([Monomial.unit()])
    )


def convolve(f: LinearFunctional, g: LinearFunctional) -> LinearFunctional:
    """Convolution along the restriction-deletion coproduct."""

    def rule(m: Monomial) -> Polynomial:
        terms = coproduct_monomial(CoproductMode.RD, m).terms
        return Polynomial.sum_of_products([(c, f(a), g(b)) for (a, b), c in terms.items()])

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
    every a left has lower degree than m.  When f's support is known and
    holds only one-element classes, as for every combination of the loop
    and coloop characters, f(b) is zero unless b has one element, and the
    sum reads ``single_deletion_terms(m)`` instead of the whole coproduct;
    any other f, such as one supported on U_{1,2} or a convolution, reads
    every term.  Exact rational arithmetic; when the input is integer valued
    the result must be too: each coefficient of the sum is divided by the
    degree with ``divmod``, and a remainder raises ``AssertionError``.
    Only a functional not marked integer valued divides through
    ``Fraction``.
    """
    if f(Monomial.unit()) != ZERO:
        raise NotInfinitesimal(
            "convolution exponential needs a functional vanishing on the unit"
        )

    one_element = f.support is not None and all(b.degree == 1 for b in f.support)

    def rule(m: Monomial) -> Polynomial:
        if m.is_unit:
            return ONE
        if one_element:
            tensor = single_deletion_terms(m)
        else:
            tensor = coproduct_monomial(CoproductMode.RD, m)
        triples = []
        for (a, b), c in tensor.terms.items():
            fb = f(b)
            if fb:
                triples.append((c * b.degree, exp(a), fb))
        total = Polynomial.sum_of_products(triples)
        if not f.integer_valued:
            return total / m.degree
        out = {}
        for exps, c in total.terms.items():
            q, r = divmod(c, m.degree)
            if r:
                raise AssertionError(
                    f"exponential of {f.name or 'functional'} is not integral on {m}"
                )
            out[exps] = q
        return Polynomial(out)

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


# _SIGNED_ROWS[k][i] = C(k, i) (-1)^(k-i), the coefficient of t^i in (t-1)^k
_SIGNED_ROWS = tuple(
    tuple(comb(k, i) * (-1) ** (k - i) for i in range(k + 1))
    for k in range(MAX_GROUND_SET + 1)
)


def poly_P(matroid: Matroid) -> Polynomial:
    """Subset sum of (x-1)^(c(E)-c(A)) (y-1)^(l(A)) over all subsets A.

    A term depends on A only through its counts c(A) of non-loops and l(A)
    of loops, so the sum depends on M only through (c(E), l(E)): it is
    computed once per pair of counts, by ``_counts_poly``, and every
    matroid with those counts shares that polynomial.
    """
    check_size(matroid.n)
    return _counts_poly(*matroid.element_counts())


@cache
def _counts_poly(c_total: int, l_total: int) -> Polynomial:
    """P of any matroid with c_total non-loops and l_total loops.

    The sum runs over ``class_orbits`` of the non-loop and the loop class,
    here the first c_total elements and the l_total after them: one subset
    per pair (c(A), l(A)), weighted by the C(c(E), c(A)) C(l(E), l(A))
    subsets it stands for.

    The expansion reads the signed coefficients of (t-1)^k from precomputed
    rows.  An orbit of weight w with a = c(E)-c(A) and l = l(A) adds w times
    row a to the x-row of l; each x-row times row l gives integer
    coefficients of x^i y^j, and one polynomial is built from them.
    """
    nonloops = (1 << c_total) - 1
    loops = ((1 << l_total) - 1) << c_total
    x_rows: dict[int, list[int]] = {}
    for a, w in class_orbits((nonloops, loops)):
        x_row = x_rows.setdefault((a & loops).bit_count(), [0] * (c_total + 1))
        for i, r in enumerate(_SIGNED_ROWS[c_total - (a & nonloops).bit_count()]):
            x_row[i] += w * r
    coeffs: dict[tuple[int, int, int], int] = {}
    for l_a, x_row in x_rows.items():
        for j, r in enumerate(_SIGNED_ROWS[l_a]):
            for i, c in enumerate(x_row):
                if c:
                    coeffs[i, j, 0] = coeffs.get((i, j, 0), 0) + c * r
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
