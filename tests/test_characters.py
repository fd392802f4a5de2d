from fractions import Fraction
from math import factorial

import pytest

from matroid_hopf import (
    GroundSetTooLarge,
    LinearFunctional,
    Monomial,
    NotInfinitesimal,
    Polynomial,
    alpha,
    alpha_four_factor,
    conv_exp,
    conv_unit,
    convolve,
    delta_coloop,
    delta_loop,
    linear_combination,
    poly_P,
    poly_P_closed_form,
    poly_P_convolution_rhs,
    poly_P_recursion_check,
    uniform,
)
from matroid_hopf.characters import alpha_of_monomial, indicator
from matroid_hopf.formal import ONE, S, X, Y, ZERO
from matroid_hopf.matroid import BadElement

from oracles import poly_P_terms


def mono(*matroids):
    out = Monomial.unit()
    for m in matroids:
        out = out * Monomial.from_matroid(m)
    return out


COLOOP_LOOP = mono(uniform(1, 1), uniform(0, 1))


class TestConvolve:
    def test_coloop_then_loop(self):
        f = convolve(delta_coloop(), delta_loop())
        assert f(COLOOP_LOOP) == ONE

    def test_loop_then_coloop(self):
        f = convolve(delta_loop(), delta_coloop())
        assert f(COLOOP_LOOP) == ONE

    def test_unit_is_neutral(self, catalog_reps):
        f = convolve(conv_unit(), delta_loop())
        g = convolve(delta_loop(), conv_unit())
        for m in catalog_reps:
            target = mono(m)
            assert f(target) == delta_loop()(target)
            assert g(target) == delta_loop()(target)

    def test_associativity(self, catalog_reps):
        a, b, c = delta_coloop(), delta_loop(), conv_unit()
        lhs = convolve(convolve(a, b), c)
        rhs = convolve(a, convolve(b, c))
        for m in catalog_reps:
            if m.n <= 3:
                assert lhs(mono(m)) == rhs(mono(m))

    def test_infinitesimal_values(self):
        assert delta_loop()(mono(uniform(0, 1))) == ONE
        assert delta_loop()(mono(uniform(1, 1))) == ZERO
        assert delta_loop()(Monomial.unit()) == ZERO
        assert delta_loop()(mono(uniform(0, 2))) == ZERO
        assert delta_coloop()(mono(uniform(1, 1))) == ONE
        assert delta_coloop()(mono(uniform(2, 2))) == ZERO


class TestConvExp:
    def test_unit_value(self):
        f = conv_exp(linear_combination([(X, delta_coloop()), (Y, delta_loop())]))
        assert f(Monomial.unit()) == ONE

    def test_coloop_plus_loop(self):
        f = conv_exp(linear_combination([(X, delta_coloop()), (Y, delta_loop())]))
        assert f(COLOOP_LOOP) == X * Y

    def test_two_coloops(self):
        f = conv_exp(linear_combination([(ONE, delta_coloop())]))
        assert f(mono(uniform(2, 2))) == ONE

    def test_not_infinitesimal_rejected(self):
        with pytest.raises(NotInfinitesimal):
            conv_exp(conv_unit())

    def test_closed_form_on_catalog(self, catalog_reps):
        f = conv_exp(linear_combination([(X, delta_coloop()), (Y, delta_loop())]))
        for m in catalog_reps:
            c, l = m.element_counts()
            assert f(mono(m)) == X**c * Y**l

    def test_integrality_asserted(self, catalog_reps):
        f = conv_exp(linear_combination([(S, delta_coloop()), (S, delta_loop())]))
        for m in catalog_reps:
            assert f(mono(m)).has_integer_coefficients()

    def test_integrality_violation_raises(self):
        loop = mono(uniform(0, 1))
        half_on_loop = LinearFunctional(
            lambda m: Polynomial.constant(Fraction(1, 2)) if m == loop else ZERO,
            "half_on_loop",
            integer_valued=True,
        )
        with pytest.raises(AssertionError):
            conv_exp(half_on_loop)(loop)

    def test_matches_truncated_series(self, catalog_reps):
        # the definition: sum over k <= deg(m) of f^{*k}(m) / k!
        monomials = [mono(m) for m in catalog_reps]
        monomials += [
            mono(a) * mono(b) for a in catalog_reps for b in catalog_reps if a.n + b.n <= 6
        ]
        # every functional the package exponentiates (alpha's four factors and
        # the closed-form check's), plus one supported in degree 2
        functionals = [
            linear_combination([(coloop, delta_coloop()), (loop, delta_loop())])
            for coloop, loop in [
                (S, S * (Y - ONE)),
                (-1 * S, S),
                (S, -1 * S),
                (S * (X - ONE), S),
                (X, Y),
            ]
        ]
        functionals.append(indicator(uniform(1, 2), "delta_u12"))
        for f in functionals:
            powers = [conv_unit()]
            while len(powers) <= 6:
                powers.append(convolve(powers[-1], f))
            exp = conv_exp(f)
            for m in monomials:
                series = ZERO
                for k in range(m.degree + 1):
                    series = series + powers[k](m) / factorial(k)
                assert exp(m) == series


class TestAlpha:
    def test_empty(self):
        assert alpha(uniform(0, 0)) == ONE

    def test_u24(self):
        assert alpha(uniform(2, 4)) == S**4 * X**4

    def test_single_loop(self):
        assert alpha(uniform(0, 1)) == S * Y

    def test_power_identity(self, catalog_reps):
        for m in catalog_reps:
            assert alpha(m) == S**m.n * poly_P(m)

    def test_four_factor_agrees(self, catalog_reps):
        assert alpha_four_factor(uniform(0, 0)) == ONE
        assert alpha_four_factor(uniform(2, 4)) == S**4 * X**4
        for m in catalog_reps:
            assert alpha_four_factor(m) == alpha(m)

    def test_size_limit_in_both_forms(self):
        # eleven loops split into one-element classes, so only an explicit
        # check stops the four-factor form
        for f in (alpha, alpha_four_factor):
            with pytest.raises(GroundSetTooLarge):
                f(uniform(0, 11))

    def test_character_property(self, catalog_reps):
        small = [m for m in catalog_reps if m.n <= 2]
        for m1 in small:
            for m2 in small:
                assert alpha_of_monomial(mono(m1) * mono(m2)) == alpha(m1) * alpha(m2)


class TestPolyP:
    def test_u24(self):
        assert poly_P(uniform(2, 4)) == X**4

    def test_loop_example(self, loop_example):
        assert poly_P(loop_example) == X**3 * Y

    def test_empty(self):
        assert poly_P(uniform(0, 0)) == ONE

    def test_size_limit(self):
        # checked before any subset walk, or components() for alpha and the
        # convolution
        for f in (poly_P, alpha, poly_P_convolution_rhs):
            with pytest.raises(GroundSetTooLarge):
                f(uniform(0, 40))

    def test_closed_form(self, catalog_reps):
        for m in catalog_reps:
            assert poly_P(m) == poly_P_closed_form(m)

    def test_multiplicative(self, catalog_reps):
        small = [m for m in catalog_reps if m.n <= 2]
        for m1 in small:
            for m2 in small:
                assert poly_P(m1.direct_sum(m2)) == poly_P(m1) * poly_P(m2)

    def test_matches_subset_sum_oracle(self, oracle_cases):
        for m in oracle_cases:
            want = {(i, j, 0): c for (i, j), c in poly_P_terms(m.independents, m.n).items()}
            got = poly_P(m).terms
            assert got == want
            assert all(type(c) is int for c in got.values())

    @pytest.mark.parametrize(
        "m",
        [
            pytest.param(uniform(0, 10), id="U0,10"),
            pytest.param(uniform(10, 10), id="U10,10"),
            pytest.param(uniform(0, 5).direct_sum(uniform(5, 5)), id="U0,5+U5,5"),
            pytest.param(uniform(2, 4).direct_sum(uniform(0, 3)), id="U2,4+U0,3"),
        ],
    )
    def test_matches_oracle_at_the_extremes(self, m):
        # the largest binomial coefficients and the most sign changes
        want = {(i, j, 0): c for (i, j), c in poly_P_terms(m.independents, m.n).items()}
        assert poly_P(m).terms == want


class TestConvolutionIdentity:
    def test_u12(self):
        assert poly_P_convolution_rhs(uniform(1, 2)) == X**2

    def test_single_loop(self):
        assert poly_P_convolution_rhs(uniform(0, 1)) == Y

    def test_all_catalog(self, catalog_reps):
        for m in catalog_reps:
            assert poly_P_convolution_rhs(m) == poly_P(m)


class TestRecursions:
    def test_loop_element(self, loop_example):
        assert poly_P_recursion_check(loop_example, 3)

    def test_uniform(self):
        for e in range(4):
            assert poly_P_recursion_check(uniform(2, 4), e)

    def test_single_coloop(self):
        assert poly_P_recursion_check(uniform(1, 1), 0)

    def test_all_catalog(self, catalog_reps):
        for m in catalog_reps:
            for e in range(m.n):
                assert poly_P_recursion_check(m, e)

    def test_bad_element(self):
        with pytest.raises(BadElement):
            poly_P_recursion_check(uniform(1, 1), 1)


class TestNegativeWitnesses:
    def test_no_deletion_contraction_recursion(self):
        m = uniform(1, 2)
        e = 0b01  # neither a loop nor a coloop
        lhs = poly_P(m)
        rhs = poly_P(m.contract(e)) + poly_P(m.delete(e))
        assert lhs == X**2
        assert rhs == X + Y
        assert lhs != rhs

    def test_not_dual_invariant(self):
        u01, u11 = uniform(0, 1), uniform(1, 1)
        assert u01 == u11.dual()
        assert poly_P(u01) == Y
        assert poly_P(u11) == X
        assert poly_P(u01) != poly_P(u11)

    def test_not_dual_invariant_with_swap(self):
        # P_M(x, y) also differs from P of the dual with x and y exchanged
        u12 = uniform(1, 2)
        assert u12.dual() == u12
        dual_poly = poly_P(u12.dual())
        swapped = Polynomial(
            {(e[1], e[0], e[2]): c for e, c in dual_poly.terms.items()}
        )
        assert poly_P(u12) == X**2
        assert swapped == Y**2
        assert poly_P(u12) != swapped
