import copy
import pickle
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, strategies as st

from matroid_hopf import (
    ArityMismatch,
    ModuleElement,
    Monomial,
    Polynomial,
    TensorElement,
    canonical_key,
    conv_exp,
    delta_coloop,
    Matroid,
    linear_combination,
    module_product,
    uniform,
)
from matroid_hopf.formal import ONE, S, X, Y, ZERO

from oracles import contract_family, restrict_family


def mono(*matroids):
    out = Monomial.unit()
    for m in matroids:
        out = out * Monomial.from_matroid(m)
    return out


class TestPolynomial:
    def test_partial_evaluation(self):
        assert (X**4).eval(x=0) == ZERO
        p = X**3 * Y
        assert p.eval(y=0) == ZERO
        assert p.eval(x=1) == Y
        assert ((X - ONE) ** 2).eval(x=3) == Polynomial.constant(4)

    def test_fractional_substitution(self):
        p = X * Y + S
        assert p.eval(x=Fraction(1, 2), y=Fraction(2, 3)) == S + Polynomial.constant(
            Fraction(1, 3)
        )

    def test_zero_coefficients_dropped(self):
        assert not (X - X).terms
        assert (X * 0) == ZERO

    def test_rendering(self):
        assert (S**4 * X**4).render() == "s^4*x^4"
        assert (S * Y).render() == "s*y"
        assert ZERO.render() == "0"
        assert (X**2 - X - 2 * Y).render() == "x^2 - x - 2*y"
        assert (X / 2).render() == "1/2*x"

    def test_power(self):
        assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2

    def test_integer_coefficient_probe(self):
        assert (3 * X).has_integer_coefficients()
        assert not (X / 2).has_integer_coefficients()

    def test_foreign_operands_raise_type_error(self):
        # in either order; ``1.5 - X`` once recursed in __rsub__ without end
        assert 1 - X == ONE - X and Fraction(1, 2) - X == -(X - Fraction(1, 2))
        for other in (1.5, None):
            for op in (lambda: X - other, lambda: other - X, lambda: other + X, lambda: other * X):
                with pytest.raises(TypeError):
                    op()


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(max_denominator=6).filter(lambda q: abs(q) <= 5),
    max_size=4,
).map(Polynomial)


def stored_as_int_iff_integral(p):
    return all(
        (type(c) is int) == (Fraction(c).denominator == 1) for c in p.terms.values()
    )


@given(small_polys, small_polys, small_polys)
def test_polynomial_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    for value in (p, p + q, p - q, p * q, -p, p / 3, p**2):
        assert stored_as_int_iff_integral(value)


@given(
    small_polys,
    small_polys,
    st.fractions(max_denominator=4),
    st.fractions(max_denominator=4),
)
def test_evaluation_is_a_ring_map(p, q, a, b):
    assert (p * q).eval(x=a, y=b) == p.eval(x=a, y=b) * q.eval(x=a, y=b)
    assert (p + q).eval(x=a, y=b) == p.eval(x=a, y=b) + q.eval(x=a, y=b)
    assert stored_as_int_iff_integral(p.eval(x=a, y=b))


@given(st.lists(st.tuples(st.integers(-3, 3), small_polys, small_polys), max_size=4))
def test_sum_of_products_matches_the_termwise_sum(triples):
    termwise = ZERO
    for c, p, q in triples:
        termwise = termwise + c * (p * q)
    fused = Polynomial.sum_of_products(triples)
    assert fused == termwise
    assert stored_as_int_iff_integral(fused)


def test_sum_of_products_cleans_once():
    # halves that add up to an integer, and terms that cancel, as in an
    # exponential's recursion before its division by the degree
    fused = Polynomial.sum_of_products([(1, X / 2, Y), (3, X / 2, Y), (2, S, ONE), (-2, ONE, S)])
    assert fused.terms == {(1, 1, 0): 2}
    assert type(fused.terms[1, 1, 0]) is int
    assert Polynomial.sum_of_products([]) == ZERO


class TestCoefficientTypes:
    def test_integral_values_are_ints(self):
        exp_two_coloops = conv_exp(linear_combination([(S, delta_coloop())]))(
            mono(uniform(1, 1), uniform(1, 1))
        )
        assert exp_two_coloops == S**2
        for p in (
            Polynomial({(1, 0, 0): Fraction(4, 2)}),
            (X / 2) * 2,
            X / 2 + X / 2,
            Polynomial.constant(Fraction(-6, 3)),
            exp_two_coloops,
        ):
            assert {type(c) for c in p.terms.values()} == {int}

    def test_non_integral_values_stay_fractions(self):
        half = (X / 2).terms[(1, 0, 0)]
        assert type(half) is Fraction and half == Fraction(1, 2)
        assert type((X * Fraction(2, 3) + Y).terms[(1, 0, 0)]) is Fraction

    def test_int_and_fraction_inputs_agree(self):
        ints = Polynomial({(2, 0, 0): 3, (0, 1, 0): -1, (0, 0, 0): 1})
        fracs = Polynomial(
            {(2, 0, 0): Fraction(3), (0, 1, 0): Fraction(-2, 2), (0, 0, 0): Fraction(1)}
        )
        assert ints == fracs
        assert hash(ints) == hash(fracs)
        assert ints.render() == fracs.render() == "3*x^2 - y + 1"
        assert ints == 3 * X**2 - Y + Fraction(1)

    @pytest.mark.parametrize(
        "poly, scalar",
        [
            (ONE, 1),
            (Polynomial.constant(-3), -3),
            (Polynomial.constant(Fraction(1, 2)), Fraction(1, 2)),
            (X / 2 * 4 - 2 * X + 5, 5),
        ],
    )
    def test_constant_hashes_as_its_scalar(self, poly, scalar):
        assert poly == scalar and hash(poly) == hash(scalar)
        assert {scalar: "a"}.get(poly) == "a"
        assert {poly: "a"}.get(scalar) == "a"

    def test_zero_hashes_as_zero(self):
        for zero in (ZERO, X - X, Polynomial({(0, 0, 0): 0})):
            assert zero == 0 and hash(zero) == hash(0) == hash(Fraction(0))
            assert {0: "a"}.get(zero) == "a"
        assert {ZERO, 0, Fraction(0)} == {0}

    def test_coefficient_and_integrality_probe(self):
        assert X.coefficient((1, 0, 0)) == 1
        assert X.coefficient((0, 1, 0)) == 0
        assert (X / 2).coefficient((1, 0, 0)) == Fraction(1, 2)
        assert ZERO.has_integer_coefficients()
        assert ((X / 2) * 2).has_integer_coefficients()
        assert not (X / 2 + Y).has_integer_coefficients()


class TestMonomial:
    def test_unit(self):
        assert Monomial.unit().is_unit
        assert Monomial.unit().degree == 0
        assert mono(uniform(1, 2)) * Monomial.unit() == mono(uniform(1, 2))

    def test_decomposes_into_connected_factors(self):
        m = mono(uniform(2, 2))
        assert m == mono(uniform(1, 1)) * mono(uniform(1, 1))
        assert len(m.factors) == 2

    def test_from_factors_normalizes(self):
        key = canonical_key(uniform(2, 2))
        assert Monomial.from_factors([key]) == mono(uniform(1, 1), uniform(1, 1))

    def test_from_factors_is_the_class_of_each_key(self, catalogs):
        # every n <= 4 class, the empty and the disconnected ones included
        keys = [key for n in range(5) for key in catalogs[n].classes]
        singles = {}
        for key in keys:
            singles[key] = Monomial.from_factors([key])
            assert singles[key] == Monomial.from_matroid(key.matroid())
        assert Monomial.from_factors([]) == Monomial.unit()
        for k1 in keys:
            for k2 in keys:
                assert Monomial.from_factors([k1, k2]) == singles[k1] * singles[k2]
        three = keys[-3:]
        assert Monomial.from_factors(three) == reduce(mul, (singles[k] for k in three))

    def test_product_of_classes_is_class_of_direct_sum(self, catalog_reps):
        small = [m for m in catalog_reps if m.n <= 2]
        for m1 in small:
            for m2 in small:
                assert mono(m1) * mono(m2) == mono(m1.direct_sum(m2))

    def test_degree_grading(self, catalog_reps):
        for m in catalog_reps:
            assert mono(m).degree == m.n
        a, b = mono(uniform(1, 2)), mono(uniform(2, 4))
        assert (a * b).degree == a.degree + b.degree
        # degree is stored when a monomial is built, on every way to build one
        ones = [Monomial.from_matroid(m) for m in catalog_reps]
        products = [p * q for p in ones[:8] for q in ones[-8:]]
        for m in [Monomial.unit(), *ones, *products]:
            assert m.degree == sum(k.n for k in m.factors)

    def test_pickle_and_copy_round_trips(self, catalog_reps):
        for m in [Monomial.unit()] + [mono(r) for r in catalog_reps]:
            for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
                assert type(twin) is Monomial
                assert twin == m and twin.degree == m.degree and hash(twin) == hash(m)

    def test_no_tuple_arithmetic(self):
        # a monomial is a tuple underneath, but not for + and int * m;
        # nor does it carry a per-instance __dict__
        m = mono(uniform(1, 2))
        for op in (lambda: m + m, lambda: 3 * m, lambda: (m,) + m):
            with pytest.raises(TypeError):
                op()
        assert not hasattr(m, "__dict__")

    def test_factor_keys_refuse_tuple_arithmetic(self):
        # a key is a tuple underneath, but neither sums nor repeats
        key = canonical_key(uniform(1, 2))
        for op in (
            lambda: key + key,
            lambda: (key,) + key,
            lambda: key + (1,),
            lambda: 2 * key,
            lambda: key * 2,
        ):
            with pytest.raises(TypeError):
                op()

    def test_product_with_a_foreign_operand_raises_type_error(self):
        for other in (3, "x", None):
            with pytest.raises(TypeError):
                Monomial.unit() * other

    def test_rendering(self):
        assert Monomial.unit().render() == "1"
        assert mono(uniform(3, 3)).render() == "U_{1,1}^3"
        assert mono(uniform(1, 2), uniform(1, 3)).render() == "U_{1,2}.U_{1,3}"

    def test_class_of_a_minor_on_masks(self, oracle_cases):
        # from_matroid(M, mask, base) against the class of the minor that the
        # oracles build, with and without one block table shared by every
        # minor of M, and every maximal independent subset of A as the base
        # of M/A
        for m in oracle_cases:
            fam, full, shared = list(m.independents), m.full_mask, {}
            for a in range(1 << m.n):
                want = mono(Matroid(a.bit_count(), tuple(restrict_family(fam, a))))
                assert Monomial.from_matroid(m, a) == want
                assert Monomial.from_matroid(m, a, 0, shared) == want
                rest = full ^ a
                want = mono(Matroid(rest.bit_count(), tuple(contract_family(fam, m.n, a))))
                inside = [s for s in fam if s & ~a == 0]
                rank = max(s.bit_count() for s in inside)
                for base in (s for s in inside if s.bit_count() == rank):
                    assert Monomial.from_matroid(m, rest, base) == want
                    assert Monomial.from_matroid(m, rest, base, shared) == want

    def test_representative_matroid_round_trip(self, catalog_reps):
        for m in catalog_reps:
            assert mono(mono(m).matroid()) == mono(m)


class TestModuleElement:
    def test_product_examples(self):
        one = ModuleElement.one()
        m = ModuleElement.from_matroid(uniform(2, 4))
        assert module_product(one, m) == m
        a = ModuleElement.from_matroid(uniform(1, 2))
        b = ModuleElement.from_matroid(uniform(1, 3))
        prod = module_product(a, b)
        assert prod == ModuleElement.from_monomial(mono(uniform(1, 2), uniform(1, 3)))

    def test_bilinearity(self):
        a = 2 * ModuleElement.from_matroid(uniform(1, 1))
        b = 3 * ModuleElement.from_matroid(uniform(1, 1))
        prod = module_product(a, b)
        assert prod == ModuleElement.from_monomial(mono(uniform(2, 2)), 6)

    def test_associative_commutative(self, catalog_reps):
        xs = [ModuleElement.from_matroid(m) for m in catalog_reps if 1 <= m.n <= 2]
        for a in xs[:4]:
            for b in xs[:4]:
                assert module_product(a, b) == module_product(b, a)
                for c in xs[:4]:
                    assert module_product(module_product(a, b), c) == module_product(
                        a, module_product(b, c)
                    )

    def test_sum_of_products_matches_the_termwise_sum(self, catalog_reps):
        xs = [ModuleElement.from_matroid(m) for m in catalog_reps if m.n <= 2]
        xs += [xs[1] - 2 * xs[2], 3 * xs[3] + xs[0]]
        triples = [(c, a, b) for c in (-2, 1, 3) for a in xs for b in xs[::2]]
        termwise = ModuleElement.zero()
        for c, a, b in triples:
            termwise = termwise + c * module_product(a, b)
        assert ModuleElement.sum_of_products(triples) == termwise
        # terms that cancel are dropped once, at the end
        a = ModuleElement.from_matroid(uniform(1, 1))
        assert not ModuleElement.sum_of_products([(2, a, a), (-1, 2 * a, a)]).terms
        assert ModuleElement.sum_of_products([]) == ModuleElement.zero()

    def test_zero_coefficients_dropped(self):
        a = ModuleElement.from_matroid(uniform(1, 1))
        assert not (a - a).terms
        assert (0 * a) == ModuleElement.zero()

    def test_rendering(self):
        u11 = mono(uniform(1, 1))
        u12 = mono(uniform(1, 2))
        e = ModuleElement({u12: -1, u11 * u11: 6})
        assert e.render() == "-1*U_{1,2} + 6*U_{1,1}^2"
        assert ModuleElement.zero().render() == "0"

    def test_sum_with_a_foreign_operand_raises_type_error(self):
        for other in (3, "x", Monomial.unit()):
            with pytest.raises(TypeError):
                ModuleElement.one() + other
            with pytest.raises(TypeError):
                other + ModuleElement.one()

    def test_difference_with_a_foreign_operand_raises_type_error(self):
        for other in (3, "x", Monomial.unit()):
            with pytest.raises(TypeError):
                ModuleElement.one() - other
            with pytest.raises(TypeError):
                other - ModuleElement.one()

    def test_product_with_a_foreign_operand_raises_type_error(self):
        one = ModuleElement.one()
        assert one * 2 == 2 * one == ModuleElement({Monomial.unit(): 2})
        for other in ("x", 1.5, Monomial.unit()):
            with pytest.raises(TypeError):
                one * other
            with pytest.raises(TypeError):
                other * one


class TestTensorElement:
    def test_swap(self):
        a, b = mono(uniform(1, 1)), mono(uniform(0, 1))
        t = TensorElement.from_term((a, b))
        assert t.swap() == TensorElement.from_term((b, a))
        sym = TensorElement.from_term((a, b)) + TensorElement.from_term((b, a))
        assert sym.swap() == sym
        assert t.swap().swap() == t

    def test_swap_arity_mismatch(self):
        t = TensorElement.from_term((Monomial.unit(),) * 3)
        with pytest.raises(ArityMismatch):
            t.swap()

    def test_arity_checked(self):
        with pytest.raises(ArityMismatch):
            TensorElement(4)
        with pytest.raises(ArityMismatch):
            TensorElement(2, {(Monomial.unit(),) * 3: 1})
        t2 = TensorElement.from_term((Monomial.unit(), Monomial.unit()))
        t3 = TensorElement.from_term((Monomial.unit(),) * 3)
        with pytest.raises(ArityMismatch):
            t2 + t3

    def test_sum_with_a_foreign_operand_raises_type_error(self):
        for other in (3, "x", ModuleElement.one()):
            with pytest.raises(TypeError):
                TensorElement.zero(2) + other
            with pytest.raises(TypeError):
                other + TensorElement.zero(2)

    def test_difference_with_a_foreign_operand_raises_type_error(self):
        for other in (3, "x", ModuleElement.one()):
            with pytest.raises(TypeError):
                TensorElement.zero(2) - other
            with pytest.raises(TypeError):
                other - TensorElement.zero(2)

    def test_scalar_multiple_must_be_an_int(self):
        t = TensorElement.from_term((Monomial.unit(), Monomial.unit()))
        assert 2 * t == TensorElement.from_term((Monomial.unit(), Monomial.unit()), 2)
        for other in ("x", 1.5):
            with pytest.raises(TypeError):
                other * t

    def test_legwise_product(self):
        a, b = mono(uniform(1, 1)), mono(uniform(0, 1))
        t1 = TensorElement.from_term((a, b), 2)
        t2 = TensorElement.from_term((b, a), 3)
        assert t1.legwise_product(t2) == TensorElement.from_term((a * b, b * a), 6)

    def test_legwise_product_with_a_foreign_operand_raises_type_error(self):
        t = TensorElement.zero(2)
        for other in (3, ModuleElement.one()):
            with pytest.raises(TypeError, match="^expected a TensorElement, got "):
                t.legwise_product(other)

    def test_expand_leg(self):
        one = Monomial.unit()
        a, b, c = mono(uniform(1, 1)), mono(uniform(0, 1)), mono(uniform(1, 2))
        t = TensorElement.from_term((a, b), 2) + TensorElement.from_term((b, c), 3)

        def f(m):
            return TensorElement.from_term((one, m)) + TensorElement.from_term((m, m), 5)

        def t3(*terms):
            out = TensorElement.zero(3)
            for coeff, *legs in terms:
                out = out + TensorElement.from_term(tuple(legs), coeff)
            return out

        assert t.expand_leg(0, f) == t3(
            (2, one, a, b), (10, a, a, b), (3, one, b, c), (15, b, b, c)
        )
        assert t.expand_leg(1, f) == t3(
            (2, a, one, b), (10, a, b, b), (3, b, one, c), (15, b, c, c)
        )

    @pytest.mark.parametrize("leg", [2, -1])
    def test_expand_leg_rejects_other_legs(self, leg):
        t = TensorElement.from_term((Monomial.unit(), Monomial.unit()))
        with pytest.raises(ValueError, match=f"^leg must be 0 or 1, got {leg}$"):
            t.expand_leg(leg, lambda m: TensorElement.from_term((m, m)))

    def test_expand_leg_arity_mismatch(self):
        t = TensorElement.from_term((Monomial.unit(),) * 3)
        with pytest.raises(ArityMismatch):
            t.expand_leg(0, lambda m: TensorElement.from_term((m, m)))

    def test_rendering(self):
        a, b = mono(uniform(1, 1)), mono(uniform(1, 2))
        t = (
            TensorElement.from_term((Monomial.unit(), b))
            + 2 * TensorElement.from_term((a, a))
            + TensorElement.from_term((b, Monomial.unit()))
        )
        assert t.render() == "1⊗U_{1,2} + 2*U_{1,1}⊗U_{1,1} + U_{1,2}⊗1"
