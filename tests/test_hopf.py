from itertools import permutations

import pytest

from matroid_hopf import (
    CoproductMode,
    GroundSetTooLarge,
    ModuleElement,
    Monomial,
    TensorElement,
    antipode_element,
    antipode_rd,
    canonical_key,
    coproduct,
    coproduct_element,
    coproduct_monomial,
    counit,
    graphic,
    iterated_coproduct,
    reduced_coproduct,
    split,
    uniform,
)
from matroid_hopf import hopf
from matroid_hopf.hopf import (
    apply_counit,
    convolve_antipode_identity,
)

from oracles import (
    antipode_rd_terms,
    coproduct_terms,
    orbit_code,
    ordered_set_partitions,
    tensor_codes,
)


def mono(*matroids):
    out = Monomial.unit()
    for m in matroids:
        out = out * Monomial.from_matroid(m)
    return out


def tensor(*term_pairs):
    out = TensorElement.zero(2)
    for coeff, legs in term_pairs:
        out = out + TensorElement.from_term(legs, coeff)
    return out


ONE_M = Monomial.unit()


class TestCoproduct:
    def test_rd_u12(self):
        u11, u12 = mono(uniform(1, 1)), mono(uniform(1, 2))
        expected = tensor((1, (ONE_M, u12)), (2, (u11, u11)), (1, (u12, ONE_M)))
        assert coproduct(CoproductMode.RD, uniform(1, 2)) == expected

    def test_rd_u24(self):
        u11 = mono(uniform(1, 1))
        u22 = mono(uniform(2, 2))
        u23 = mono(uniform(2, 3))
        u24 = mono(uniform(2, 4))
        expected = tensor(
            (1, (ONE_M, u24)),
            (4, (u11, u23)),
            (6, (u22, u22)),
            (4, (u23, u11)),
            (1, (u24, ONE_M)),
        )
        assert coproduct(CoproductMode.RD, uniform(2, 4)) == expected

    def test_rc_u12(self):
        u11, u12, u01 = mono(uniform(1, 1)), mono(uniform(1, 2)), mono(uniform(0, 1))
        expected = tensor((1, (ONE_M, u12)), (2, (u11, u01)), (1, (u12, ONE_M)))
        assert coproduct(CoproductMode.RC, uniform(1, 2)) == expected

    def test_grading(self, catalog_reps):
        for m in catalog_reps:
            for mode in CoproductMode:
                for legs in coproduct(mode, m).terms:
                    assert sum(leg.degree for leg in legs) == m.n

    def test_size_limit(self):
        with pytest.raises(GroundSetTooLarge):
            coproduct(CoproductMode.RD, uniform(0, 11))

    def test_matches_subset_oracle(self, oracle_cases):
        for m in oracle_cases:
            # oracle_cases holds isomorphic labelings (m1 + m2 and m2 + m1);
            # each must run the kernel, not take an earlier case's memo
            hopf._subset_sum_cache.clear()
            for mode in CoproductMode:
                want = coproduct_terms(m.independents, m.n, mode.value, lambda a: True)
                assert tensor_codes(coproduct(mode, m)) == want


class TestCoproductMonomial:
    def test_unit(self):
        assert coproduct_monomial(CoproductMode.RD, ONE_M) == TensorElement.from_term(
            (ONE_M, ONE_M)
        )

    def test_matches_direct_sum_coproduct(self):
        m1, m2 = uniform(1, 2), uniform(1, 3)
        assert coproduct_monomial(CoproductMode.RD, mono(m1, m2)) == coproduct(
            CoproductMode.RD, m1.direct_sum(m2)
        )

    def test_two_coloops(self):
        m = mono(uniform(1, 1)) * mono(uniform(1, 1))
        assert coproduct_monomial(CoproductMode.RD, m) == coproduct(
            CoproductMode.RD, uniform(2, 2)
        )

    def test_multiplicativity_all_pairs(self, catalog_reps):
        for m1 in catalog_reps:
            for m2 in catalog_reps:
                if m1.n + m2.n > 5:
                    continue
                lhs = coproduct(CoproductMode.RD, m1.direct_sum(m2))
                rhs = coproduct_monomial(CoproductMode.RD, mono(m1) * mono(m2))
                assert lhs == rhs

    def test_linear_extension(self):
        e = ModuleElement.from_matroid(uniform(1, 1), 3)
        t = coproduct_element(CoproductMode.RD, e)
        u = mono(uniform(1, 1))
        assert t == tensor((3, (ONE_M, u)), (3, (u, ONE_M)))


class TestCounit:
    def test_values(self):
        assert counit(ModuleElement.one()) == 1
        assert counit(ModuleElement.from_matroid(uniform(1, 1))) == 0
        e = 3 * ModuleElement.one() + 5 * ModuleElement.from_matroid(uniform(2, 4))
        assert counit(e) == 3

    def test_counit_laws(self, catalog_reps):
        for m in catalog_reps:
            for mode in CoproductMode:
                t = coproduct(mode, m)
                expected = ModuleElement.from_matroid(m)
                assert apply_counit(t, 0) == expected
                assert apply_counit(t, 1) == expected


class TestIteratedCoproduct:
    def test_u11_both_sides(self):
        u = mono(uniform(1, 1))
        expected = (
            TensorElement.from_term((ONE_M, ONE_M, u))
            + TensorElement.from_term((ONE_M, u, ONE_M))
            + TensorElement.from_term((u, ONE_M, ONE_M))
        )
        left = iterated_coproduct(CoproductMode.RD, uniform(1, 1), "left")
        right = iterated_coproduct(CoproductMode.RD, uniform(1, 1), "right")
        assert left == expected
        assert right == expected

    def test_u24_expansion(self):
        u = mono(uniform(1, 1))
        u2 = mono(uniform(2, 2))
        u3 = mono(uniform(2, 3))
        u4 = mono(uniform(2, 4))
        one = ONE_M
        expected_terms = {
            (one, one, u4): 1,
            (u, one, u3): 4,
            (one, u, u3): 4,
            (one, u2, u2): 6,
            (u, u, u2): 12,
            (u2, one, u2): 6,
            (one, u3, u): 4,
            (u, u2, u): 12,
            (u2, u, u): 12,
            (u3, one, u): 4,
            (one, u4, one): 1,
            (u, u3, one): 4,
            (u2, u2, one): 6,
            (u3, u, one): 4,
            (u4, one, one): 1,
        }
        got = iterated_coproduct(CoproductMode.RD, uniform(2, 4), "left")
        assert got == TensorElement(3, expected_terms)

    def test_coassociativity(self, catalog_reps):
        for m in catalog_reps:
            for mode in CoproductMode:
                assert iterated_coproduct(mode, m, "left") == iterated_coproduct(
                    mode, m, "right"
                )

    def test_bad_side(self):
        with pytest.raises(ValueError):
            iterated_coproduct(CoproductMode.RD, uniform(1, 1), "middle")


def test_cocommutativity_rd(catalog_reps):
    for m in catalog_reps:
        t = coproduct(CoproductMode.RD, m)
        assert t.swap() == t


def test_rc_not_cocommutative():
    t = coproduct(CoproductMode.RC, uniform(1, 2))
    assert t.swap() != t


def _subset_sums(m):
    out = []
    for mode in CoproductMode:
        halves = split(mode, m)
        out += [coproduct(mode, m), reduced_coproduct(mode, m), halves.prec, halves.succ]
    return out


@pytest.mark.parametrize(
    "m",
    [
        # a triangle with one edge doubled, a pendant edge and a self-loop
        graphic(4, [(0, 1), (1, 2), (0, 2), (0, 1), (2, 3), (3, 3)]),
        uniform(2, 4).direct_sum(uniform(0, 1)),
    ],
    ids=["triangle+parallel+coloop+loop", "U24+U01"],
)
def test_memoized_subset_sums_invariant_under_relabeling(m):
    hopf._subset_sum_cache.clear()
    want = _subset_sums(m)
    # the reference values themselves must not have shared a wrong memo entry
    full = m.full_mask
    families = (
        lambda a: True,
        lambda a: 0 < a < full,
        lambda a: 0 < a < full and not m.is_independent(a),
        lambda a: 0 < a < full and m.is_independent(a),
    )
    assert [tensor_codes(t) for t in want] == [
        coproduct_terms(m.independents, m.n, mode.value, keep)
        for mode in CoproductMode
        for keep in families
    ]
    # an automorphism gives back the same labeled matroid: check each once
    relabelings = {r.independents: r for r in map(m.relabel, permutations(range(m.n)))}
    for r in relabelings.values():
        hopf._subset_sum_cache.clear()
        got = _subset_sums(r)
        assert got == want
        # a second call on the same labeling is served from the memo
        assert all(again is first for again, first in zip(_subset_sums(r), got))


class TestAntipode:
    def test_unit(self):
        assert antipode_rd(canonical_key(uniform(0, 0))) == ModuleElement.one()

    def test_single_coloop(self):
        key = canonical_key(uniform(1, 1))
        assert antipode_rd(key) == -ModuleElement.from_matroid(uniform(1, 1))

    def test_free_rank_three(self):
        # equals -U_{3,3} + 6 U_{1,1}U_{2,2} - 6 U_{1,1}^3 in the monoid algebra
        u11_cubed = mono(uniform(1, 1), uniform(1, 1), uniform(1, 1))
        expected = (
            -ModuleElement.from_matroid(uniform(3, 3))
            + 6 * ModuleElement.from_monomial(mono(uniform(1, 1), uniform(2, 2)))
            - 6 * ModuleElement.from_monomial(u11_cubed)
        )
        assert antipode_rd(canonical_key(uniform(3, 3))) == expected

    def test_antipode_law(self, catalog_reps):
        for m in catalog_reps:
            expected = ModuleElement.one() if m.n == 0 else ModuleElement.zero()
            assert convolve_antipode_identity(m, "left") == expected
            assert convolve_antipode_identity(m, "right") == expected

    def test_multiplicative_consistency(self, catalog_reps):
        # antipode_rd of a direct-sum class agrees with antipode_element of the
        # product monomial; both reach _antipode's multiplicative path
        small = [m for m in catalog_reps if 1 <= m.n <= 2]
        for m1 in small:
            for m2 in small:
                s = m1.direct_sum(m2)
                direct = antipode_rd(canonical_key(s))
                via_product = antipode_element(
                    ModuleElement.from_monomial(mono(m1) * mono(m2))
                )
                assert direct == via_product

    def test_matches_takeuchi_oracle(self, catalog_reps):
        # Fubini numbers: ordered set partitions of a 4-set and a 5-set
        assert len(list(ordered_set_partitions(0b1111))) == 75
        assert len(list(ordered_set_partitions(0b11111))) == 541
        # the direct sums with 5 elements exercise the multiplicative path
        nonempty = [m for m in catalog_reps if m.n]
        sums = [
            m1.direct_sum(m2)
            for i, m1 in enumerate(nonempty)
            for m2 in nonempty[i:]
            if m1.n + m2.n == 5
        ]
        assert len(sums) == 66
        for m in catalog_reps + [uniform(2, 5)] + sums:
            got = {}
            for term, c in antipode_rd(canonical_key(m)).terms.items():
                code = orbit_code(term.matroid().independents, m.n)
                got[code] = got.get(code, 0) + c
            assert got == antipode_rd_terms(m.independents, m.n)

    def test_degree_preserved(self, catalog_reps):
        for m in catalog_reps:
            s = antipode_rd(canonical_key(m))
            assert all(term.degree == m.n for term in s.terms)

    def test_size_limit(self):
        from matroid_hopf import IsoKey

        with pytest.raises(GroundSetTooLarge):
            antipode_rd(IsoKey(11, 0, (0,)))
