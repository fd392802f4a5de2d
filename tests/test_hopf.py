import os
import subprocess
import sys
import textwrap
from itertools import combinations, permutations
from math import prod
from pathlib import Path

import pytest

import matroid_hopf
from matroid_hopf import (
    ArityMismatch,
    CoproductMode,
    GroundSetTooLarge,
    Matroid,
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
from matroid_hopf import canonical, dendriform, hopf
from matroid_hopf.hopf import (
    apply_counit,
    convolve_antipode_identity,
    single_deletion_terms,
)
from matroid_hopf.matroid import class_orbits

from oracles import (
    antipode_rd_terms,
    coproduct_terms,
    generated_orbit,
    least_relabeled_family,
    ordered_set_partitions,
    tensor_codes,
    twin_transpositions,
)
from test_canonical import ORACLE_INPUTS


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
            coproduct(CoproductMode.RD, Matroid(11, (0,)))

    def test_matches_subset_oracle(self, oracle_cases):
        for m in oracle_cases:
            # oracle_cases holds isomorphic labelings (m1 + m2 and m2 + m1);
            # each must run the kernel, not take an earlier case's memo
            hopf._class_subset_sum.cache_clear()
            dendriform._halves.cache_clear()
            full = m.full_mask
            for mode in CoproductMode:
                want = coproduct_terms(m.independents, m.n, mode.value, lambda a: True)
                assert tensor_codes(coproduct(mode, m)) == want
                if m.n:
                    want = coproduct_terms(
                        m.independents, m.n, mode.value, lambda a: 0 < a < full
                    )
                    assert tensor_codes(reduced_coproduct(mode, m)) == want


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

    @pytest.mark.parametrize("leg", [2, -1])
    def test_rejects_other_legs(self, leg):
        t = coproduct(CoproductMode.RD, uniform(1, 2))
        with pytest.raises(ValueError, match=f"^leg must be 0 or 1, got {leg}$"):
            apply_counit(t, leg)

    def test_rejects_an_arity_three_tensor(self):
        t = iterated_coproduct(CoproductMode.RD, uniform(1, 2), "left")
        assert t.arity == 3
        for leg in (0, 1):
            with pytest.raises(ArityMismatch, match="only defined for arity-2 tensors$"):
                apply_counit(t, leg)


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


@pytest.mark.parametrize("mode", ["rd", None])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda mode: coproduct(mode, uniform(1, 2)), id="coproduct"),
        pytest.param(lambda mode: split(mode, uniform(1, 3)), id="split"),
        pytest.param(
            lambda mode: coproduct_monomial(mode, mono(uniform(1, 2))),
            id="coproduct_monomial",
        ),
        pytest.param(
            lambda mode: coproduct_monomial(mode, mono(uniform(1, 2), uniform(0, 1))),
            id="coproduct_monomial-product",
        ),
        # the unit is the empty matroid's class, checked like any class
        pytest.param(
            lambda mode: coproduct_monomial(mode, Monomial.unit()),
            id="coproduct_monomial-unit",
        ),
    ],
)
def test_mode_must_be_a_coproduct_mode(call, mode):
    with pytest.raises(ValueError, match=f"^mode must be a CoproductMode, got {mode!r}$"):
        call(mode)


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


def _oracle_subset_sums(m):
    """The sums of ``_subset_sums(m)``, in its order, by the subset oracle."""
    full = m.full_mask
    families = (
        lambda a: True,
        lambda a: 0 < a < full,
        lambda a: 0 < a < full and not m.is_independent(a),
        lambda a: 0 < a < full and m.is_independent(a),
    )
    return [
        coproduct_terms(m.independents, m.n, mode.value, keep)
        for mode in CoproductMode
        for keep in families
    ]


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
    hopf._class_subset_sum.cache_clear()
    dendriform._halves.cache_clear()
    want = _subset_sums(m)
    # the reference values themselves must not have shared a wrong memo entry
    assert [tensor_codes(t) for t in want] == _oracle_subset_sums(m)
    # an automorphism gives back the same labeled matroid: check each once
    relabelings = {r.independents: r for r in map(m.relabel, permutations(range(m.n)))}
    for r in relabelings.values():
        hopf._class_subset_sum.cache_clear()
        dendriform._halves.cache_clear()
        got = _subset_sums(r)
        assert got == want
        # a second call on the same labeling serves the coproduct and both
        # halves from the memo; the reduced coproduct, second of each mode's
        # four sums, is rebuilt and compared by value only
        again = _subset_sums(r)
        assert again == got
        assert all(again[i] is got[i] for i in range(len(got)) if i % 4 != 1)


# a triple parallel class and a series path closing one cycle, and two self-loops
MULTIGRAPH = graphic(4, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 0), (2, 2)])


@pytest.mark.parametrize(
    "m", [uniform(3, 8), uniform(0, 7), MULTIGRAPH], ids=["U38", "U07", "multigraph"]
)
def test_twin_orbit_sums_match_subset_oracle(m):
    # large orbit weights: one twin class of 8 or 7, or classes of 3, 3 and 2
    hopf._class_subset_sum.cache_clear()
    dendriform._halves.cache_clear()
    assert [tensor_codes(t) for t in _subset_sums(m)] == _oracle_subset_sums(m)


@pytest.mark.parametrize(
    "m, sizes",
    [
        (uniform(3, 8), [8]),
        (graphic(4, combinations(range(4), 2)), [1] * 6),
        (MULTIGRAPH, [3, 3, 2]),
    ],
    ids=["U38", "M(K4)", "multigraph"],
)
def test_orbits_cover_each_count_vector_once(m, sizes):
    classes = m.twin_classes()
    assert sorted(c.bit_count() for c in classes) == sorted(sizes)
    orbits = class_orbits(classes)
    assert sum(w for _, w in orbits) == 1 << m.n
    assert len(orbits) == prod(size + 1 for size in sizes)
    counts = {tuple((a & c).bit_count() for c in classes) for a, _ in orbits}
    assert len(counts) == len(orbits)


def test_cold_coproduct_visits_one_subset_per_orbit(monkeypatch):
    # U_{3,8} is one twin class: 9 representatives, the prefixes of 0..7.
    # The complement of prefix k lies in the orbit of prefix 8 - k, so the
    # right legs are left legs of the same walk: the input plus its 8
    # proper prefixes, the full prefix being the class, built before the
    # walk (16 with each suffix built too, 256 subsets and 256 legs when
    # every subset is visited)
    hopf._class_subset_sum.cache_clear()
    visited, built = [], []
    orbits, from_matroid = hopf.class_orbits, Monomial.from_matroid

    def counted_orbits(classes):
        out = orbits(classes)
        visited.extend(out)
        return out

    def counted_legs(*args):
        built.append(args)
        return from_matroid(*args)

    monkeypatch.setattr(hopf, "class_orbits", counted_orbits)
    monkeypatch.setattr(Monomial, "from_matroid", staticmethod(counted_legs))
    coproduct(CoproductMode.RD, uniform(3, 8))
    assert len(visited) == 9
    assert len(built) == 9


K4_EDGES = list(combinations(range(4), 2))


def _one_element_part(t):
    """The terms of an arity-2 tensor whose right leg has one element."""
    return TensorElement(2, {legs: c for legs, c in t.terms.items() if legs[1].degree == 1})


class TestSingleDeletionTerms:
    def test_matches_kernel(self, catalog_reps):
        k4 = graphic(4, K4_EDGES)
        cases = [mono(m) for m in catalog_reps]
        cases += [mono(k4), mono(k4.dual()), mono(graphic(4, K4_EDGES + [(0, 1), (2, 2)]))]
        products = [
            mono(a) * mono(b) for a in catalog_reps for b in catalog_reps if a.n + b.n <= 6
        ]
        # repeated factors and a loop beside a coloop are among the products
        coloop, loop = mono(uniform(1, 1)), mono(uniform(0, 1))
        assert coloop * coloop in products and loop * coloop in products
        for m in cases + products:
            want = _one_element_part(coproduct_monomial(CoproductMode.RD, m))
            assert single_deletion_terms(m) == want, m

    def test_product_reads_its_factors_terms(self):
        # a product's terms come from each factor's own entry, not from a
        # walk over the product's direct-sum representative or a kernel
        single_deletion_terms.cache_clear()
        hopf._class_subset_sum.cache_clear()
        single_deletion_terms(mono(uniform(1, 2), uniform(2, 3)))
        assert single_deletion_terms.cache_info().misses == 1 + 2
        assert hopf._class_subset_sum.cache_info().misses == 0

    def test_cold_alpha_builds_only_its_own_kernel(self):
        # alpha convolves two exponentials along the coproduct of the query's
        # class: that one kernel is built, and the exponentials read only
        # single-deletion terms, never another class's kernel or a product's
        script = textwrap.dedent(
            """
            from matroid_hopf import alpha, graphic, hopf
            alpha(graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)]))
            print(hopf._class_subset_sum.cache_info().misses,
                  hopf._coproduct_product.cache_info().misses)
            """
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1])},
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["1", "0"]


def _cold_memos(monkeypatch):
    """Empty the canonical memos and the kernels: every class is searched
    again, and its search's automorphisms are the ones the kernel reads."""
    canonical._family_key.cache_clear()
    monkeypatch.setattr(canonical, "_bucket_cache", {})
    monkeypatch.setattr(canonical, "_automorphism_cache", {})
    hopf._class_subset_sum.cache_clear()
    single_deletion_terms.cache_clear()


def _walked(monkeypatch):
    """The (subset, weight) lists that kernel walks visit from now on."""
    walked = []
    orbit_sum = hopf._orbit_sum

    def counted(mode, cls, matroid, orbits):
        walked.append(orbits)
        return orbit_sum(mode, cls, matroid, orbits)

    monkeypatch.setattr(hopf, "_orbit_sum", counted)
    return walked


def _one_element_complement(n):
    full = (1 << n) - 1
    return lambda a: (full ^ a).bit_count() == 1


class TestAutomorphismOrbits:
    def test_k4_walks_one_subset_per_orbit(self, monkeypatch):
        # S_4 permutes the six edges of K4, which has no twins: 11 orbits of
        # edge sets (the graphs on four labeled vertices up to relabeling)
        # where the twin orbits are all 64 subsets, and one orbit of single
        # edges, of weight 6.  Each orbit carries the representative of its
        # complement's orbit, itself a walked representative; a single
        # deletion's complement is the deleted edge
        k4 = graphic(4, K4_EDGES)
        _cold_memos(monkeypatch)
        walked = _walked(monkeypatch)
        for mode in CoproductMode:
            t = coproduct(mode, k4)
            assert len(walked[-1]) == 11
            assert sum(w for _, w, _ in walked[-1]) == 64
            reps = {a for a, _, _ in walked[-1]}
            assert {c for _, _, c in walked[-1]} == reps
            assert tensor_codes(t) == coproduct_terms(k4.independents, 6, mode.value, lambda a: True)
        t = single_deletion_terms(mono(k4))
        assert [(w, a | c) for a, w, c in walked[-1]] == [(6, k4.full_mask)]
        want = coproduct_terms(k4.independents, 6, "rd", _one_element_complement(6))
        assert tensor_codes(t) == want

    def test_product_moves_each_factors_block(self, monkeypatch):
        # M(K4) plus a loop: the loop's factor sorts first, so K4's
        # automorphisms act on labels 1..6 of the representative
        m = graphic(4, K4_EDGES + [(0, 0)])
        _cold_memos(monkeypatch)
        walked = _walked(monkeypatch)
        for mode in CoproductMode:
            t = coproduct(mode, m)
            assert [len(orbits) for orbits in walked] == [11 * 2]
            assert tensor_codes(t) == coproduct_terms(m.independents, 7, mode.value, lambda a: True)
            walked.clear()
        want = coproduct_terms(m.independents, 7, "rd", _one_element_complement(7))
        assert tensor_codes(single_deletion_terms(mono(m))) == want

    def test_carried_complements_lie_in_their_orbits(self, monkeypatch, catalog_reps):
        # every walked orbit (A, w, C) of a coproduct carries in C the
        # representative of the orbit of E - A, under the group of the
        # stored generators and the twin transpositions, closed by brute
        # force; a single deletion carries the deleted element itself
        cases = catalog_reps + list(ORACLE_INPUTS.values())
        cases += [uniform(3, 8), graphic(4, K4_EDGES + [(0, 0)])]
        _cold_memos(monkeypatch)
        walks = []
        orbit_sum = hopf._orbit_sum

        def recorded(mode, cls, matroid, orbits):
            walks.append((cls, matroid, orbits))
            return orbit_sum(mode, cls, matroid, orbits)

        monkeypatch.setattr(hopf, "_orbit_sum", recorded)
        for m in cases:
            for mode in CoproductMode:
                coproduct(mode, m)
        merged = 0
        for cls, matroid, orbits in walks:
            generators = hopf._automorphisms(cls)
            generators += twin_transpositions(matroid.independents, matroid.n)
            reps = {a for a, _, _ in orbits}
            for a, _, c in orbits:
                assert c in reps
                assert c in generated_orbit(matroid.full_mask ^ a, generators)
            merged += len(orbits) < len(class_orbits(matroid.twin_classes()))
        assert len(walks) == 2 * len(cases) and merged >= 10
        walks.clear()
        for m in cases:
            single_deletion_terms(mono(m))
        for _, matroid, orbits in walks:
            for a, _, c in orbits:
                assert c.bit_count() == 1 and a | c == matroid.full_mask

    def test_sums_do_not_depend_on_the_generators(self, monkeypatch, catalog_reps):
        # the sum over any subgroup of Aut(M) is exact: emptying the
        # generator memo leaves the twin orbits, and every sum as it was
        cases = catalog_reps + [
            graphic(4, K4_EDGES),
            graphic(4, K4_EDGES).dual(),
            graphic(4, K4_EDGES + [(0, 1), (2, 2)]),
            graphic(4, K4_EDGES + [(0, 0)]),
            graphic(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
        ]

        def sums():
            hopf._class_subset_sum.cache_clear()
            single_deletion_terms.cache_clear()
            walked.clear()
            out = [coproduct(mode, m) for m in cases for mode in CoproductMode]
            return out + [single_deletion_terms(mono(m)) for m in cases]

        _cold_memos(monkeypatch)
        walked = _walked(monkeypatch)
        with_generators = sums()
        visited = sum(len(orbits) for orbits in walked)
        monkeypatch.setattr(canonical, "_automorphism_cache", {})
        assert sums() == with_generators
        assert visited < sum(len(orbits) for orbits in walked)


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

    @pytest.mark.parametrize("side", ["lfet", None])
    def test_antipode_law_rejects_other_sides(self, side):
        # once read as "right", whose value on U_{1,1} is 0
        with pytest.raises(ValueError, match="antipode_side must be 'left' or 'right'"):
            convolve_antipode_identity(uniform(1, 1), side)

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
                code = least_relabeled_family(term.matroid().independents, m.n)
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
