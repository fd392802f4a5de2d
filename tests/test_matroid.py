import json
import os
import subprocess
import sys
import textwrap
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import matroid_hopf
from matroid_hopf import (
    AxiomViolation,
    BadElement,
    BadVertexIndex,
    InvalidRank,
    Matroid,
    elements_of,
    empty_matroid,
    graphic,
    is_isomorphic,
    mask_of,
    submasks,
    uniform,
    validate,
)

from oracles import (
    component_blocks,
    contract_family,
    family_is_matroid,
    restrict_family,
)


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert elements_of(0b1011) == (0, 1, 3)
    assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]


class TestValidate:
    def test_empty_matroid(self):
        m = validate(0, [0])
        assert m == empty_matroid()
        assert m.n == 0 and m.independents == (0,)

    def test_loop_example(self, loop_example):
        assert loop_example.independents == (0, 1, 2, 4)
        assert loop_example.is_loop(3)
        assert not loop_example.is_loop(0)

    def test_single_coloop_plus_loop_is_fine(self):
        # {∅, {0}} on two elements is U_{1,1} ⊕ U_{0,1}
        m = validate(2, [0, 1])
        assert is_isomorphic(m, uniform(1, 1).direct_sum(uniform(0, 1)))

    def test_i1_violation(self):
        with pytest.raises(AxiomViolation) as err:
            validate(2, [])
        assert err.value.axiom == "I1"

    def test_i2_violation_with_witness(self):
        with pytest.raises(AxiomViolation) as err:
            validate(2, [0b00, 0b11])
        assert err.value.axiom == "I2"
        assert err.value.witness[0] == 0b11

    def test_i3_violation_with_witness(self):
        with pytest.raises(AxiomViolation) as err:
            validate(3, [0b000, 0b001, 0b010, 0b100, 0b011])
        assert err.value.axiom == "I3"
        assert set(err.value.witness) == {0b011, 0b100}

    def test_deduplicates_and_sorts(self):
        m = validate(1, [1, 0, 1, 0])
        assert m.independents == (0, 1)

    def test_out_of_range_mask(self):
        with pytest.raises(ValueError):
            validate(1, [0, 2])

    @given(st.integers(0, 3), st.data())
    def test_matches_direct_axiom_oracle(self, n, data):
        universe = list(range(1 << n))
        fam = data.draw(st.sets(st.sampled_from(universe), min_size=1))
        masks = sorted(fam)
        ok = family_is_matroid(masks, n)
        if ok:
            assert validate(n, masks).independents == tuple(masks)
        else:
            with pytest.raises(AxiomViolation):
                validate(n, masks)


class TestUniform:
    def test_trivial_cases(self):
        assert uniform(0, 0).independents == (0,)
        assert uniform(1, 1).independents == (0, 1)

    def test_counts(self):
        assert len(uniform(2, 4).independents) == 11

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            uniform(3, 2)
        with pytest.raises(InvalidRank):
            uniform(-1, 2)


class TestGraphic:
    def test_parallel_edges_and_self_loop(self, loop_example):
        m = graphic(2, [(0, 1), (0, 1), (0, 1), (1, 1)])
        assert m == loop_example

    def test_path_is_free(self):
        assert is_isomorphic(graphic(3, [(0, 1), (1, 2)]), uniform(2, 2))

    def test_single_self_loop(self):
        assert graphic(1, [(0, 0)]) == uniform(0, 1)

    def test_bad_vertex(self):
        with pytest.raises(BadVertexIndex):
            graphic(2, [(0, 2)])

    def test_isolated_vertices_cost_nothing(self):
        # A child process under a 1 GiB address-space limit: one union-find
        # array over all 10**12 vertices would raise MemoryError there.
        script = textwrap.dedent(
            """
            import resource
            from matroid_hopf import graphic

            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
            edges = [(0, 1), (1, 2), (0, 2)]
            assert graphic(10**12, edges) == graphic(3, edges)
            """
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1])},
        )
        assert child.returncode == 0, child.stderr


class TestRank:
    def test_uniform(self):
        assert uniform(2, 4).rank(0b0111) == 2

    def test_loop_example(self, loop_example):
        assert loop_example.rank(0b1011) == 1

    def test_empty_subset(self, catalog_reps):
        assert all(m.rank(0) == 0 for m in catalog_reps)

    def test_submodularity_and_independence_criterion(self, catalog_reps):
        for m in catalog_reps:
            for a in range(1 << m.n):
                assert m.is_independent(a) == (a.bit_count() == m.rank(a))
                for b in range(1 << m.n):
                    assert m.rank(a | b) + m.rank(a & b) <= m.rank(a) + m.rank(b)


class TestMinors:
    def test_restriction_examples(self, loop_example):
        assert uniform(2, 4).restrict(0b0011) == uniform(2, 2)
        assert uniform(2, 4).restrict(0) == empty_matroid()
        assert loop_example.restrict(0b1000) == uniform(0, 1)

    def test_deletion_examples(self):
        assert uniform(2, 4).delete(0b0001) == uniform(2, 3)
        m = uniform(1, 2)
        assert m.delete(0) == m
        assert m.delete(m.full_mask) == empty_matroid()

    def test_deletion_is_complement_restriction(self, catalog_reps):
        for m in catalog_reps:
            for t in range(1 << m.n):
                assert m.delete(t) == m.restrict(m.full_mask & ~t)

    def test_contraction_examples(self):
        assert uniform(1, 2).contract(0b01) == uniform(0, 1)
        assert uniform(2, 4).contract(0b0001) == uniform(1, 3)
        m = uniform(1, 2)
        assert m.contract(0) == m

    def test_contraction_choice_independence(self, catalog_reps):
        for m in catalog_reps:
            for t in range(1 << m.n):
                expected = m.contract(t)
                for base in m.maximal_independent_subsets(t):
                    assert m._contract_using(t, base) == expected

    def test_restriction_composition(self, catalog_reps):
        # (M|X)|X' = M|X' and (M|X)\X' = M|(X-X') in restriction coordinates
        for m in catalog_reps[:20]:
            for x in range(1 << m.n):
                mx = m.restrict(x)
                pos = {e: i for i, e in enumerate(elements_of(x))}
                for xp in submasks(x):
                    inner = mask_of(pos[e] for e in elements_of(xp))
                    assert mx.restrict(inner) == m.restrict(xp)
                    assert mx.delete(inner) == m.restrict(x & ~xp)

    def test_deletion_composition(self, catalog_reps):
        for m in catalog_reps[:20]:
            for x in range(1 << m.n):
                md = m.delete(x)
                rest = m.full_mask & ~x
                pos = {e: i for i, e in enumerate(elements_of(rest))}
                for y in submasks(rest):
                    inner = mask_of(pos[e] for e in elements_of(y))
                    assert md.restrict(inner) == m.restrict(y)
                    assert md.delete(inner) == m.delete(x | y)


class TestDirectSumAndDual:
    def test_direct_sum_examples(self):
        assert uniform(1, 1).direct_sum(uniform(1, 1)) == uniform(2, 2)
        m = uniform(2, 4)
        assert m.direct_sum(empty_matroid()) == m
        assert len(uniform(1, 2).direct_sum(uniform(1, 3)).independents) == 12

    def test_direct_sum_compatibility(self, catalog_reps):
        small = [m for m in catalog_reps if m.n <= 2]
        for m1 in small:
            for m2 in small:
                s = m1.direct_sum(m2)
                for a1 in range(1 << m1.n):
                    for a2 in range(1 << m2.n):
                        both = a1 | a2 << m1.n
                        assert m1.restrict(a1).direct_sum(m2.restrict(a2)) == s.restrict(both)
                        assert m1.delete(a1).direct_sum(m2.delete(a2)) == s.delete(both)

    def test_dual_examples(self):
        assert uniform(1, 1).dual() == uniform(0, 1)
        assert uniform(2, 4).dual() == uniform(2, 4)

    def test_dual_involution(self, catalog_reps):
        for m in catalog_reps:
            assert m.dual().dual() == m

    def test_coloops(self):
        m = uniform(1, 1).direct_sum(uniform(0, 1))
        assert m.coloops() == 0b01
        assert m.loops() == 0b10
        assert m.coloops() & 0b01 and not m.coloops() & 0b10

    def test_coloops_are_dual_loops(self, catalog_reps):
        for m in catalog_reps:
            assert m.coloops() == m.dual().loops()
            assert m.loops() == m.dual().coloops()

    def test_bases_share_cardinality(self, catalog_reps):
        for m in catalog_reps:
            sizes = {b.bit_count() for b in m.bases()}
            assert len(sizes) == 1
            maximal = {
                s
                for s in m.independents
                if not any(
                    m.is_independent(s | 1 << e)
                    for e in range(m.n)
                    if not s >> e & 1
                )
            }
            assert maximal == set(m.bases())


class TestElementCounts:
    def test_uniform(self):
        assert uniform(2, 4).element_counts() == (4, 0)
        assert uniform(0, 2).element_counts() == (0, 2)

    def test_loop_example_subset(self, loop_example):
        # the definitions give c=2, l=1 on {0,1,3}
        assert loop_example.element_counts(0b1011) == (2, 1)
        assert loop_example.element_counts() == (3, 1)

    def test_partition(self, catalog_reps):
        for m in catalog_reps:
            for a in range(1 << m.n):
                c, l = m.element_counts(a)
                assert c + l == a.bit_count()

    def test_bad_element(self):
        with pytest.raises(BadElement):
            uniform(1, 2).is_loop(5)


class TestComponents:
    def test_connected_cases(self):
        assert uniform(1, 2).is_connected()
        assert uniform(2, 4).is_connected()
        assert uniform(0, 1).is_connected()
        assert uniform(1, 1).is_connected()

    def test_free_matroid_splits_completely(self):
        assert uniform(3, 3).components() == (0b001, 0b010, 0b100)

    def test_loop_example_components(self, loop_example):
        assert loop_example.components() == (0b0111, 0b1000)

    def test_direct_sum_splits(self):
        m = uniform(1, 2).direct_sum(uniform(1, 3))
        assert m.components() == (0b00011, 0b11100)


def _in_labels(blocks, ground):
    """Blocks of a minor on ``ground`` relabeled ascending, in original labels."""
    labels = [e for e in range(ground.bit_length()) if ground >> e & 1]
    return [sum(1 << e for i, e in enumerate(labels) if b >> i & 1) for b in blocks]


K5 = graphic(5, list(combinations(range(5), 2)))


class TestMinorOracles:
    """Minors and components against the element-by-element oracles."""

    def test_every_subset(self, catalog_reps):
        cases = list(catalog_reps)
        cases += [
            m1.direct_sum(m2)
            for m1, m2 in product(catalog_reps, repeat=2)
            if m1.n + m2.n <= 6
        ]
        cases += [K5, K5.dual()]
        # M(K4) plus an edge parallel to (0, 1) and a self-loop: n = 8
        cases.append(graphic(4, list(combinations(range(4), 2)) + [(0, 1), (2, 2)]))
        for m in cases:
            assert list(m.components()) == component_blocks(m.independents, m.n)
            got, want = [], []
            for mask in range(1 << m.n):
                for minor, size, fam in (
                    (m.restrict(mask), mask.bit_count(),
                     restrict_family(m.independents, mask)),
                    (m.contract(mask), m.n - mask.bit_count(),
                     contract_family(m.independents, m.n, mask)),
                ):
                    got.append((minor.n, list(minor.independents), list(minor.components())))
                    want.append((size, fam, component_blocks(fam, size)))
            assert got == want

    def test_components_on_masks(self, oracle_cases):
        # components(mask, base) against minors and components built by the
        # oracles alone, for every mask and, for the contraction M/A, every
        # maximal independent subset of A as base
        for m in oracle_cases:
            fam, full = list(m.independents), (1 << m.n) - 1
            for a in range(1 << m.n):
                want = component_blocks(restrict_family(fam, a), a.bit_count())
                assert list(m.components(a)) == _in_labels(want, a)
                rest = full ^ a
                want = _in_labels(
                    component_blocks(contract_family(fam, m.n, a), rest.bit_count()), rest
                )
                inside = [s for s in fam if s & ~a == 0]
                rank = max(s.bit_count() for s in inside)
                for base in (s for s in inside if s.bit_count() == rank):
                    assert list(m.components(rest, base)) == want

    def test_minor_on_masks(self, oracle_cases):
        # _minor(mask, base) against the oracles' restriction and
        # contraction families, for every maximal independent subset of A
        # as the base of M/A
        for m in oracle_cases:
            fam, full = list(m.independents), (1 << m.n) - 1
            for a in range(1 << m.n):
                minor = m._minor(a, 0)
                assert (minor.n, list(minor.independents)) == (
                    a.bit_count(), restrict_family(fam, a)
                )
                rest = full ^ a
                want = (rest.bit_count(), contract_family(fam, m.n, a))
                inside = [s for s in fam if s & ~a == 0]
                rank = max(s.bit_count() for s in inside)
                for base in (s for s in inside if s.bit_count() == rank):
                    minor = m._minor(rest, base)
                    assert (minor.n, list(minor.independents)) == want

    def test_restriction_with_three_runs(self):
        mask = 0b1101100111
        kept = [e for i, e in enumerate(combinations(range(5), 2)) if mask >> i & 1]
        assert K5.restrict(mask) == graphic(5, kept)
        assert list(K5.restrict(mask).independents) == restrict_family(
            K5.independents, mask
        )

    def test_restriction_to_everything(self, catalog_reps):
        for m in catalog_reps + [K5]:
            assert m.restrict(m.full_mask) == m

    def test_components_of_loop_coloop_and_pair(self):
        m = uniform(0, 1).direct_sum(uniform(1, 1)).direct_sum(uniform(1, 2))
        assert m.components() == (0b0001, 0b0010, 0b1100)

    def test_components_of_empty_matroid(self):
        assert empty_matroid().components() == ()


def test_json_round_trip(catalog_reps):
    for m in catalog_reps:
        assert Matroid.from_dict(json.loads(json.dumps(m.to_dict()))) == m
