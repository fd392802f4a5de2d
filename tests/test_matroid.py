import json
import os
import subprocess
import sys
import textwrap
from functools import reduce
from itertools import combinations, product
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import matroid_hopf
from matroid_hopf import (
    AxiomViolation,
    BadVertexIndex,
    GroundSetTooLarge,
    InputError,
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
from matroid_hopf.matroid import MAX_GROUND_SET, _submask_table, class_orbits, merge_orbits

from oracles import (
    component_blocks,
    contract_family,
    family_is_matroid,
    forest_family,
    restrict_family,
)


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert elements_of(0b1011) == (0, 1, 3)
    assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]


def test_mask_helpers_reject_negative_masks():
    # -1 once sent elements_of into an endless loop and submasks into an
    # endless stream; submasks raises before it yields anything
    for mask in (-1, -6):
        with pytest.raises(ValueError, match=f"mask {mask} is negative"):
            elements_of(mask)
        with pytest.raises(ValueError, match=f"mask {mask} is negative"):
            next(submasks(mask))


def test_submask_table_lists_submasks_in_order():
    # Matroid._minor relabels the i-th entry to i, so the table must hold
    # submasks' ascending order for every mask a minor can be built on
    _submask_table.cache_clear()
    try:
        for mask in range(1 << MAX_GROUND_SET):
            assert _submask_table(mask) == tuple(submasks(mask))
    finally:
        _submask_table.cache_clear()


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

    @pytest.mark.parametrize(
        "n, family, needle",
        [(-1, [0], "nonnegative"), (2, [0, 4], "mask 4"), (2, [0, -1], "mask -1")],
    )
    def test_bad_size_or_mask_is_an_input_error(self, n, family, needle):
        with pytest.raises(InputError, match=needle):
            validate(n, family)

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

    def test_rejects_oversized_before_building(self):
        # every subset of size at most r would be listed; the cap comes
        # before the rank check
        with pytest.raises(GroundSetTooLarge):
            uniform(0, MAX_GROUND_SET + 1)
        with pytest.raises(GroundSetTooLarge):
            uniform(MAX_GROUND_SET + 2, MAX_GROUND_SET + 1)
        assert uniform(MAX_GROUND_SET, MAX_GROUND_SET).n == MAX_GROUND_SET


@st.composite
def multigraphs(draw):
    """A vertex count up to 10**6 and at most MAX_GROUND_SET edges among at
    most six of its vertices: self-loops, parallel edges, isolated
    vertices and sparse labels all occur."""
    vertex_count = draw(st.integers(1, 10**6))
    ends = draw(st.lists(st.integers(0, vertex_count - 1), min_size=1, max_size=6, unique=True))
    edge = st.tuples(st.sampled_from(ends), st.sampled_from(ends))
    return vertex_count, draw(st.lists(edge, max_size=MAX_GROUND_SET))


class TestGraphic:
    @given(multigraphs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_forest_oracle(self, graph):
        vertex_count, edges = graph
        assert graphic(vertex_count, edges) == Matroid(len(edges), forest_family(vertex_count, edges))

    @pytest.mark.parametrize("k, forests", [(4, 38), (5, 291)])
    def test_complete_graphs(self, k, forests):
        edges = list(combinations(range(k), 2))
        m = graphic(k, edges)
        assert m.independents == forest_family(k, edges)
        assert len(m.independents) == forests

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

    def test_rejects_oversized_before_building(self):
        # 11 edges could walk 2^11 forests; the cap comes before the vertex check
        with pytest.raises(GroundSetTooLarge):
            graphic(3, [(0, 1)] * 11)
        with pytest.raises(GroundSetTooLarge):
            graphic(2, [(0, 2)] * 11)

    def test_isolated_vertices_cost_nothing(self):
        # A child process under a 1 GiB address-space limit: one label per
        # vertex over all 10**12 vertices would raise MemoryError there.
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


class TestTupleSemantics:
    """A Matroid is the tuple (n, independents) with methods: it hashes and
    prints as a frozen record of those fields, but is not a number."""

    def test_hash_is_the_field_tuple_hash(self):
        for m in (empty_matroid(), uniform(2, 4), graphic(4, combinations(range(4), 2))):
            assert hash(m) == hash((m.n, m.independents))

    def test_repr(self):
        assert repr(uniform(2, 2)) == "Matroid(n=2, independents=(0, 1, 2, 3))"

    def test_no_concatenation_or_repetition(self):
        m = uniform(1, 2)
        for op in (lambda: m + m, lambda: m * 2, lambda: 2 * m):
            with pytest.raises(TypeError):
                op()

    def test_independence_oracle_is_cached(self):
        m = uniform(2, 3)
        assert m._iset is m._iset == frozenset(m.independents)

    def test_patched_method_reaches_every_instance(self, monkeypatch):
        before = uniform(2, 3)
        monkeypatch.setattr(Matroid, "rank", lambda self, mask=None: -1)
        built = [
            before,
            before.restrict(3),
            before.contract(1),
            before.dual(),
            before.direct_sum(before),
            graphic(3, [(0, 1)]),
            validate(1, [0, 1]),
            empty_matroid(),
            Matroid.from_dict({"n": 1, "independent": [[]]}),
        ]
        assert [m.rank() for m in built] == [-1] * len(built)


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
                    assert m._minor(m.full_mask & ~t, base) == expected

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

    def test_masks_outside_the_ground_set_are_rejected(self, oracle_cases):
        # a bit at n or above, alone or with bits inside, and negative masks,
        # handed to the minors and to the mask queries, components' base
        # included: -1 once sent components into an endless bit walk
        for m in oracle_cases:
            top = 1 << m.n
            takers = (m.restrict, m.delete, m.contract, m.rank, m.element_counts,
                      m.components, lambda mask: m.components(0, mask))
            for mask in (top, top | m.full_mask, -1, -top):
                for taker in takers:
                    with pytest.raises(ValueError, match=f"mask {mask} ") as err:
                        taker(mask)
                    assert type(err.value) is ValueError

    def test_relabel_needs_a_permutation(self, oracle_cases):
        for m in oracle_cases:
            ident = list(range(m.n))
            assert m.relabel(ident) == m
            # too long, too short, an entry out of range, a repeated entry
            bad = [ident + [m.n]]
            if m.n >= 1:
                bad += [ident[1:], ident[:-1] + [m.n], [-1] + ident[1:]]
            if m.n >= 2:
                bad.append([0] * m.n)
            for perm in bad:
                with pytest.raises(ValueError, match="not a permutation") as err:
                    m.relabel(perm)
                assert type(err.value) is ValueError


class TestDirectSumAndDual:
    def test_direct_sum_examples(self):
        assert uniform(1, 1).direct_sum(uniform(1, 1)) == uniform(2, 2)
        m = uniform(2, 4)
        assert m.direct_sum(empty_matroid()) == m
        assert len(uniform(1, 2).direct_sum(uniform(1, 3)).independents) == 12

    def test_direct_sum_family_is_the_sorted_product(self, catalog_reps):
        for m1, m2 in product(catalog_reps, repeat=2):
            fam = m1.direct_sum(m2).independents
            want = sorted(a | (b << m1.n) for a in m1.independents for b in m2.independents)
            assert list(fam) == want
            assert all(x < y for x, y in zip(fam, fam[1:]))

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
        # an element outside the ground set is API misuse, not bad input
        m = uniform(1, 2)
        for e in (m.n, -1):
            with pytest.raises(ValueError, match=f"element {e} outside") as err:
                m.is_loop(e)
            assert type(err.value) is ValueError

    def test_loops_match_singleton_definition(self, oracle_cases):
        # oracle_cases holds every catalog class; a loop is an element whose
        # singleton is not independent
        for m in oracle_cases:
            fam = set(m.independents)
            singleton_loops = [e for e in range(m.n) if 1 << e not in fam]
            assert m.loops() == mask_of(singleton_loops)
            assert [e for e in range(m.n) if m.is_loop(e)] == singleton_loops
            for a in range(1 << m.n):
                l = sum(1 for e in singleton_loops if a >> e & 1)
                assert m.element_counts(a) == (a.bit_count() - l, l)


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

    @pytest.mark.parametrize(
        "m, mask, base",
        [(uniform(1, 2), 0b01, 0b01), (uniform(1, 3), 0b100, 0b011)],
        ids=["base meets mask", "dependent base"],
    )
    def test_components_rejects_a_bad_base(self, m, mask, base):
        with pytest.raises(ValueError, match=f"^base {base} is not independent") as err:
            m.components(mask, base)
        assert type(err.value) is ValueError


class TestTwinClasses:
    def test_examples(self, loop_example):
        assert uniform(3, 8).twin_classes() == (0b11111111,)
        assert loop_example.twin_classes() == (0b0111, 0b1000)
        assert graphic(4, combinations(range(4), 2)).twin_classes() == tuple(
            1 << e for e in range(6)
        )
        assert empty_matroid().twin_classes() == ()

    def test_matches_transposition_definition(self, oracle_cases):
        for m in oracle_cases:
            classes = m.twin_classes()
            # disjoint masks covering E, ordered by least element
            assert sum(classes) == m.full_mask == reduce(or_, classes, 0)
            assert list(classes) == sorted(classes, key=lambda c: c & -c)
            for e, f in combinations(range(m.n), 2):
                swap = list(range(m.n))
                swap[e], swap[f] = f, e
                twins = any(c >> e & 1 and c >> f & 1 for c in classes)
                assert twins == (m.relabel(swap).independents == m.independents)


class TestMergeOrbits:
    # two classes {0, 1} and {2, 3}, swapped by the generator: the 9 count
    # vectors (k1, k2) merge in pairs (k1, k2) ~ (k2, k1) into 6 orbits
    CLASSES = (0b0011, 0b1100)
    SWAPPED = [(0b0000, 1), (0b0100, 4), (0b1100, 2), (0b0101, 4), (0b1101, 4), (0b1111, 1)]

    def test_images_take_their_twin_form(self):
        # the generator sends the j-th element of each class to the j-th of
        # the other, so each listed subset's image is listed
        merged = merge_orbits(class_orbits(self.CLASSES), [(2, 3, 0, 1)])
        assert merged == self.SWAPPED

    def test_reversed_classes_are_not_listed(self):
        # (3, 2, 1, 0) sends the first element of each class to the last of
        # the other, which no search generator does: {0} maps onto {3},
        # which is not listed
        with pytest.raises(KeyError):
            merge_orbits(class_orbits(self.CLASSES), [(3, 2, 1, 0)])

    def test_twin_transpositions_merge_nothing(self):
        # without generators the twin orbits come back as they are
        orbits = class_orbits(self.CLASSES)
        assert merge_orbits(orbits, []) is orbits

    def test_single_deletions_of_a_twin_free_cycle(self):
        # the rotation of a 5-cycle's edges joins the five single deletions
        # E - e, one-element classes, into one orbit of weight 5
        full = 0b11111
        orbits = [(full ^ 1 << e, 1) for e in range(5)]
        assert merge_orbits(orbits, [(1, 2, 3, 4, 0)]) == [(0b11110, 5)]


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
