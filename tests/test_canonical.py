import hashlib
import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from matroid_hopf import (
    CoproductMode,
    GroundSetTooLarge,
    Matroid,
    Monomial,
    canonical_key,
    coproduct,
    graphic,
    is_isomorphic,
    uniform,
    validate,
)
from matroid_hopf import canonical, hopf, verify
from matroid_hopf.canonical import _min_relabeling, search_automorphisms
from matroid_hopf.matroid import class_orbits, elements_of, merge_orbits
from matroid_hopf.verify import CheckResult

from oracles import (
    automorphisms,
    binary_matroid_families,
    least_relabeled_family,
    permuted_family,
    subset_orbits,
)


def test_swap_symmetry():
    m = uniform(1, 2)
    assert canonical_key(m) == canonical_key(m.relabel([1, 0]))


def test_graphic_matches_explicit_family(loop_example):
    g = graphic(2, [(0, 1), (0, 1), (0, 1), (1, 1)])
    assert canonical_key(g) == canonical_key(loop_example)


def test_direct_sum_commutes_up_to_isomorphism():
    a = uniform(1, 1).direct_sum(uniform(0, 1))
    b = uniform(0, 1).direct_sum(uniform(1, 1))
    assert canonical_key(a) == canonical_key(b)


def test_idempotent(catalog_reps):
    for m in catalog_reps:
        key = canonical_key(m)
        again = canonical_key(key.matroid())
        assert again == key
        # uniform iff every subset of at most rank elements is independent
        sets = set(key.family)
        small_sets_independent = all(
            sum(c) in sets
            for k in range(key.rank + 1)
            for c in combinations([1 << e for e in range(key.n)], k)
        )
        assert key.is_uniform() == small_sets_independent


def test_invariant_under_all_relabelings(catalog_reps):
    for m in catalog_reps:
        key = canonical_key(m)
        for perm in permutations(range(m.n)):
            assert canonical_key(m.relabel(perm)) == key


def test_five_element_relabelings():
    m = uniform(1, 2).direct_sum(uniform(1, 3))
    key = canonical_key(m)
    for perm in permutations(range(5)):
        assert canonical_key(m.relabel(perm)) == key


def test_pruned_equals_all_permutation_oracle(catalog_reps):
    for m in catalog_reps:
        assert canonical_key(m).family == least_relabeled_family(m.independents, m.n)


def test_matches_independent_orbit_oracle(catalog_reps):
    # same partition into classes as the all-relabelings oracle, and by the
    # oracle no two catalog classes are isomorphic
    seen = {}
    for m in catalog_reps:
        code = (m.n, least_relabeled_family(m.independents, m.n))
        key = canonical_key(m)
        assert seen.setdefault(code, key) == key
    assert len(seen) == len(set(seen.values())) == len(catalog_reps)


def test_oracle_shortcut_matches_all_relabelings():
    # every U_{r,n} takes the oracle's shortcut for relabeling-fixed families
    for n in range(7):
        for r in range(n + 1):
            masks = [s for s in range(1 << n) if bin(s).count("1") <= r]
            full = least_relabeled_family(masks, n, shortcut=False)
            assert least_relabeled_family(masks, n) == full == tuple(masks)


K4_EDGES = list(combinations(range(4), 2))
K5_EDGES = list(combinations(range(5), 2))

# Each input makes a different pruning rule of the search fire.
ORACLE_INPUTS = {
    # parallel class {0, 6} and a loop
    "K4 + parallel edge + self-loop": graphic(4, K4_EDGES + [(0, 1), (2, 2)]),
    # the parallel pair becomes a series class in the dual
    "M*(K4 + parallel edge)": graphic(4, K4_EDGES + [(0, 1)]).dual(),
    # no two elements are twins, so only the sibling minimum prunes
    "K5 - star at 0": graphic(
        5, [e for e in K5_EDGES if e not in ((0, 1), (0, 2), (0, 3))]
    ),
    # loop and coloop classes interleaved with a circuit
    "coloops and loops": uniform(1, 1)
    .direct_sum(uniform(0, 1))
    .direct_sum(uniform(2, 3))
    .direct_sum(uniform(1, 1))
    .direct_sum(uniform(0, 1)),
    # no twins but 24 automorphisms: the orbit rule skips tied siblings
    "M(K4)": graphic(4, K4_EDGES),
}


@lru_cache(maxsize=None)
def oracle_family(name):
    m = ORACLE_INPUTS[name]
    return least_relabeled_family(m.independents, m.n)


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_pruned_search_matches_oracle_beyond_catalog(name):
    m = ORACLE_INPUTS[name]
    assert 6 <= m.n <= 8
    expected = oracle_family(name)
    assert canonical_key(m).family == expected
    perm = [(5 * e + 2) % m.n for e in range(m.n)]  # 5 is prime to n = 6, 7, 8
    assert sorted(perm) == list(range(m.n))
    copy = m.relabel(perm)
    assert canonical_key(copy).family == expected
    # the memo may serve the copy; the search must also find the key itself
    assert _min_relabeling(copy.n, copy.independents)[0] == expected


def _cold_canonical_memos(monkeypatch):
    canonical._family_key.cache_clear()
    monkeypatch.setattr(canonical, "_bucket_cache", {})
    monkeypatch.setattr(canonical, "_automorphism_cache", {})


def test_canonical_family_is_its_own_key(monkeypatch, catalog_reps):
    # a canonical family is the least of its relabelings, so it is its own
    # key; the lookup serves it from the bucket of the family searched cold
    eight = ORACLE_INPUTS["K4 + parallel edge + self-loop"]
    for m in catalog_reps + [eight]:
        m = m.relabel(list(reversed(range(m.n))))
        _cold_canonical_memos(monkeypatch)
        key = canonical_key(m)
        assert _min_relabeling(key.n, key.family)[0] == key.family
        with monkeypatch.context() as patch:
            # the bucket holds the key itself: no search, no bijection test
            patch.setattr(canonical, "_min_relabeling", _no_search)
            patch.setattr(canonical, "_carries", _no_search)
            assert canonical_key(key.matroid()) is key


def test_round_trip_computes_no_profiles(monkeypatch):
    # a searched key's own family is found in the automorphism store before
    # the bucket lookup computes its per-element profiles; a relabeled copy
    # still needs them
    m = ORACLE_INPUTS["K4 + parallel edge + self-loop"]
    copy = m.relabel(list(reversed(range(m.n))))
    _cold_canonical_memos(monkeypatch)
    key = canonical_key(copy)
    assert key.family != copy.independents
    computed = []
    profiles = canonical._profiles

    def counted(n, family):
        computed.append(family)
        return profiles(n, family)

    monkeypatch.setattr(canonical, "_profiles", counted)
    assert canonical_key(key.matroid()) is key
    assert computed == []
    assert canonical_key(m) == key
    assert computed == [m.independents]


def test_cold_miss_stores_one_entry(monkeypatch):
    # the memo keeps the family asked for, not the canonical one besides
    m = ORACLE_INPUTS["M(K4)"]
    copy = m.relabel([(5 * e + 1) % m.n for e in range(m.n)])
    _cold_canonical_memos(monkeypatch)
    key = canonical_key(copy)
    assert not key.is_uniform() and key.family != copy.independents
    assert canonical._family_key.cache_info().currsize == 1
    canonical_key(key.matroid())
    assert canonical._family_key.cache_info().currsize == 2


def _no_search(*args):
    raise AssertionError("an isomorphic family was searched again")


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_isomorphic_repeat_takes_the_searched_key(monkeypatch, name):
    _cold_canonical_memos(monkeypatch)
    m = ORACLE_INPUTS[name]
    key = canonical_key(m)
    copy = m.relabel([(5 * e + 1) % m.n for e in range(m.n)])  # 5 is prime to 6, 7, 8
    # neither the raw family nor the canonical one: the memo cannot serve it
    assert copy.independents not in (m.independents, key.family)
    monkeypatch.setattr(canonical, "_min_relabeling", _no_search)
    assert canonical_key(copy) is key


def _rank_three_paving(lines, n=9):
    """n points whose dependent triples are exactly ``lines``."""
    dependent = {sum(1 << e for e in line) for line in lines}
    return Matroid(n, tuple(s for s in uniform(3, n).independents if s not in dependent))


# Two (9_3) configurations: nine lines of three points, three through each
# point.  Both have 121 independent sets and every element the same profile,
# so they share a bucket.  They are not isomorphic: joining each point to
# the two points on no line with it gives three triangles in the Pappus
# configuration and one 9-cycle (i ~ i + 4) in the cyclic one.
PAPPUS = _rank_three_paving(
    [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 4, 8), (0, 5, 7),
     (1, 3, 8), (1, 5, 6), (2, 3, 7), (2, 4, 6)]
)
CYCLIC_9_3 = _rank_three_paving([(i, (i + 1) % 9, (i + 3) % 9) for i in range(9)])


def test_lookup_tells_apart_a_bucket_collision(monkeypatch):
    _cold_canonical_memos(monkeypatch)
    pair = (PAPPUS, CYCLIC_9_3)
    keys = [canonical_key(m) for m in pair]
    assert len(canonical._bucket_cache) == 1
    assert keys[0] != keys[1]
    monkeypatch.setattr(canonical, "_min_relabeling", _no_search)
    for m, key in zip(pair, keys):
        copy = m.relabel([(2 * e + 1) % 9 for e in range(9)])
        assert copy.independents not in (m.independents, key.family)
        assert canonical_key(copy) is key


def _shifted(m):
    return m.relabel([(e + 1) % m.n for e in range(m.n)])


@pytest.mark.parametrize("profiles", ["true profiles", "constant profiles"])
def test_lookup_rejects_non_isomorphic_families(
    monkeypatch, catalog_reps, oracle_cases, profiles
):
    # one bucket for every family, so each lookup tests all searched classes
    _cold_canonical_memos(monkeypatch)
    monkeypatch.setattr(canonical, "_bucket_key", lambda n, family, profiles: ())
    if profiles == "constant profiles":
        # every element may map to every element: only the masks can reject
        monkeypatch.setattr(canonical, "_profiles", lambda n, family: ((),) * n)
    keys = []
    for m in catalog_reps:
        expected = least_relabeled_family(m.independents, m.n)
        for candidate in (_shifted(m), m):
            assert canonical_key(candidate).family == expected
        keys.append(canonical_key(m))
    for name, m in sorted(ORACLE_INPUTS.items()):
        keys.append(canonical_key(m))
        assert keys[-1].family == oracle_family(name)
    assert len(set(keys)) == len(keys)
    # direct sums of up to 6 elements share (n, |family|) far more often;
    # the search, checked against the oracle above, gives their keys
    for m in oracle_cases:
        expected = _min_relabeling(m.n, m.independents)[0]
        assert canonical_key(_shifted(m)).family == expected


def _family_digest(key) -> str:
    return hashlib.sha256(",".join(map(str, key.family)).encode()).hexdigest()


# (input, rank, SHA-256 of the comma-joined canonical family).  At n >= 9
# the all-relabelings oracle is too slow to serve as the gate, so these pin the keys.
GOLDEN_KEYS = {
    "M(K5)": (
        graphic(5, K5_EDGES),
        4,
        "1bce19f60942ae55b9465dc0717b0e41e478c4fb8b73b0ed1c410db7ff39f9ca",
    ),
    "M(K5) - e": (
        graphic(5, K5_EDGES[:-1]),
        4,
        "5c78d01c1c1b2965e0e88e288857209f0ef19ce39067b7d72855dcb542a1279b",
    ),
    "M(K5) - two disjoint edges": (
        graphic(5, [e for e in K5_EDGES if e not in ((0, 1), (2, 3))]),
        4,
        "a3a980b36f792efaf6a5d40cd1a46eec6a9571abb8976077fb90752ccb38bb6d",
    ),
    "M*(K5 - e)": (
        graphic(5, K5_EDGES[:-1]).dual(),
        5,
        "d5afb558a9bacdf193926f96f1e8326def4ddcd23a222f99d8ca92908a557372",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_golden_keys_beyond_oracle_reach(name):
    m, rank, digest = GOLDEN_KEYS[name]
    # e -> 7e + 3 mod n is a bijection since 7 is prime to n = 8, 9, 10
    perm = [(7 * e + 3) % m.n for e in range(m.n)]
    assert sorted(perm) == list(range(m.n))
    for candidate in (m, m.relabel(perm)):
        key = canonical_key(candidate)
        assert key.rank == rank
        assert _family_digest(key) == digest
    copy = m.relabel(perm)
    assert _min_relabeling(copy.n, copy.independents)[0] == key.family


def test_orbit_rule_skips_pinned_siblings(monkeypatch):
    # pins the search work: without the orbit rule no sibling is skipped, and
    # without the backjump a tied leaf leaves its ancestors' later siblings
    # to be tested (M(K5) 282 calls, M*(K5 - e) 1,559, M(K4) 33)
    calls = []
    orbit_meets = canonical._orbit_meets

    def counted(*args):
        calls.append(orbit_meets(*args))
        return calls[-1]

    monkeypatch.setattr(canonical, "_orbit_meets", counted)
    for name, pinned in (("M(K5)", (187, 47)), ("M*(K5 - e)", (1216, 54))):
        calls.clear()
        m, rank, digest = GOLDEN_KEYS[name]
        key = canonical.IsoKey(m.n, rank, _min_relabeling(m.n, m.independents)[0])
        assert (len(calls), sum(calls)) == pinned
        assert _family_digest(key) == digest
    calls.clear()
    k4 = ORACLE_INPUTS["M(K4)"]
    assert _min_relabeling(k4.n, k4.independents)[0] == oracle_family("M(K4)")
    assert (len(calls), sum(calls)) == (27, 8)


def _seeded_differential_inputs():
    """Named 6- and 7-element matroids on which the search ties often."""
    rng = random.Random(2701)
    inputs = {}
    for i in range(3):
        # 7 of the 10 edges of K5: few twins; the second draw is K4 plus a
        # bridge, which is twin-free
        edges = sorted(rng.sample(K5_EDGES, 7))
        inputs[f"simple graphic {i}"] = graphic(5, edges)
        inputs[f"cographic {i}"] = graphic(5, edges).dual()
    # twin-free with 24 automorphisms
    inputs["M(K4)"] = graphic(4, K4_EDGES)
    # the Fano plane and its dual: 168 automorphisms, no twins
    inputs["F7"] = _rank_three_paving(
        [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)], 7
    )
    inputs["F7*"] = inputs["F7"].dual()
    # three series pairs, which its 48 automorphisms permute
    inputs["M(K2,3)"] = graphic(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    return {
        name: (m, rng.sample(range(m.n), m.n)) for name, m in inputs.items()
    }


DIFFERENTIAL_INPUTS = _seeded_differential_inputs()


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_INPUTS))
def test_search_matches_oracle_where_ties_and_backjumps_fire(name):
    m, perm = DIFFERENTIAL_INPUTS[name]
    assert m.n in (6, 7)
    copy = m.relabel(perm)
    expected = least_relabeled_family(m.independents, m.n)
    assert _min_relabeling(copy.n, copy.independents)[0] == expected


def test_cold_coproduct_searches_each_class_once(monkeypatch):
    # isomorphic blocks of one coproduct take the first block's key: one
    # search per distinct non-uniform class (223 searches without the lookup)
    _cold_canonical_memos(monkeypatch)
    hopf._class_subset_sum.cache_clear()
    searched = []

    def counted(n, family):
        searched.append(family)
        return _min_relabeling(n, family)

    monkeypatch.setattr(canonical, "_min_relabeling", counted)
    t = coproduct(CoproductMode.RC, graphic(5, K5_EDGES))
    classes = {
        key for legs in t.terms for leg in legs for key in leg.factors
        if not key.is_uniform()
    }
    assert len(searched) == len(classes) == 14


def _connected_binary_classes():
    """One matroid per connected binary class on 5 or 6 elements."""
    binary = {}
    for n in (5, 6):
        for family in binary_matroid_families(n):
            m = Matroid(n, tuple(family))
            if m.is_connected():
                binary.setdefault(canonical_key(m), m)
    return list(binary.values())


def test_search_automorphisms_give_the_subset_orbits(monkeypatch, catalog_reps):
    # with the twin transpositions, the automorphisms a cold search returns
    # generate Aut(M): the merged orbits are the brute-force orbits of the
    # subsets, weights included, on every connected class with 1 <= n <= 4
    # and every connected binary class with n = 5 or 6
    cases = [m for m in catalog_reps if m.n and m.is_connected()]
    assert len(cases) == 9
    binary = _connected_binary_classes()
    assert len(binary) == 19
    for m in cases + binary:
        _cold_canonical_memos(monkeypatch)
        key = canonical_key(m)
        rep = key.matroid()
        group = automorphisms(rep.independents, rep.n)
        generators = search_automorphisms(key)
        assert set(generators) <= set(group)
        merged = merge_orbits(class_orbits(rep.twin_classes()), generators)
        least = {min(permuted_family([a], g)[0] for g in group): w for a, w in merged}
        assert len(least) == len(merged)
        assert least == subset_orbits(group, rep.n)


def _keeps_twin_order(g, classes):
    """True iff g maps each class onto a class, j-th element to j-th."""
    for cls in classes:
        image = [g[e] for e in elements_of(cls)]
        if image != sorted(image) or sum(1 << f for f in image) not in classes:
            return False
    return True


def test_search_generators_keep_the_order_of_twin_classes(monkeypatch, catalog_reps):
    # merge_orbits looks each generator's image of a listed subset up as it
    # is: every generator the search stores, and every one hopf lifts onto
    # a direct sum, must send the j-th twin of a class to the j-th of its
    # image class
    cases = [m.relabel(list(reversed(range(m.n)))) for m in catalog_reps]
    cases += list(ORACLE_INPUTS.values()) + _connected_binary_classes()
    extra = [uniform(0, 1), uniform(1, 1), uniform(1, 2)]
    stored = lifted = 0
    for m in cases:
        _cold_canonical_memos(monkeypatch)
        key = canonical_key(m)
        classes = key.matroid().twin_classes()
        for g in search_automorphisms(key):
            assert _keeps_twin_order(g, classes)
            stored += 1
        for u in extra:
            cls = Monomial.from_matroid(m.direct_sum(u))
            classes = cls.matroid().twin_classes()
            for g in hopf._automorphisms(cls):
                assert _keeps_twin_order(g, classes)
                lifted += 1
    # 22 stored and 63 lifted generators when this test was written
    assert stored and lifted


# classes whose search stores generators (3 and 2): at n <= 4 almost every
# automorphism is a product of twin transpositions, which it never stores
STORING = [
    ORACLE_INPUTS["M(K4)"],
    graphic(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]),
]


def test_canonical_oracle_checks_the_stored_generators(monkeypatch):
    checked = []

    def counted(key):
        generators = search_automorphisms(key)
        checked.extend(generators)
        return generators

    _cold_canonical_memos(monkeypatch)
    monkeypatch.setattr(verify, "search_automorphisms", counted)
    row = verify.check_canonical_oracle(STORING)
    assert row == CheckResult("canonical-oracle", True, "2 classes, all relabelings")
    assert len(checked) >= 5


def test_canonical_oracle_catches_generators_off_the_canonical_labels(monkeypatch):
    # the search's generators conjugated by a rotation of the labels, which
    # is no automorphism of M(K4)'s canonical family
    def conjugated(n, family):
        least, generators = _min_relabeling(n, family)
        rotate = [(e + 1) % n for e in range(n)]
        back = [(e - 1) % n for e in range(n)]
        return least, [tuple(back[g[rotate[e]]] for e in range(n)) for g in generators]

    _cold_canonical_memos(monkeypatch)
    monkeypatch.setattr(canonical, "_min_relabeling", conjugated)
    row = verify.check_canonical_oracle(STORING)
    assert row == CheckResult("canonical-oracle", False, f"automorphism fails on {STORING[0]}")


def test_uniform_and_unsearched_keys_have_no_generators(monkeypatch):
    _cold_canonical_memos(monkeypatch)
    assert search_automorphisms(canonical_key(uniform(2, 5))) == []
    k4 = ORACLE_INPUTS["M(K4)"]
    key = canonical.IsoKey(k4.n, 3, oracle_family("M(K4)"))
    assert search_automorphisms(key) == []
    assert canonical_key(k4) == key
    assert len(search_automorphisms(key)) > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_relabelings_of_catalog_matroids(catalog_reps, data):
    m = data.draw(st.sampled_from([r for r in catalog_reps if r.n >= 2]))
    perm = data.draw(st.permutations(range(m.n)))
    relabeled = Matroid(m.n, tuple(sorted(permuted_family(m.independents, perm))))
    assert canonical_key(relabeled) == canonical_key(m)
    assert is_isomorphic(relabeled, m)
    assert _min_relabeling(relabeled.n, relabeled.independents)[0] == canonical_key(m).family


def test_is_isomorphic_examples():
    u24 = uniform(2, 4)
    assert is_isomorphic(u24, u24.dual())
    assert not is_isomorphic(uniform(1, 2), uniform(2, 2))
    assert not is_isomorphic(uniform(0, 1), uniform(1, 1))


def test_total_order_is_consistent(catalogs):
    keys = [k for n in range(5) for k in catalogs[n].classes]
    ordered = sorted(keys)
    for a, b in zip(ordered, ordered[1:]):
        assert a < b or a == b
        assert not b < a


def test_keys_and_monomials_sort_by_their_fields(catalogs):
    # keys order as (n, rank, family) and monomials as (degree, factors),
    # and each hashes as the plain tuple of its fields
    rng = random.Random(29)
    keys = [k for n in range(5) for k in catalogs[n].classes]
    for key in keys:
        assert hash(key) == hash((key.n, key.rank, key.family))
    shuffled = rng.sample(keys, len(keys))
    assert sorted(shuffled) == sorted(shuffled, key=lambda k: (k.n, k.rank, k.family))
    monomials = [Monomial.from_factors(rng.sample(keys, rng.randint(0, 3))) for _ in range(60)]
    for m in monomials:
        assert hash(m) == hash((m.degree, m.factors))
    assert sorted(monomials) == sorted(
        monomials, key=lambda m: (sum(k.n for k in m.factors), m.factors)
    )


def test_concurrent_calls_agree(monkeypatch, catalog_reps):
    # the memo cache is read-through: concurrent use returns identical keys,
    # also while cold threads search and look up the same classes at once
    import sys
    from concurrent.futures import ThreadPoolExecutor

    _cold_canonical_memos(monkeypatch)
    reps = [m for m in catalog_reps if m.n >= 3]
    targets = [r for m in reps for r in (m, _shifted(m))] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            keys = list(pool.map(canonical_key, targets))
    finally:
        sys.setswitchinterval(interval)
    for m, key in zip(targets, keys):
        assert key == canonical_key(m)
        assert key.family == least_relabeled_family(m.independents, m.n)


def test_ground_set_limit():
    # built directly: uniform() itself refuses eleven elements
    big = Matroid(11, (0,))
    with pytest.raises(GroundSetTooLarge):
        canonical_key(big)
    with pytest.raises(GroundSetTooLarge):
        is_isomorphic(big, big)


def test_rendering():
    assert canonical_key(uniform(2, 4)).render() == "U_{2,4}"
    assert canonical_key(uniform(0, 0)).render() == "U_{0,0}"
    # two parallel elements plus a coloop is not uniform
    m = validate(3, [0, 1, 2, 4, 3, 5])
    text = canonical_key(m).render()
    assert text.startswith("M[3;")
