import hashlib
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from matroid_hopf import (
    CoproductMode,
    GroundSetTooLarge,
    Matroid,
    canonical_key,
    coproduct,
    graphic,
    is_isomorphic,
    uniform,
    validate,
)
from matroid_hopf import canonical, hopf
from matroid_hopf.canonical import _min_relabeling, all_permutation_key

from oracles import (
    all_relabelings_code,
    least_relabeled_family,
    orbit_code,
    permuted_family,
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
        assert key.is_uniform() == key.matroid().is_uniform()


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
        assert canonical_key(m).family == all_permutation_key(m)


def test_matches_independent_orbit_oracle(catalog_reps):
    # same partition into classes as the bitset-orbit encoding
    seen = {}
    for m in catalog_reps:
        code = (m.n, orbit_code(list(m.independents), m.n))
        key = canonical_key(m)
        assert seen.setdefault(code, key) == key


def test_orbit_code_shortcut_matches_all_relabelings():
    # every U_{r,n} takes the oracle's shortcut for relabeling-fixed families
    for n in range(7):
        for r in range(n + 1):
            masks = [s for s in range(1 << n) if bin(s).count("1") <= r]
            assert orbit_code(masks, n) == all_relabelings_code(masks, n)


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


@pytest.mark.parametrize(
    "name", sorted(name for name, m in ORACLE_INPUTS.items() if m.n <= 7)
)
def test_all_permutation_key_matches_transposition_oracle(name):
    # the package's own n! reference against the test oracle (8! is slow)
    assert all_permutation_key(ORACLE_INPUTS[name]) == oracle_family(name)


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
    assert _min_relabeling(copy.n, copy.independents) == expected


def _cold_canonical_memos(monkeypatch):
    monkeypatch.setattr(canonical, "_key_cache", {})
    monkeypatch.setattr(canonical, "_bucket_cache", {})


def test_canonical_family_is_its_own_key(monkeypatch, catalog_reps):
    # a canonical family is the least of its relabelings, so a cold call
    # leaves key.matroid() a memo hit that returns the key itself
    eight = ORACLE_INPUTS["K4 + parallel edge + self-loop"]
    for m in catalog_reps + [eight]:
        m = m.relabel(list(reversed(range(m.n))))
        _cold_canonical_memos(monkeypatch)
        key = canonical_key(m)
        assert _min_relabeling(key.n, key.family) == key.family
        assert canonical_key(key.matroid()) is key


def _no_search(n, family):
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


def _rank_three_paving(lines):
    """Nine points whose dependent triples are exactly ``lines``."""
    dependent = {sum(1 << e for e in line) for line in lines}
    return Matroid(9, tuple(s for s in uniform(3, 9).independents if s not in dependent))


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
        expected = all_permutation_key(m)
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
        expected = _min_relabeling(m.n, m.independents)
        assert canonical_key(_shifted(m)).family == expected


def _family_digest(key) -> str:
    return hashlib.sha256(",".join(map(str, key.family)).encode()).hexdigest()


# (input, rank, SHA-256 of the comma-joined canonical family).  At n >= 9
# all_permutation_key is too slow to serve as the gate, so these pin the keys.
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
    assert _min_relabeling(copy.n, copy.independents) == key.family


def test_orbit_rule_skips_pinned_siblings(monkeypatch):
    # pins the search work: without the orbit rule no sibling is skipped
    skipped = []
    orbit_meets = canonical._orbit_meets

    def counted(*args):
        skipped.append(orbit_meets(*args))
        return skipped[-1]

    monkeypatch.setattr(canonical, "_orbit_meets", counted)
    k5, rank, digest = GOLDEN_KEYS["M(K5)"]
    key = canonical.IsoKey(k5.n, rank, _min_relabeling(k5.n, k5.independents))
    assert sum(skipped) == 59
    assert _family_digest(key) == digest
    skipped.clear()
    k4 = ORACLE_INPUTS["M(K4)"]
    assert _min_relabeling(k4.n, k4.independents) == oracle_family("M(K4)")
    assert sum(skipped) == 8


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_relabelings_of_catalog_matroids(catalog_reps, data):
    m = data.draw(st.sampled_from([r for r in catalog_reps if r.n >= 2]))
    perm = data.draw(st.permutations(range(m.n)))
    relabeled = Matroid(m.n, tuple(sorted(permuted_family(m.independents, perm))))
    assert canonical_key(relabeled) == canonical_key(m)
    assert is_isomorphic(relabeled, m)
    assert _min_relabeling(relabeled.n, relabeled.independents) == canonical_key(m).family


def test_is_isomorphic_examples():
    u24 = uniform(2, 4)
    assert is_isomorphic(u24, u24.dual())
    assert not is_isomorphic(uniform(1, 2), uniform(2, 2))
    assert not is_isomorphic(uniform(0, 1), uniform(1, 1))


def test_total_order_is_consistent(catalogs):
    keys = [k for n in range(5) for k in catalogs[n].classes]
    ordered = sorted(keys, key=lambda k: k.sort_key())
    for a, b in zip(ordered, ordered[1:]):
        assert a < b or a == b
        assert not b < a


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
        assert key.family == all_permutation_key(m)


def test_ground_set_limit():
    big = uniform(0, 11)
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
