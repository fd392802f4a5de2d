import hashlib
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from matroid_hopf import (
    GroundSetTooLarge,
    Matroid,
    canonical_key,
    graphic,
    is_isomorphic,
    uniform,
    validate,
)
from matroid_hopf import canonical
from matroid_hopf.canonical import _min_relabeling, all_permutation_key

from oracles import orbit_code, permuted_family


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
}


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_pruned_search_matches_oracle_beyond_catalog(name):
    m = ORACLE_INPUTS[name]
    assert 6 <= m.n <= 8
    expected = all_permutation_key(m)
    assert canonical_key(m).family == expected
    perm = [(5 * e + 2) % m.n for e in range(m.n)]  # 5 is prime to n = 6, 7, 8
    assert sorted(perm) == list(range(m.n))
    assert canonical_key(m.relabel(perm)).family == expected


def test_canonical_family_is_its_own_key(monkeypatch, catalog_reps):
    # a canonical family is the least of its relabelings, so a cold call
    # leaves key.matroid() a memo hit that returns the key itself
    eight = ORACLE_INPUTS["K4 + parallel edge + self-loop"]
    for m in catalog_reps + [eight]:
        m = m.relabel(list(reversed(range(m.n))))
        monkeypatch.setattr(canonical, "_key_cache", {})
        key = canonical_key(m)
        assert _min_relabeling(key.n, key.family) == key.family
        assert canonical_key(key.matroid()) is key


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

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_relabelings_of_catalog_matroids(catalog_reps, data):
    m = data.draw(st.sampled_from([r for r in catalog_reps if r.n >= 2]))
    perm = data.draw(st.permutations(range(m.n)))
    relabeled = Matroid(m.n, tuple(sorted(permuted_family(m.independents, perm))))
    assert canonical_key(relabeled) == canonical_key(m)
    assert is_isomorphic(relabeled, m)


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


def test_concurrent_calls_agree(catalog_reps):
    # the memo cache is read-through: concurrent use returns identical keys
    from concurrent.futures import ThreadPoolExecutor

    targets = [m for m in catalog_reps if m.n >= 3] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        keys = list(pool.map(canonical_key, targets))
    for m, key in zip(targets, keys):
        assert key == canonical_key(m)


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
