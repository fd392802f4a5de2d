from itertools import combinations, product

import pytest

from matroid_hopf import enumerate_matroids, graphic, validate


@pytest.fixture(scope="session")
def catalogs():
    return {n: enumerate_matroids(n) for n in range(5)}


@pytest.fixture(scope="session")
def catalog_reps(catalogs):
    return [key.matroid() for n in range(5) for key in catalogs[n].classes]


@pytest.fixture(scope="session")
def oracle_cases(catalog_reps):
    """Every n <= 4 class, the ordered pairwise direct sums with <= 6
    elements, and M(K4) plus an edge parallel to (0, 1) and a self-loop."""
    cases = list(catalog_reps)
    cases += [
        m1.direct_sum(m2) for m1, m2 in product(catalog_reps, repeat=2) if m1.n + m2.n <= 6
    ]
    cases.append(graphic(4, list(combinations(range(4), 2)) + [(0, 1), (2, 2)]))
    return cases


@pytest.fixture(scope="session")
def loop_example():
    # three mutually parallel elements plus one loop
    return validate(4, [0b0000, 0b0001, 0b0010, 0b0100])
