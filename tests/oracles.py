"""Independent brute-force references used by tests.

These deliberately avoid the package's own enumeration and canonicalization
code paths: families are encoded as bitsets over the power set and orbits
are taken over all permutations directly.
"""

from itertools import permutations
from math import comb


def family_is_matroid(masks, n):
    fam = set(masks)
    if not fam or 0 not in fam:
        return False
    for s in fam:
        rest = s
        while rest:
            bit = rest & -rest
            if (s ^ bit) not in fam:
                return False
            rest ^= bit
    by_size = {}
    for s in fam:
        by_size.setdefault(bin(s).count("1"), []).append(s)
    for k, xs in by_size.items():
        for y in by_size.get(k - 1, []):
            for x in xs:
                grow = x & ~y
                ok = False
                while grow:
                    bit = grow & -grow
                    if (y | bit) in fam:
                        ok = True
                        break
                    grow ^= bit
                if not ok:
                    return False
    return True


def permuted_family(masks, perm):
    out = []
    for s in masks:
        t = 0
        for e in range(len(perm)):
            if s >> e & 1:
                t |= 1 << perm[e]
        out.append(t)
    return out


def orbit_code(masks, n):
    """Minimal power-set-bitset encoding of the family over all relabelings."""
    best = None
    for perm in permutations(range(n)):
        code = 0
        for t in permuted_family(masks, perm):
            code |= 1 << t
        if best is None or code < best:
            best = code
    return best


def unpruned_counts(n):
    """(labeled, classes) by scanning every family of subsets of an n-set."""
    labeled = 0
    reps = set()
    subsets = 1 << n
    for fam_code in range(1, 1 << subsets):
        masks = [s for s in range(subsets) if fam_code >> s & 1]
        if 0 not in masks or not family_is_matroid(masks, n):
            continue
        labeled += 1
        reps.add(orbit_code(masks, n))
    return labeled, len(reps)


def poly_P_terms(masks, n):
    """P_M as {(i, j): coefficient of x^i y^j}, by the plain subset sum.

    A loop is an element whose singleton is not in the independent family.
    Each subset A adds (x-1)^(c(E)-c(A)) (y-1)^l(A), with c and l counting
    the non-loops and loops of A, expanded binomially term by term.
    """
    fam = set(masks)
    loops = [e for e in range(n) if (1 << e) not in fam]
    c_total = n - len(loops)
    out = {}
    for a in range(1 << n):
        l_a = sum(1 for e in loops if a >> e & 1)
        p = c_total - (bin(a).count("1") - l_a)
        for i in range(p + 1):
            for j in range(l_a + 1):
                term = comb(p, i) * comb(l_a, j) * (-1) ** (p - i + l_a - j)
                out[i, j] = out.get((i, j), 0) + term
    return {exps: c for exps, c in out.items() if c}
