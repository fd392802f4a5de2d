"""Independent brute-force references used by tests.

These deliberately avoid the package's own code paths: families are
encoded as bitsets over the power set, orbits are taken over all
permutations directly (a family that every relabeling fixes is its own
orbit), the least relabeled family walks all n! relabelings by one
transposition each (Heap's algorithm), minors relabel element by element, components come from a scan for
every circuit, the antipode is a sum over ordered set partitions,
coproduct legs are keyed by the orbit codes of their components, and
sums render term by term with equal factors grouped by key equality.
"""

from collections import Counter
from functools import lru_cache
from itertools import groupby, permutations
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
    """Minimal power-set-bitset encoding of the family over all relabelings.

    A family that holds every k-subset for each size k it meets, such as a
    uniform matroid, is fixed by every relabeling and is its own code.
    """
    fam = set(masks)
    sizes = Counter(bin(s).count("1") for s in fam)
    if all(count == comb(n, k) for k, count in sizes.items()):
        return sum(1 << s for s in fam)
    return all_relabelings_code(masks, n)


def all_relabelings_code(masks, n):
    """``orbit_code`` by the minimum over all n! relabelings."""
    best = None
    for perm in permutations(range(n)):
        code = 0
        for t in permuted_family(masks, perm):
            code |= 1 << t
        if best is None or code < best:
            best = code
    return best


def least_relabeled_family(masks, n):
    """The least sorted family over all n! relabelings, as a tuple.

    Heap's algorithm reaches every relabeling from the previous one by one
    transposition of two labels i and j, so each step swaps bits i and j in
    the masks that hold exactly one of them.
    """
    fam = list(masks)
    best = sorted(fam)
    count = [0] * n
    i = 1
    while i < n:
        if count[i] < i:
            j = 0 if i % 2 == 0 else count[i]
            swap = 1 << i | 1 << j
            fam = [s ^ swap if (s >> i ^ s >> j) & 1 else s for s in fam]
            best = min(best, sorted(fam))
            count[i] += 1
            i = 1
        else:
            count[i] = 0
            i += 1
    return tuple(best)


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


def _elements(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _relabel_into(subsets, ground):
    """Subsets of ``ground`` relabeled ascending to 0..|ground|-1, sorted."""
    bit_of = {1 << e: 1 << i for i, e in enumerate(_elements(ground))}
    out = []
    for s in subsets:
        t = 0
        while s:
            low = s & -s
            t |= bit_of[low]
            s ^= low
        out.append(t)
    return sorted(out)


def restrict_family(masks, keep):
    """Independent family of M|keep: the members inside ``keep``, relabeled."""
    return _relabel_into([s for s in masks if s & ~keep == 0], keep)


def contract_family(masks, n, mask):
    """Independent family of M/mask, relabeled.

    B is grown greedily on ascending labels inside ``mask``; a subset I of
    the rest is independent in M/mask iff I | B is independent in M.
    """
    fam = set(masks)
    base = 0
    for e in _elements(mask):
        if (base | 1 << e) in fam:
            base |= 1 << e
    rest = ((1 << n) - 1) & ~mask
    kept = []
    s = rest
    while True:
        if (s | base) in fam:
            kept.append(s)
        if not s:
            return _relabel_into(kept, rest)
        s = (s - 1) & rest


def circuits(masks, n):
    """Minimal dependent sets, by a scan of all 2^n subsets.

    A circuit is a dependent set all of whose one-element deletions are
    independent.
    """
    fam = set(masks)
    out = []
    for s in range(1 << n):
        if s in fam:
            continue
        rest = s
        while rest:
            low = rest & -rest
            if (s ^ low) not in fam:
                break
            rest ^= low
        else:
            out.append(s)
    return out


def component_blocks(masks, n):
    """Connected components by union-find over every circuit.

    Blocks are ordered by least element.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for s in circuits(masks, n):
        es = _elements(s)
        for e in es[1:]:
            parent[find(e)] = find(es[0])
    blocks = {}
    for e in range(n):
        blocks[find(e)] = blocks.get(find(e), 0) | 1 << e
    return sorted(blocks.values(), key=lambda b: b & -b)


@lru_cache(maxsize=None)
def class_code(masks, n):
    """Isomorphism class as the sorted (size, orbit_code) of each component.

    ``masks`` is a tuple; codes are memoized, since the coproduct oracle
    meets the same leg families again and again.
    """
    out = []
    for block in component_blocks(masks, n):
        size = bin(block).count("1")
        out.append((size, orbit_code(restrict_family(masks, block), size)))
    return tuple(sorted(out))


def coproduct_terms(masks, n, mode, keep):
    """The "rd" or "rc" coproduct summed over the subsets A with keep(A).

    Each subset adds 1 to the pair of leg codes (M|A, M\\A) or (M|A, M/A),
    each leg keyed by ``class_code``; the deletion is the restriction to
    the complement.
    """
    full = (1 << n) - 1
    out = {}
    for a in range(1 << n):
        if not keep(a):
            continue
        if mode == "rd":
            right = restrict_family(masks, full & ~a)
        else:
            right = contract_family(masks, n, a)
        size = bin(a).count("1")
        left = restrict_family(masks, a)
        pair = (class_code(tuple(left), size), class_code(tuple(right), n - size))
        out[pair] = out.get(pair, 0) + 1
    return out


def tensor_codes(t):
    """A package tensor keyed like ``coproduct_terms``: legs by ``class_code``.

    Each monomial factor is a connected class, so a leg's code collects the
    codes of its factors' canonical families.
    """
    out = {}
    for legs, c in t.terms.items():
        pair = tuple(
            tuple(sorted(x for key in m.factors for x in class_code(key.family, key.n)))
            for m in legs
        )
        out[pair] = out.get(pair, 0) + c
    return out


def ordered_set_partitions(mask):
    """Every tuple (A1, ..., Ak) of nonempty disjoint masks with union ``mask``."""
    if not mask:
        yield ()
        return
    first = mask
    while first:
        for rest in ordered_set_partitions(mask & ~first):
            yield (first,) + rest
        first = (first - 1) & mask


def antipode_rd_terms(masks, n):
    """RD antipode by Takeuchi's formula, keyed by ``orbit_code``.

    S(M) is the sum over ordered set partitions (A1, ..., Ak) of E of
    (-1)^k M|A1 ... M|Ak.  The product is the direct sum, so each term is
    keyed by the orbit code of the direct sum of the restrictions.
    """
    codes = {}
    out = {}
    for blocks in ordered_set_partitions((1 << n) - 1):
        fam, size = [0], 0
        for block in blocks:
            part = restrict_family(masks, block)
            fam = [a | b << size for a in fam for b in part]
            size += bin(block).count("1")
        fam = tuple(sorted(fam))
        if fam not in codes:
            codes[fam] = orbit_code(fam, n)
        out[codes[fam]] = out.get(codes[fam], 0) + (-1) ** len(blocks)
    return {code: c for code, c in out.items() if c}


def render_monomial(m):
    """A monomial's text: runs of equal keys (by ``==``) as key^k, joined by "."."""
    parts = []
    for key, run in groupby(m.factors):
        k = len(list(run))
        parts.append(key.render() if k == 1 else f"{key.render()}^{k}")
    return ".".join(parts) or "1"


def render_sum(x):
    """A ModuleElement's or TensorElement's text, rendering every leg anew.

    Module terms run by descending ``sort_key`` and always carry "c*";
    tensor terms run by ascending tuple of leg sort keys, with legs joined
    by "⊗" and "c*" only when |c| != 1.
    """
    if hasattr(x, "arity"):
        rows = sorted(x.terms.items(), key=lambda t: tuple(m.sort_key() for m in t[0]))
        bodies = [
            (c, "⊗".join(render_monomial(m) for m in legs)) for legs, c in rows
        ]
        bodies = [(c, body if abs(c) == 1 else f"{abs(c)}*{body}") for c, body in bodies]
    else:
        rows = sorted(x.terms.items(), key=lambda t: t[0].sort_key(), reverse=True)
        bodies = [(c, f"{abs(c)}*{render_monomial(m)}") for m, c in rows]
    text = ""
    for c, body in bodies:
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"
