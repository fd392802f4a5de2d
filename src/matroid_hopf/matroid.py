"""Exact matroids on ground sets {0,...,n-1}.

A matroid is stored as its complete family of independent sets, each set a
bitmask over the ground set.  Everything downstream (coproducts, antipodes,
characters) reduces to subset arithmetic on these families, so the target
scale is small ground sets (n up to about 10) and all operations are exact.

Ground sets are always 0..n-1.  Minors relabel surviving elements in
ascending order of their original labels, which makes the restriction and
deletion composition identities literal equalities of Matroid values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb


class AxiomViolation(ValueError):
    """A subset family fails one of the independence axioms I1, I2, I3.

    ``axiom`` is one of "I1", "I2", "I3"; ``witness`` is a tuple of the
    offending subset masks (empty for I1).
    """

    def __init__(self, axiom: str, witness: tuple[int, ...], message: str):
        super().__init__(f"{axiom} violated: {message}")
        self.axiom = axiom
        self.witness = witness


class InvalidRank(ValueError):
    pass


class BadVertexIndex(ValueError):
    pass


class BadElement(ValueError):
    pass


def mask_of(elements) -> int:
    """Bitmask of an iterable of element labels."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted element labels present in a bitmask."""
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def submasks(mask: int):
    """All submasks of a bitmask, ascending as integers."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


@dataclass(frozen=True)
class Matroid:
    """A matroid (E, I) with E = {0,...,n-1} and I an explicit family.

    ``independents`` is the strictly sorted tuple of all independent-set
    bitmasks.  The raw constructor does not check the axioms; go through
    :func:`validate` for untrusted families.  Values are immutable and all
    operations are pure, so instances can be shared freely.
    """

    n: int
    independents: tuple[int, ...]

    @cached_property
    def _iset(self) -> frozenset[int]:
        return frozenset(self.independents)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_independent(self, mask: int) -> bool:
        return mask in self._iset

    def rank(self, mask: int | None = None) -> int:
        """Size of the largest independent subset of ``mask`` (default E)."""
        if mask is None:
            mask = self.full_mask
        return max(s.bit_count() for s in self.independents if s & ~mask == 0)

    def bases(self) -> tuple[int, ...]:
        return self.maximal_independent_subsets(self.full_mask)

    def is_loop(self, e: int) -> bool:
        self._check_element(e)
        return (1 << e) not in self._iset

    def loops(self) -> int:
        """Bitmask of loops (elements whose singleton is dependent)."""
        return mask_of(e for e in range(self.n) if (1 << e) not in self._iset)

    def coloops(self) -> int:
        """Bitmask of coloops (elements lying in every basis)."""
        acc = self.full_mask
        for b in self.bases():
            acc &= b
        return acc

    def element_counts(self, mask: int | None = None) -> tuple[int, int]:
        """(c, l): elements of ``mask`` with independent / dependent singleton."""
        if mask is None:
            mask = self.full_mask
        c = sum(1 for e in elements_of(mask) if (1 << e) in self._iset)
        return c, mask.bit_count() - c

    def restrict(self, mask: int) -> Matroid:
        """Restriction to ``mask``, relabeled ascending to 0..|mask|-1.

        Each maximal run of elements missing from ``mask`` below its top
        element is closed by one shift of the bits above it.  That
        compression keeps the order of the submasks of ``mask``, so the
        family stays sorted.
        """
        if mask == self.full_mask:
            return self
        outside = ~mask
        fam = [s for s in self.independents if not s & outside]
        gaps = outside & ((1 << mask.bit_length()) - 1)
        while gaps:
            top = gaps.bit_length()
            start = (mask & ((1 << top) - 1)).bit_length()
            keep = (1 << start) - 1
            fam = [(s & keep) | (s >> top << start) for s in fam]
            gaps &= keep
        return Matroid(mask.bit_count(), tuple(fam))

    def delete(self, mask: int) -> Matroid:
        """Deletion of ``mask``: the restriction to the complement."""
        return self.restrict(self.full_mask & ~mask)

    def contract(self, mask: int) -> Matroid:
        """Contraction of ``mask``, relabeled ascending.

        Uses the lexicographically least maximal independent subset of
        ``mask``; the result does not depend on that choice.
        """
        return self._contract_using(mask, self._greedy_basis(mask))

    def _greedy_basis(self, mask: int, base: int = 0) -> int:
        """``base`` plus the lexicographically least subset of ``mask`` that
        extends it to a maximal independent subset of ``base | mask``.

        Greedy on ascending labels; ``base`` is independent.
        """
        iset = self._iset
        for bit in _bits(mask):
            if (base | bit) in iset:
                base |= bit
        return base

    def _contract_using(self, mask: int, base: int) -> Matroid:
        return self._minor(self.full_mask & ~mask, base)

    def _minor(self, mask: int, base: int) -> Matroid:
        """The minor (M/base)|mask, relabeled ascending.

        ``base`` is independent and disjoint from ``mask``: a subset s of
        ``mask`` is independent in the minor iff s | base is independent in
        M.  submasks(mask) ascends, so the i-th one relabels to i.  With
        ``base = 0`` this is M|mask, read off the independence oracle.
        ``restrict`` scans the family instead, because it needs no oracle
        set, which ``verify`` would otherwise build for many short-lived
        matroids.
        """
        if mask == self.full_mask:
            return self
        iset = self._iset
        # a list first: tuple() of a generator grows and then shrinks its
        # result, which raised the peak RSS of a warm query stream by 0.6 MB
        fam = [i for i, s in enumerate(submasks(mask)) if (s | base) in iset]
        return Matroid(mask.bit_count(), tuple(fam))

    def maximal_independent_subsets(self, mask: int) -> tuple[int, ...]:
        r = self.rank(mask)
        return tuple(
            s for s in self.independents if s & ~mask == 0 and s.bit_count() == r
        )

    def direct_sum(self, other: Matroid) -> Matroid:
        """Disjoint union, with ``other`` relabeled to n..n+m-1."""
        fam = sorted(
            a | (b << self.n)
            for a in self.independents
            for b in other.independents
        )
        return Matroid(self.n + other.n, tuple(fam))

    def dual(self) -> Matroid:
        """Matroid whose bases are the complements of this one's bases."""
        full = self.full_mask
        fam: set[int] = set()
        for b in self.bases():
            fam.update(submasks(full & ~b))
        return Matroid(self.n, tuple(sorted(fam)))

    def relabel(self, perm) -> Matroid:
        """Image under the permutation e -> perm[e] of 0..n-1."""
        fam = sorted(
            mask_of(perm[e] for e in elements_of(s)) for s in self.independents
        )
        return Matroid(self.n, tuple(fam))

    def components(self, mask: int | None = None, base: int = 0) -> tuple[int, ...]:
        """Masks of the connected components of (M/base)|mask, in original
        labels, ordered by least element.

        ``mask`` defaults to E; ``base`` is independent and disjoint from
        ``mask``, so (M/base)|mask is the minor whose independent sets are
        the subsets s of ``mask`` with s | base independent.  With
        ``base = 0`` it is the restriction M|mask; with ``base`` a maximal
        independent subset of A and ``mask = E - A`` it is the contraction
        M/A.  No minor is built.

        Components are the classes of the relation joining elements that lie
        on a common circuit; the matroid is the direct sum of its
        restrictions to them.  They are read off the fundamental circuits of
        one basis B of the minor: e outside B and b in B are joined iff
        B - b + e is independent in the minor, that is iff
        (B | base) - b + e is independent in M.  That graph has the
        components of the matroid (Krogdahl, "The dependence graph for bases
        in matroids", Discrete Math. 19, 1977; Oxley, *Matroid Theory*,
        4.3).  Loops and coloops come out as singletons.
        """
        if mask is None:
            mask = self.full_mask
        iset = self._iset
        basis = self._greedy_basis(mask, base)
        basis_bits = list(_bits(basis ^ base))
        blocks = basis_bits[:]
        for e in _bits(mask & ~basis):
            circuit = e
            for b in basis_bits:
                if ((basis ^ b) | e) in iset:
                    circuit |= b
            merged, blocks_left = circuit, []
            for block in blocks:
                if block & circuit:
                    merged |= block
                else:
                    blocks_left.append(block)
            blocks = blocks_left + [merged]
        return tuple(sorted(blocks, key=lambda m: m & -m))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_uniform(self) -> bool:
        """True iff every subset of size at most rank(E) is independent."""
        r = self.rank()
        want = sum(comb(self.n, i) for i in range(r + 1))
        return len(self.independents) == want

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "independent": [list(elements_of(s)) for s in self.independents],
        }

    @classmethod
    def from_dict(cls, record: dict) -> Matroid:
        return validate(record["n"], [mask_of(s) for s in record["independent"]])

    def _check_element(self, e: int) -> None:
        if not 0 <= e < self.n:
            raise BadElement(f"element {e} outside ground set of size {self.n}")

    def __str__(self) -> str:
        return f"Matroid(n={self.n}, |I|={len(self.independents)})"


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def validate(n: int, family) -> Matroid:
    """Build a matroid from an untrusted family of independent-set masks.

    Deduplicates and sorts the family, then checks the axioms:
    I1 the family is nonempty (with downward closure this forces the empty
    set in), I2 every subset of a member is a member, I3 the exchange axiom.
    Raises :class:`AxiomViolation` with a witness on failure.
    """
    if n < 0:
        raise ValueError(f"ground-set size must be nonnegative, got {n}")
    fam = sorted(set(family))
    for s in fam:
        if s < 0 or s >> n:
            raise ValueError(f"mask {s} out of range for ground set of size {n}")
    if not fam:
        raise AxiomViolation("I1", (), "the family of independent sets is empty")
    iset = set(fam)
    for s in fam:
        for bit in _bits(s):
            if (s ^ bit) not in iset:
                raise AxiomViolation(
                    "I2",
                    (s, s ^ bit),
                    f"{elements_of(s)} is independent but its subset "
                    f"{elements_of(s ^ bit)} is not",
                )
    by_size: dict[int, list[int]] = {}
    for s in fam:
        by_size.setdefault(s.bit_count(), []).append(s)
    for k, xs in by_size.items():
        for y in by_size.get(k - 1, []):
            for x in xs:
                if not any((y | bit) in iset for bit in _bits(x & ~y)):
                    raise AxiomViolation(
                        "I3",
                        (x, y),
                        f"no element of {elements_of(x)} extends "
                        f"{elements_of(y)} to an independent set",
                    )
    return Matroid(n, tuple(fam))


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid U_{r,n}: subsets of size at most r are independent."""
    if n < 0 or r < 0 or r > n:
        raise InvalidRank(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    fam = sorted(
        mask_of(c) for k in range(r + 1) for c in combinations(range(n), k)
    )
    return Matroid(n, tuple(fam))


def empty_matroid() -> Matroid:
    """U_{0,0}, the unit of the Hopf algebra."""
    return Matroid(0, (0,))


def graphic(vertex_count: int, edges) -> Matroid:
    """Cycle matroid of a multigraph; edge i becomes ground-set element i.

    A subset of edges is independent iff it is a forest; self-loop edges are
    matroid loops.
    """
    edges = [tuple(e) for e in edges]
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise BadVertexIndex(
                f"edge ({u},{v}) exceeds vertex count {vertex_count}"
            )
    # relabel the endpoints that occur to 0..k-1, so isolated vertices cost nothing
    index = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    edges = [(index[u], index[v]) for u, v in edges]
    m = len(edges)
    fam = [s for s in range(1 << m) if _is_forest(len(index), edges, s)]
    return Matroid(m, tuple(fam))


def _is_forest(vertex_count: int, edges, mask: int) -> bool:
    parent = list(range(vertex_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(mask.bit_length()):
        if mask >> i & 1:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True
