"""Exact matroids on ground sets {0,...,n-1}.

A matroid is stored as its complete family of independent sets, each set a
bitmask over the ground set.  Everything downstream (coproducts, antipodes,
characters) reduces to subset arithmetic on these families, so the target
scale is small ground sets (n up to about 10) and all operations are exact.

Ground sets are always 0..n-1.  Minors relabel surviving elements in
ascending order of their original labels, which makes the restriction and
deletion composition identities literal equalities of Matroid values.
``Matroid.from_dict`` reads the JSON record of CLI input files and catalog
caches alike.
``Matroid`` and the other plain records are ``NamedTuple``s, cheap to build,
hash and compare; a record decorator's module, with the ``inspect``, ``ast``
and ``dis`` it loads, took over half of the package's own import time.
Every bad-input error, here or elsewhere, subclasses :class:`InputError`,
which the CLI reports as exit code 2; API misuse raises plain ``ValueError``:
a mask outside [0, 2^n) handed to ``rank``, ``element_counts``,
``components``, ``restrict``, ``delete`` or ``contract``, a negative mask
handed to ``elements_of`` or ``submasks``, an element outside
0..n-1 handed to ``is_loop``, or a ``relabel`` argument that is not a
permutation of 0..n-1.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from itertools import combinations
from math import comb
from operator import or_
from typing import NamedTuple


class InputError(ValueError):
    """The matroid or size the caller gave cannot be accepted."""


class AxiomViolation(InputError):
    """A subset family fails one of the independence axioms I1, I2, I3.

    ``axiom`` is one of "I1", "I2", "I3"; ``witness`` is a tuple of the
    offending subset masks (empty for I1).
    """

    def __init__(self, axiom: str, witness: tuple[int, ...], message: str):
        super().__init__(f"{axiom} violated: {message}")
        self.axiom = axiom
        self.witness = witness


class InvalidRank(InputError):
    pass


class MalformedRecord(InputError):
    """A matroid record is not of the shape {"n": int, "independent": [[int]]}."""


MAX_GROUND_SET = 10


class GroundSetTooLarge(InputError):
    def __init__(self, n: int):
        super().__init__(
            f"ground set of size {n} exceeds the canonicalization limit "
            f"{MAX_GROUND_SET}"
        )
        self.n = n


def check_size(n: int) -> None:
    """Raise GroundSetTooLarge for a ground set above MAX_GROUND_SET."""
    if n > MAX_GROUND_SET:
        raise GroundSetTooLarge(n)


class BadVertexIndex(InputError):
    pass


def mask_of(elements) -> int:
    """Bitmask of an iterable of element labels."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted element labels present in a bitmask."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
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
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


@cache
def _submask_table(mask: int) -> tuple[int, ...]:
    """``tuple(submasks(mask))``, built once per mask.

    ``Matroid._minor`` reads it.  On ground sets of at most MAX_GROUND_SET
    elements it holds at most 2^10 masks and 3^10 submasks in all.
    """
    return tuple(submasks(mask))


def class_orbits(classes: tuple[int, ...]) -> list[tuple[int, int]]:
    """One (subset, weight) per orbit of the product of the symmetric
    groups on the disjoint masks ``classes``, subsets of their union.

    The orbit of A is determined by the counts |A & T_i|.  Its
    representative takes the first k_i elements of each class T_i, and its
    weight, the orbit's size, is the product of the C(|T_i|, k_i).  The
    list is in mixed radix order of the counts, the last class counting
    fastest.  When the classes cover the ground set E, the complement of
    orbit i is orbit N - 1 - i of the N listed: complementing sends each
    count k_i to |T_i| - k_i, which reverses every digit.
    """
    orbits = [(0, 1)]
    for cls in classes:
        size, prefix = cls.bit_count(), 0
        choices = [(0, 1)]
        for k, e in enumerate(elements_of(cls), 1):
            prefix |= 1 << e
            choices.append((prefix, comb(size, k)))
        orbits = [(a | p, w * c) for a, w in orbits for p, c in choices]
    return orbits


def merge_orbits(orbits: list[tuple[int, ...]], generators) -> list[tuple[int, ...]]:
    """Merge the (subset, weight) orbits of the symmetric groups on
    disjoint classes T_i into the orbits of the group that they and the
    permutations ``generators`` (e -> g[e]) generate together.

    Each listed subset takes the first k_i elements of each class T_i, as
    in ``class_orbits``.  Each generator must map every class onto a class,
    its j-th element onto the j-th element of the image class, as the
    automorphisms of ``canonical.search_automorphisms`` do on twin
    classes.  It then maps each listed subset A onto the same form of
    g(A), the listed subset of its orbit, so each generator permutes the
    list; a generator that breaks the rule raises KeyError at the lookup
    of an image that is not listed.  A walk along those permutations joins
    the entries of each merged orbit: the first listed subset stays as its
    representative, and the weights add up.  Only listed subsets are
    mapped, never all 2^n masks, through two tables per generator of the
    images of the low and the high half of the labels.  With no generators
    the list comes back unchanged.

    An entry may carry a third field, a listed subset, as the coproduct
    kernel's entries carry their complement's listed form.  Its merged
    entry then carries the representative of the merged orbit holding that
    subset.  Complementing commutes with every permutation, so the
    complement of each representative lies in the orbit whose
    representative its entry carries.
    """
    if not generators:
        return orbits
    subsets = [entry[0] for entry in orbits]
    index = {a: i for i, a in enumerate(subsets)}
    moves = []  # per generator, the index of each listed subset's image
    for g in generators:
        half = (len(g) + 1) // 2
        low, high = [0], [0]
        for e, f in enumerate(g):
            table = low if e < half else high
            table += [t | 1 << f for t in table]
        low_mask = (1 << half) - 1
        moves.append([index[low[a & low_mask] | high[a >> half]] for a in subsets])
    seen = [False] * len(orbits)
    first = [0] * len(orbits)  # per listed subset, its merged orbit's first one
    merged = []  # per merged orbit, the index of its first subset and its weight
    for i in range(len(orbits)):
        if seen[i]:
            continue
        seen[i] = True
        stack, weight = [i], 0
        while stack:
            j = stack.pop()
            first[j] = i
            weight += orbits[j][1]
            for move in moves:
                k = move[j]
                if not seen[k]:
                    seen[k] = True
                    stack.append(k)
        merged.append((i, weight))
    if len(orbits[0]) == 2:
        return [(subsets[i], weight) for i, weight in merged]
    return [(subsets[i], weight, subsets[first[index[orbits[i][2]]]]) for i, weight in merged]


class _Fields(NamedTuple):
    n: int
    independents: tuple[int, ...]


class Matroid(_Fields):
    """A matroid (E, I) with E = {0,...,n-1} and I an explicit family.

    ``independents`` is the strictly sorted tuple of all independent-set
    bitmasks.  The raw constructor does not check the axioms; go through
    :func:`validate` for untrusted families.  Values are immutable and all
    operations are pure, so instances can be shared freely.  No
    ``__slots__``, so that ``_iset`` can cache on the instance.
    """

    # a matroid is not a number: no tuple concatenation or repetition
    __add__ = __radd__ = __mul__ = __rmul__ = None

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
        elif mask >> self.n:
            raise _outside(mask, self.n)
        return max(s.bit_count() for s in self.independents if s & ~mask == 0)

    def bases(self) -> tuple[int, ...]:
        return self.maximal_independent_subsets(self.full_mask)

    def is_loop(self, e: int) -> bool:
        if not 0 <= e < self.n:
            raise ValueError(f"element {e} outside ground set of size {self.n}")
        return bool(self.loops() >> e & 1)

    def loops(self) -> int:
        """Bitmask of loops: the elements in no independent set.

        By downward closure an element lies in some independent set iff its
        singleton is independent, so these are the elements whose singleton
        is dependent.  Reading the union needs no oracle set.
        """
        return self.full_mask & ~reduce(or_, self.independents, 0)

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
        elif mask >> self.n:
            raise _outside(mask, self.n)
        l = (mask & self.loops()).bit_count()
        return mask.bit_count() - l, l

    def restrict(self, mask: int) -> Matroid:
        """Restriction to ``mask``, relabeled ascending to 0..|mask|-1."""
        if mask >> self.n:
            raise _outside(mask, self.n)
        return self._minor(mask, 0)

    def delete(self, mask: int) -> Matroid:
        """Deletion of ``mask``: the restriction to the complement."""
        if mask >> self.n:
            raise _outside(mask, self.n)
        return self.restrict(self.full_mask & ~mask)

    def contract(self, mask: int) -> Matroid:
        """Contraction of ``mask``, relabeled ascending.

        Uses the lexicographically least maximal independent subset of
        ``mask``; the result does not depend on that choice.
        """
        if mask >> self.n:
            raise _outside(mask, self.n)
        return self._minor(self.full_mask & ~mask, self._greedy_basis(mask))

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

    def _minor(self, mask: int, base: int) -> Matroid:
        """The minor (M/base)|mask, relabeled ascending.

        ``base`` is independent and disjoint from ``mask``: a subset s of
        ``mask`` is independent in the minor iff s | base is independent in
        M.  submasks(mask) ascends, so the i-th one relabels to i; they are
        read from ``_submask_table``, built once per mask.  With
        ``base = 0`` this is the restriction M|mask.  Every minor is built
        here: ``restrict`` and ``delete`` with ``base = 0``, ``contract`` and
        the block minors of ``Monomial.from_matroid`` with an independent
        ``base``.
        """
        if mask == self.full_mask:
            return self
        iset = self._iset
        # a list first: tuple() of a generator grows and then shrinks its
        # result, which raised the peak RSS of a warm query stream by 0.6 MB
        fam = [i for i, s in enumerate(_submask_table(mask)) if (s | base) in iset]
        return Matroid(mask.bit_count(), tuple(fam))

    def maximal_independent_subsets(self, mask: int) -> tuple[int, ...]:
        r = self.rank(mask)
        return tuple(
            s for s in self.independents if s & ~mask == 0 and s.bit_count() == r
        )

    def direct_sum(self, other: Matroid) -> Matroid:
        """Disjoint union, with ``other`` relabeled to n..n+m-1.

        Each mask is (b << n) + a with a < 2**n, so with ``other``'s sets in
        the outer loop the masks come out strictly ascending, unsorted.
        """
        n = self.n
        fam = [a | b << n for b in other.independents for a in self.independents]
        return Matroid(n + other.n, tuple(fam))

    def dual(self) -> Matroid:
        """Matroid whose bases are the complements of this one's bases."""
        full = self.full_mask
        fam: set[int] = set()
        for b in self.bases():
            fam.update(submasks(full & ~b))
        return Matroid(self.n, tuple(sorted(fam)))

    def relabel(self, perm) -> Matroid:
        """Image under the permutation e -> perm[e] of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm!r} is not a permutation of 0..{self.n - 1}")
        fam = sorted(
            mask_of(perm[e] for e in elements_of(s)) for s in self.independents
        )
        return Matroid(self.n, tuple(fam))

    def components(self, mask: int | None = None, base: int = 0) -> tuple[int, ...]:
        """Masks of the connected components of (M/base)|mask, in original
        labels, ordered by least element.

        ``mask`` defaults to E; ``base`` is independent and disjoint from
        ``mask`` (ValueError otherwise), so (M/base)|mask is the minor whose
        independent sets are the subsets s of ``mask`` with s | base
        independent.  With ``base = 0`` it is the restriction M|mask; with
        ``base`` a maximal independent subset of A and ``mask = E - A`` it
        is the contraction M/A.  No minor is built.

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
        if (mask | base) >> self.n:
            raise _outside(mask | base, self.n)
        iset = self._iset
        if base & mask or base not in iset:
            raise ValueError(f"base {base} is not independent and disjoint from mask {mask}")
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

    def twin_classes(self) -> tuple[int, ...]:
        """Masks of the twin classes, ordered by least element.

        e and f are twins iff transposing them maps the family onto itself:
        parallel, series, loop and coloop classes, and every element of a
        uniform matroid.  The transposition fixes each set holding both or
        neither, so it fixes the family iff t + f is independent for every
        independent t + e with t avoiding f, and as many independent sets
        hold e as f (that makes the injection t + e -> t + f onto).  A t
        holding f passes the test by downward closure.  The relation is
        transitive, since (e g) is (e f)(f g)(e f), so each element is
        tested against the least element of each class so far.
        """
        iset = self._iset
        links = []  # per element e, the sets s - e for the independent s holding e
        for e in range(self.n):
            bit = 1 << e
            links.append([s ^ bit for s in self.independents if s & bit])
        classes: list[int] = []
        for e, link in enumerate(links):
            for i, cls in enumerate(classes):
                low = cls & -cls
                if len(link) == len(links[low.bit_length() - 1]) and all(
                    (t | low) in iset for t in link
                ):
                    classes[i] |= 1 << e
                    break
            else:
                classes.append(1 << e)
        return tuple(classes)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "independent": [list(elements_of(s)) for s in self.independents],
        }

    @classmethod
    def from_dict(cls, record) -> Matroid:
        """Read {"n": n, "independent": [[e, ...], ...]}, checking n against
        the cap before any element list is read and before :func:`validate`."""
        if not isinstance(record, dict) or "n" not in record or "independent" not in record:
            raise MalformedRecord("expected an object with keys 'n' and 'independent'")
        n, sets = record["n"], record["independent"]
        # type() and not isinstance(): JSON true/false load as bool, an int subclass
        if type(n) is not int or n < 0:
            raise MalformedRecord(f"'n' must be a nonnegative integer, got {n!r}")
        check_size(n)
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise MalformedRecord("'independent' must be a list of element lists")
        for s in sets:
            for e in s:
                if type(e) is not int or not 0 <= e < n:
                    raise MalformedRecord(f"element {e!r} is not an integer in [0, {n})")
        return validate(n, [mask_of(s) for s in sets])

    def __str__(self) -> str:
        return f"Matroid(n={self.n}, |I|={len(self.independents)})"


def _outside(mask: int, n: int) -> ValueError:
    """For a mask with a bit at n or above, or below 0: ``mask >> n != 0``."""
    return ValueError(f"mask {mask} is not a subset of a ground set of size {n}")


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
    Raises :class:`AxiomViolation` with a witness on failure, and
    :class:`InputError` for a negative n or a mask outside the ground set.
    """
    if n < 0:
        raise InputError(f"ground-set size must be nonnegative, got {n}")
    fam = sorted(set(family))
    for s in fam:
        if s < 0 or s >> n:
            raise InputError(f"mask {s} out of range for ground set of size {n}")
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
    check_size(n)  # before the walk over all subsets of size at most r
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
    matroid loops.  Edges are added one at a time; each forest so far keeps
    per vertex the least vertex of its tree, and it plus the next edge is a
    forest iff the edge's ends have different labels.  Only forests are
    visited, and they come out ascending.
    """
    edges = [tuple(e) for e in edges]
    check_size(len(edges))  # before the walk over the forests, up to 2^m of them
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise BadVertexIndex(
                f"edge ({u},{v}) exceeds vertex count {vertex_count}"
            )
    # relabel the endpoints that occur to 0..k-1, so isolated vertices cost nothing
    index = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    forests = [(0, tuple(range(len(index))))]
    for i, (u, v) in enumerate(edges):
        u, v = index[u], index[v]
        grown = []
        for mask, label in forests:
            a, b = label[u], label[v]
            if a != b:
                low = min(a, b)
                label = tuple(low if x == a or x == b else x for x in label)
                grown.append((mask | 1 << i, label))
        forests += grown
    return Matroid(len(edges), tuple(mask for mask, _ in forests))
