"""The two coalgebra structures on matroid classes and the antipode.

The restriction-contraction coproduct sends a matroid to the sum over all
ground-set subsets A of (restriction to A) tensor (contraction of A); the
restriction-deletion coproduct replaces the contraction with the deletion.
Both extend multiplicatively to monomials.  One kernel takes that sum.  It
depends only on the isomorphism class, so the kernel is a function of the
class: ``_class_subset_sum`` is memoized with ``functools.cache`` per
(mode, class monomial) and walks the class's representative
``cls.matroid()``.  ``coproduct`` only canonicalizes a labeled matroid into
its class, and callers that already hold a class, such as the monomial
coproduct, pass it directly.  ``dendriform`` reads the reduced coproduct
and the split halves off the kernel's terms.  The coproduct of a product of
two or more factors is the legwise product of the factors' coproducts,
cached apart; it never reads the kernel's entry for the product's own
class, so multiplicativity checks compare two separate computations.  The
antipode is cached per monomial.

On a miss the kernel visits one subset per orbit of the group generated by
the twin transpositions of M (``Matroid.twin_classes``: parallel, series,
loop and coloop classes, all of U_{r,n}) together with the automorphisms
that the canonical search met (``canonical.search_automorphisms``), with
the orbit's size as its weight.  ``matroid.class_orbits`` lists the twin
orbits, for ``characters.poly_P`` too, and ``matroid.merge_orbits`` joins
those that the search's automorphisms map onto one another.  Each of them
sends the j-th element of a twin class to the j-th element of its image
class, so it maps a listed representative straight onto another.  An
automorphism carries A onto an isomorphic pair of legs, so every subset of
an orbit adds the same term; the sum over any subgroup of Aut(M) is exact,
so a class whose automorphisms are not known gets the same sum from its
twin orbits.  A matroid whose only automorphism is the identity has 2^n
orbits of one subset each.  No minor is built per subset.
Each leg is a minor (M/B)|X, with B = 0 for M|A and M\\A = M|(E - A) and B
a basis of A for M/A.  ``Monomial.from_matroid`` reads its component masks
on M and builds one small family per distinct connected block, for both
legs, with one table of block keys per call.  Each (X, B) leg is computed
once per call, the class itself being the leg (E, 0).  In the
restriction-deletion case no right leg is built at all: complementing
commutes with every automorphism, so E - A lies in the orbit of some
walked representative C, whose restriction M|C is the left leg of its own
orbit and is isomorphic to M\\A.  ``class_orbits`` lists the complement
of twin orbit i as orbit N - 1 - i, and ``merge_orbits`` carries C with
each merged orbit, so the walk builds one leg per orbit.  The
restriction-contraction walk builds its right leg M/A per orbit.  The
restriction-deletion bialgebra is a commutative Hopf algebra, so its
antipode S is multiplicative; on a connected class
S(m) = -sum c S(a) b over the terms c a (x) b of the memoized monomial
coproduct of m with a != m, summed in one dict by
``ModuleElement.sum_of_products``.

``single_deletion_terms`` keeps, memoized apart, only the terms whose right
leg has one element: c (M\\e) (x) (M|e), one per orbit of elements, from
the kernel's walk over those orbits alone.  The exponential of a functional
supported on the single loop and the single coloop reads nothing else, so it
never builds a class's whole kernel.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, partial
from typing import Literal

from .canonical import IsoKey, search_automorphisms
from .formal import ArityMismatch, Monomial, ModuleElement, TensorElement, module_product
from .matroid import Matroid, check_size, class_orbits, merge_orbits


class CoproductMode(Enum):
    RC = "rc"
    RD = "rd"


@cache
def _class_subset_sum(mode: CoproductMode, cls: Monomial) -> TensorElement:
    """The coproduct of the class ``cls``, memoized per (mode, cls).

    The walk runs on the representative M = ``cls.matroid()``, over
    ``class_orbits(M.twin_classes())`` merged by the search's
    automorphisms of each factor: each representative A with the size of
    its orbit as weight and the representative of the orbit of E - A.  An
    automorphism g of M maps its independent sets onto themselves, so
    M|g(A), M\\g(A) and M/g(A) are isomorphic to M|A, M\\A and M/A: every
    subset of an orbit adds the same leg classes.
    Without twins or other automorphisms every orbit is one subset of
    weight 1.  Only cache misses check ``mode``.
    """
    if not isinstance(mode, CoproductMode):
        raise ValueError(f"mode must be a CoproductMode, got {mode!r}")
    matroid = cls.matroid()
    orbits = class_orbits(matroid.twin_classes())
    # the twin classes cover E, so orbit i's complement is the N - 1 - i'th
    orbits = [(a, w, c) for (a, w), (c, _) in zip(orbits, reversed(orbits))]
    orbits = merge_orbits(orbits, _automorphisms(cls))
    return _orbit_sum(mode, cls, matroid, orbits)


def _automorphisms(cls: Monomial) -> list[list[int]]:
    """The search's automorphisms of each factor of ``cls``, each acting on
    that factor's block of ``cls.matroid()`` and fixing the other blocks.
    The offset keeps the order within twin classes, and a twin class that
    spans factors holds loops or coloops, which every generator fixes."""
    out = []
    offset = 0
    for key in cls.factors:
        for g in search_automorphisms(key):
            perm = list(range(cls.degree))
            perm[offset : offset + key.n] = [offset + e for e in g]
            out.append(perm)
        offset += key.n
    return out


def _orbit_sum(
    mode: CoproductMode, cls: Monomial, matroid: Matroid, orbits: list[tuple[int, int, int]]
) -> TensorElement:
    """The weighted sum of leg(A) (x) leg(E - A) over the (A, weight, C)
    ``orbits`` of M = ``matroid``, the representative of ``cls``, each
    (mask, base) leg built once per call as the module docstring says.

    C lies in the orbit of E - A under automorphisms of M, so the
    restriction-deletion right leg M\\A is read as M|C; the
    restriction-contraction right leg M/A is built from A alone."""
    full = matroid.full_mask
    legs: dict[tuple[int, int], Monomial] = {(full, 0): cls}
    block_keys: dict[tuple[int, int], IsoKey] = {}

    def leg(mask: int, base: int) -> Monomial:
        out = legs.get((mask, base))
        if out is None:
            out = legs[mask, base] = Monomial.from_matroid(matroid, mask, base, block_keys)
        return out

    terms: dict[tuple[Monomial, ...], int] = {}
    rd = mode is CoproductMode.RD
    for a, weight, c in orbits:
        pair = (leg(a, 0), leg(c, 0) if rd else leg(full ^ a, matroid._greedy_basis(a)))
        terms[pair] = terms.get(pair, 0) + weight
    return TensorElement(2, terms)


@cache
def single_deletion_terms(m: Monomial) -> TensorElement:
    """The terms c a (x) b of the restriction-deletion coproduct of m whose
    right leg b has one element, memoized per monomial.

    For a class, b = M|e is a single loop or coloop and a = M\\e.  These
    are the kernel's orbits with a one-element complement: one per twin
    class T, whose last element is deleted, with weight |T|, merged by the
    same automorphisms as the kernel's: g(last(T)) is last(T') for the
    twin class T' holding it, so g maps E - last(T) onto E - last(T').
    The kernel's walk sums over those orbits alone, each carrying its
    deleted element as the complement, so every right leg M|e is built.
    For a product the legwise product puts the one element in exactly one
    factor: each factor position contributes the factor's terms with the
    other factors multiplied onto the left leg.
    """
    if len(m.factors) != 1:
        terms: dict[tuple[Monomial, ...], int] = {}
        for i, key in enumerate(m.factors):
            rest = Monomial(m.factors[:i] + m.factors[i + 1 :])
            for (a, b), c in single_deletion_terms(Monomial((key,))).terms.items():
                pair = (a * rest, b)
                terms[pair] = terms.get(pair, 0) + c
        return TensorElement(2, terms)
    matroid = m.matroid()
    full = matroid.full_mask
    orbits = [(full ^ (1 << (t.bit_length() - 1)), t.bit_count()) for t in matroid.twin_classes()]
    orbits = merge_orbits(orbits, _automorphisms(m))
    return _orbit_sum(CoproductMode.RD, m, matroid, [(a, w, full ^ a) for a, w in orbits])


def coproduct(mode: CoproductMode, matroid: Matroid) -> TensorElement:
    """Sum over all subsets A of restriction(A) tensor (deletion|contraction)(A)."""
    check_size(matroid.n)
    return _class_subset_sum(mode, Monomial.from_matroid(matroid))


def coproduct_monomial(mode: CoproductMode, m: Monomial) -> TensorElement:
    """Multiplicative extension of the coproduct to monomials.

    A monomial of at most one factor is a class, the unit being the empty
    matroid's, whose coproduct is the kernel's.  A product of two or more
    factors is the legwise product of theirs, cached apart and never taken
    from the kernel's entry for the product's class, so that checks of
    multiplicativity compare two separate computations.
    """
    if len(m.factors) <= 1:
        return _class_subset_sum(mode, m)
    return _coproduct_product(mode, m)


@cache
def _coproduct_product(mode: CoproductMode, m: Monomial) -> TensorElement:
    out = TensorElement.from_term((Monomial.unit(), Monomial.unit()))
    for key in m.factors:
        out = out.legwise_product(_class_subset_sum(mode, Monomial((key,))))
    return out


def coproduct_element(mode: CoproductMode, e: ModuleElement) -> TensorElement:
    """Linear extension of the monomial coproduct."""
    out = TensorElement.zero(2)
    for m, c in e.terms.items():
        out = out + c * coproduct_monomial(mode, m)
    return out


def counit(e: ModuleElement) -> int:
    """Coefficient of the unit monomial."""
    return e.coefficient(Monomial.unit())


def iterated_coproduct(
    mode: CoproductMode, matroid: Matroid, side: Literal["left", "right"]
) -> TensorElement:
    """(coproduct (x) Id) o coproduct, or (Id (x) coproduct) o coproduct."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return coproduct(mode, matroid).expand_leg(
        0 if side == "left" else 1, partial(coproduct_monomial, mode)
    )


def apply_counit(t: TensorElement, leg: int) -> ModuleElement:
    """The counit applied to leg 0 or 1 of an arity-2 tensor, keeping the
    other leg: (counit (x) Id) for leg 0, (Id (x) counit) for leg 1."""
    if t.arity != 2:
        raise ArityMismatch("apply_counit is only defined for arity-2 tensors")
    if leg not in (0, 1):
        raise ValueError(f"leg must be 0 or 1, got {leg!r}")
    out: dict[Monomial, int] = {}
    for legs, c in t.terms.items():
        if legs[leg].is_unit:
            kept = legs[1 - leg]
            out[kept] = out.get(kept, 0) + c
    return ModuleElement(out)


def antipode_rd(key: IsoKey) -> ModuleElement:
    """Antipode of a matroid class in the restriction-deletion Hopf algebra.

    S(1) = 1, S is multiplicative, and S(m) = -sum c S(a) b over the terms
    c a (x) b of the coproduct of a connected m with a != m; memoized.
    """
    check_size(key.n)
    return _antipode(Monomial.from_matroid(key.matroid()))


@cache
def _antipode(m: Monomial) -> ModuleElement:
    if len(m.factors) == 1:
        terms = coproduct_monomial(CoproductMode.RD, m).terms.items()
        return ModuleElement.sum_of_products(
            [(-c, _antipode(a), ModuleElement.from_monomial(b)) for (a, b), c in terms if a != m]
        )
    result = ModuleElement.one()
    for key in m.factors:
        result = module_product(result, _antipode(Monomial((key,))))
    return result


def antipode_element(e: ModuleElement) -> ModuleElement:
    """Linear extension of the antipode to elements."""
    one = ModuleElement.one()
    return ModuleElement.sum_of_products([(c, _antipode(m), one) for m, c in e.terms.items()])


def convolve_antipode_identity(matroid: Matroid, antipode_side: Literal["left", "right"]) -> ModuleElement:
    """Multiply after (S (x) Id) or (Id (x) S) applied to the RD coproduct."""
    if antipode_side not in ("left", "right"):
        raise ValueError(f"antipode_side must be 'left' or 'right', got {antipode_side!r}")
    triples = []
    for (a, b), c in coproduct(CoproductMode.RD, matroid).terms.items():
        if antipode_side == "left":
            triples.append((c, _antipode(a), ModuleElement.from_monomial(b)))
        else:
            triples.append((c, ModuleElement.from_monomial(a), _antipode(b)))
    return ModuleElement.sum_of_products(triples)
