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

On a miss the kernel visits one subset per orbit of the group generated
by the twin transpositions of M (``Matroid.twin_classes``: parallel,
series, loop and coloop classes, all of U_{r,n}), with the orbit's size as
its weight.  An automorphism carries A onto an isomorphic pair of legs, so
every subset of an orbit adds the same term; a twin-free matroid has 2^n
orbits of one subset each.  No minor is built per subset.  Each leg is a
minor (M/B)|X, with B = 0 for M|A and M\\A = M|(E - A) and B a basis of A
for M/A.  ``Monomial.from_matroid`` reads its component masks on M and
builds one small family per distinct connected block, for both legs, with
one table of block keys per call.  Each (X, B) leg is computed once per
call, the class itself being the leg (E, 0), so in the
restriction-deletion case M\\A comes from the same table as the
restrictions.  The restriction-deletion bialgebra is a commutative Hopf
algebra, so its antipode S is multiplicative; on a connected class
S(m) = -sum c S(a) b over the terms c a (x) b of the memoized monomial
coproduct of m with a != m.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, partial
from math import comb
from typing import Literal

from .canonical import IsoKey
from .formal import Monomial, ModuleElement, TensorElement, module_product
from .matroid import Matroid, check_size, elements_of


class CoproductMode(Enum):
    RC = "rc"
    RD = "rd"


def _orbits(matroid: Matroid) -> list[tuple[int, int]]:
    """One (subset, weight) per orbit of the twin transpositions' group.

    That group is the product of the symmetric groups on the twin classes
    T_1..T_k, so the orbit of A is determined by the counts |A & T_i|.  Its
    representative takes the first k_i elements of each T_i, and its
    weight, the orbit's size, is the product of the C(|T_i|, k_i).
    """
    orbits = [(0, 1)]
    for cls in matroid.twin_classes():
        size, prefix = cls.bit_count(), 0
        choices = [(0, 1)]
        for k, e in enumerate(elements_of(cls), 1):
            prefix |= 1 << e
            choices.append((prefix, comb(size, k)))
        orbits = [(a | p, w * c) for a, w in orbits for p, c in choices]
    return orbits


@cache
def _class_subset_sum(mode: CoproductMode, cls: Monomial) -> TensorElement:
    """The coproduct of the class ``cls``, memoized per (mode, cls).

    The walk runs on the representative M = ``cls.matroid()``.  It goes over
    ``_orbits(M)``, each representative A with the size of its orbit as
    weight.  An automorphism g of M maps its independent sets onto
    themselves, so M|g(A), M\\g(A) and M/g(A) are isomorphic to M|A, M\\A
    and M/A: every subset of an orbit adds the same pair of leg classes.
    Without twins every orbit is one subset of weight 1.

    No minor is built per A.  Every leg is a minor (M/base)|mask: M|A and
    M\\A = M|(E - A) with base = 0, and M/A = (M/base)|(E - A) with base
    the greedy basis of A.  ``Monomial.from_matroid(M, mask, base,
    block_keys)`` reads its component masks on M and builds and
    canonicalizes one family per block, and ``block_keys`` shares each
    (block, base) between the legs of the call.  Each (mask, base) leg is
    computed once per call; ``cls`` itself is the leg (E, 0).  Only cache
    misses check ``mode``.
    """
    if not isinstance(mode, CoproductMode):
        raise ValueError(f"mode must be a CoproductMode, got {mode!r}")
    matroid = cls.matroid()
    full = matroid.full_mask
    legs: dict[tuple[int, int], Monomial] = {(full, 0): cls}
    block_keys: dict[tuple[int, int], IsoKey] = {}

    def leg(mask: int, base: int) -> Monomial:
        out = legs.get((mask, base))
        if out is None:
            out = legs[mask, base] = Monomial.from_matroid(matroid, mask, base, block_keys)
        return out

    terms: dict[tuple[Monomial, ...], int] = {}
    for a, weight in _orbits(matroid):
        base = 0 if mode is CoproductMode.RD else matroid._greedy_basis(a)
        pair = (leg(a, 0), leg(full ^ a, base))
        terms[pair] = terms.get(pair, 0) + weight
    return TensorElement(2, terms)


def coproduct(mode: CoproductMode, matroid: Matroid) -> TensorElement:
    """Sum over all subsets A of restriction(A) tensor (deletion|contraction)(A)."""
    check_size(matroid.n)
    return _class_subset_sum(mode, Monomial.from_matroid(matroid))


def coproduct_monomial(mode: CoproductMode, m: Monomial) -> TensorElement:
    """Multiplicative extension of the coproduct to monomials.

    A one-factor monomial is a class, whose coproduct is the kernel's.  A
    product of two or more factors is the legwise product of theirs, cached
    apart and never taken from the kernel's entry for the product's class,
    so that checks of multiplicativity compare two separate computations.
    """
    if len(m.factors) == 1:
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
        raise ValueError("expected an arity-2 tensor")
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
        result = ModuleElement.zero()
        for (a, b), c in coproduct_monomial(CoproductMode.RD, m).terms.items():
            if a != m:
                result = result - c * module_product(_antipode(a), ModuleElement.from_monomial(b))
        return result
    result = ModuleElement.one()
    for key in m.factors:
        result = module_product(result, _antipode(Monomial((key,))))
    return result


def antipode_element(e: ModuleElement) -> ModuleElement:
    """Linear extension of the antipode to elements."""
    out = ModuleElement.zero()
    for m, c in e.terms.items():
        out = out + c * _antipode(m)
    return out


def convolve_antipode_identity(matroid: Matroid, antipode_side: Literal["left", "right"]) -> ModuleElement:
    """Multiply after (S (x) Id) or (Id (x) S) applied to the RD coproduct."""
    if antipode_side not in ("left", "right"):
        raise ValueError(f"antipode_side must be 'left' or 'right', got {antipode_side!r}")
    out = ModuleElement.zero()
    for (a, b), c in coproduct(CoproductMode.RD, matroid).terms.items():
        if antipode_side == "left":
            a, b = _antipode(a), ModuleElement.from_monomial(b)
        else:
            a, b = ModuleElement.from_monomial(a), _antipode(b)
        out = out + c * module_product(a, b)
    return out
