"""The two coalgebra structures on matroid classes and the antipode.

The restriction-contraction coproduct sends a matroid to the sum over all
ground-set subsets A of (restriction to A) tensor (contraction of A); the
restriction-deletion coproduct replaces the contraction with the deletion.
Both extend multiplicatively to monomials.  One kernel, ``_subset_sum``,
takes that sum over a named family of subsets A: all of them for the
coproduct, the proper nonempty ones for the reduced coproduct, the
dependent or independent proper nonempty ones for the split halves.  The
sum depends only on the isomorphism class, so it is memoized per (mode,
subsets, class).  On a miss no minor is built per subset.  Each leg is a
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
from functools import partial
from typing import Literal

from .canonical import IsoKey, check_size
from .formal import Monomial, ModuleElement, TensorElement, module_product
from .matroid import Matroid


class CoproductMode(Enum):
    RC = "rc"
    RD = "rd"


SubsetFamily = Literal["all", "proper", "dependent", "independent"]

_subset_sum_cache: dict[tuple[CoproductMode, SubsetFamily, Monomial], TensorElement] = {}


def _subset_sum(mode: CoproductMode, matroid: Matroid, which: SubsetFamily) -> TensorElement:
    """Sum over A in the family ``which`` of M|A (x) M\\A (RD) or M|A (x) M/A (RC).

    ``which`` is "all" subsets, the "proper" nonempty ones, or the
    "dependent" or "independent" proper nonempty ones.

    No minor is built per A.  Every leg is a minor (M/base)|mask: M|A and
    M\\A = M|(E - A) with base = 0, and M/A = (M/base)|(E - A) with base
    the greedy basis of A.  ``Monomial.from_matroid(M, mask, base,
    block_keys)`` reads its component masks on M and builds and
    canonicalizes one family per block, and ``block_keys`` shares each
    (block, base) between the legs of the call.  Each (mask, base) leg is
    computed once per call; the class of M, which keys the memo, is the
    leg (E, 0).
    """
    check_size(matroid.n)
    full = matroid.full_mask
    legs: dict[tuple[int, int], Monomial] = {}
    block_keys: dict[tuple[int, int], IsoKey] = {}

    def leg(mask: int, base: int) -> Monomial:
        out = legs.get((mask, base))
        if out is None:
            out = legs[mask, base] = Monomial.from_matroid(matroid, mask, base, block_keys)
        return out

    cls = leg(full, 0)
    memo_key = (mode, which, cls)
    hit = _subset_sum_cache.get(memo_key)
    if hit is not None:
        return hit
    if which == "all":
        subsets = range(1 << matroid.n)
    else:
        subsets = range(1, full)
        if which != "proper":
            independent = which == "independent"
            subsets = (a for a in subsets if matroid.is_independent(a) == independent)
    terms: dict[tuple[Monomial, ...], int] = {}
    for a in subsets:
        base = 0 if mode is CoproductMode.RD else matroid._greedy_basis(a)
        pair = (leg(a, 0), leg(full ^ a, base))
        terms[pair] = terms.get(pair, 0) + 1
    out = TensorElement(2, terms)
    _subset_sum_cache[memo_key] = out
    return out


def coproduct(mode: CoproductMode, matroid: Matroid) -> TensorElement:
    """Sum over all subsets A of restriction(A) tensor (deletion|contraction)(A)."""
    return _subset_sum(mode, matroid, "all")


_coproduct_monomial_cache: dict[tuple[CoproductMode, Monomial], TensorElement] = {}


def coproduct_monomial(mode: CoproductMode, m: Monomial) -> TensorElement:
    """Multiplicative extension of the coproduct to monomials.

    A one-factor monomial is the memoized coproduct of its class.  A
    product of two or more factors is the legwise product of theirs,
    memoized here and never taken from the kernel's memo, so that checks of
    multiplicativity compare two separate computations.
    """
    if len(m.factors) == 1:
        return coproduct(mode, m.factors[0].matroid())
    hit = _coproduct_monomial_cache.get((mode, m))
    if hit is not None:
        return hit
    out = TensorElement.from_term((Monomial.unit(), Monomial.unit()))
    for key in m.factors:
        out = out.legwise_product(coproduct(mode, key.matroid()))
    _coproduct_monomial_cache[(mode, m)] = out
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
    out: dict[Monomial, int] = {}
    for legs, c in t.terms.items():
        if legs[leg].is_unit:
            kept = legs[1 - leg]
            out[kept] = out.get(kept, 0) + c
    return ModuleElement(out)


_antipode_cache: dict[Monomial, ModuleElement] = {}


def antipode_rd(key: IsoKey) -> ModuleElement:
    """Antipode of a matroid class in the restriction-deletion Hopf algebra.

    S(1) = 1, S is multiplicative, and S(m) = -sum c S(a) b over the terms
    c a (x) b of the coproduct of a connected m with a != m; memoized.
    """
    check_size(key.n)
    return _antipode(Monomial.from_matroid(key.matroid()))


def _antipode(m: Monomial) -> ModuleElement:
    hit = _antipode_cache.get(m)
    if hit is not None:
        return hit
    if len(m.factors) == 1:
        result = ModuleElement.zero()
        for (a, b), c in coproduct_monomial(CoproductMode.RD, m).terms.items():
            if a != m:
                result = result - c * module_product(_antipode(a), ModuleElement.from_monomial(b))
    else:
        result = ModuleElement.one()
        for key in m.factors:
            result = module_product(result, _antipode(Monomial((key,))))
    _antipode_cache[m] = result
    return result


def antipode_element(e: ModuleElement) -> ModuleElement:
    """Linear extension of the antipode to elements."""
    out = ModuleElement.zero()
    for m, c in e.terms.items():
        out = out + c * _antipode(m)
    return out


def convolve_antipode_identity(matroid: Matroid, antipode_side: Literal["left", "right"]) -> ModuleElement:
    """Multiply after (S (x) Id) or (Id (x) S) applied to the RD coproduct."""
    out = ModuleElement.zero()
    for (a, b), c in coproduct(CoproductMode.RD, matroid).terms.items():
        if antipode_side == "left":
            a, b = _antipode(a), ModuleElement.from_monomial(b)
        else:
            a, b = ModuleElement.from_monomial(a), _antipode(b)
        out = out + c * module_product(a, b)
    return out
