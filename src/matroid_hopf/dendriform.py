"""Dendriform splittings of the reduced coproducts.

The reduced coproduct (full coproduct minus both boundary terms) splits
into a left part summing over dependent proper nonempty subsets and a right
part summing over independent ones.  Both halves are read off the terms
M|A (x) M\\A (or M/A) of the memoized coproduct of a class: A is proper and
nonempty iff both legs are nonempty, and A is independent iff the left leg
M|A has rank |A|.  ``_halves`` memoizes the pair per (mode, class), and the
axiom checks apply a half to one leg through ``TensorElement.expand_leg``.
The restriction-contraction split satisfies all three dendriform coalgebra
axioms.  The restriction-deletion split satisfies axiom 1; it fails axioms
2 and 3 exactly when the matroid has a circuit of size at least 2 other
than the ground set E, since both differences LHS2 - RHS2 and RHS3 - LHS3
equal the sum of M|B (x) M|C (x) M|(E - B - C) over ordered pairs of
disjoint nonempty independent sets B, C whose union is a dependent proper
subset of E.  The pair does not satisfy the codendriform bialgebra
compatibility, and the gap is computable.

The axiom checks and the gap (MN as the product of two classes) hand
``_halves`` classes without building matroids.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .formal import Monomial, TensorElement
from .hopf import CoproductMode, coproduct, coproduct_monomial
from .matroid import InputError, Matroid, check_size


class EmptyMatroidError(InputError):
    pass


class SplitPair(NamedTuple):
    """The two halves of a reduced coproduct; prec + succ recovers it."""

    prec: TensorElement
    succ: TensorElement


def _require_nonempty(matroid: Matroid) -> None:
    if matroid.n == 0:
        raise EmptyMatroidError(
            "the empty matroid is not in the augmentation ideal"
        )


def reduced_coproduct(mode: CoproductMode, matroid: Matroid) -> TensorElement:
    """Coproduct minus the boundary terms M (x) 1 and 1 (x) M."""
    _require_nonempty(matroid)
    full = coproduct(mode, matroid)
    m, unit = Monomial.from_matroid(matroid), Monomial.unit()
    return full - TensorElement(2, {(m, unit): 1, (unit, m): 1})


def split(mode: CoproductMode, matroid: Matroid) -> SplitPair:
    """prec sums over dependent proper nonempty subsets, succ over independent."""
    _require_nonempty(matroid)
    check_size(matroid.n)
    return _halves(mode, Monomial.from_matroid(matroid))


@cache
def _halves(mode: CoproductMode, cls: Monomial) -> SplitPair:
    """The split of the class ``cls``, read off the terms a (x) b of its
    coproduct: a term with both legs nonempty goes to succ when the rank of
    a, the sum of its factors' ranks, is its degree, and to prec otherwise."""
    prec: dict[tuple[Monomial, ...], int] = {}
    succ: dict[tuple[Monomial, ...], int] = {}
    for (a, b), c in coproduct_monomial(mode, cls).terms.items():
        if a.is_unit or b.is_unit:
            continue
        half = succ if sum(k.rank for k in a.factors) == a.degree else prec
        half[a, b] = c
    return SplitPair(TensorElement(2, prec), TensorElement(2, succ))


class DendriformReport(NamedTuple):
    """Outcome of the three dendriform coalgebra axioms."""

    axiom1: bool
    axiom2: bool
    axiom3: bool

    def all_hold(self) -> bool:
        return self.axiom1 and self.axiom2 and self.axiom3


def check_dendriform_axioms(mode: CoproductMode, matroid: Matroid) -> DendriformReport:
    """Evaluate both sides of the three axioms exactly on one matroid.

    Axiom 1: (prec (x) Id) o prec = (Id (x) (prec + succ)) o prec.
    Axiom 2: (succ (x) Id) o prec = (Id (x) prec) o succ.
    Axiom 3: ((prec + succ) (x) Id) o succ = (Id (x) succ) o succ.
    """
    halves = split(mode, matroid)

    def prec(m: Monomial) -> TensorElement:
        return _halves(mode, m).prec

    def succ(m: Monomial) -> TensorElement:
        return _halves(mode, m).succ

    a1_lhs = halves.prec.expand_leg(0, prec)
    a1_rhs = halves.prec.expand_leg(1, prec) + halves.prec.expand_leg(1, succ)
    a2_lhs = halves.prec.expand_leg(0, succ)
    a2_rhs = halves.succ.expand_leg(1, prec)
    a3_lhs = halves.succ.expand_leg(0, prec) + halves.succ.expand_leg(0, succ)
    a3_rhs = halves.succ.expand_leg(1, succ)
    return DendriformReport(a1_lhs == a1_rhs, a2_lhs == a2_rhs, a3_lhs == a3_rhs)


def codendriform_gap(m1: Matroid, m2: Matroid) -> TensorElement:
    """LHS minus RHS of the codendriform compatibility for succ on a product.

    The compatibility demands, writing a' (x) a'' for the reduced coproduct
    and the succ subscript for the right split (restriction-deletion case):

        succ(MN) = M'N'_succ (x) M''N''_succ + M' (x) M''N
                   + MN'_succ (x) N''_succ + N'_succ (x) MN''_succ + M (x) N.

    A nonzero return value witnesses that the compatibility fails.
    """
    _require_nonempty(m1)
    _require_nonempty(m2)
    check_size(m1.n + m2.n)
    mode = CoproductMode.RD
    mono1 = Monomial.from_matroid(m1)
    mono2 = Monomial.from_matroid(m2)
    unit = Monomial.unit()
    lhs = _halves(mode, mono1 * mono2).succ

    halves1 = _halves(mode, mono1)
    red1 = halves1.prec + halves1.succ
    succ2 = _halves(mode, mono2).succ
    rhs = TensorElement.zero(2)
    rhs = rhs + red1.legwise_product(succ2)
    rhs = rhs + red1.legwise_product(TensorElement.from_term((unit, mono2)))
    rhs = rhs + succ2.legwise_product(TensorElement.from_term((mono1, unit)))
    rhs = rhs + succ2.legwise_product(TensorElement.from_term((unit, mono1)))
    rhs = rhs + TensorElement.from_term((mono1, mono2))
    return lhs - rhs
