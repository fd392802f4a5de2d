"""Dendriform splittings of the reduced coproducts.

The reduced coproduct (full coproduct minus both boundary terms) splits
into a left part summing over dependent proper nonempty subsets and a right
part summing over independent ones.  All three are the subset-sum kernel of
``hopf``, named by its ``SubsetFamily``: "proper" for the reduced
coproduct, "dependent" for the left half prec and "independent" for the
right half succ.  The axiom checks apply a split to one leg through
``TensorElement.expand_leg``.  The restriction-contraction split
satisfies all three dendriform coalgebra axioms.  The restriction-deletion
split satisfies axiom 1; it fails axioms 2 and 3 exactly when the matroid
has a circuit of size at least 2 other than the ground set E, since both
differences LHS2 - RHS2 and RHS3 - LHS3 equal the sum of
M|B (x) M|C (x) M|(E - B - C) over ordered pairs of disjoint nonempty
independent sets B, C whose union is a dependent proper subset of E.  The
pair does not satisfy the codendriform bialgebra compatibility, and the gap
is computable.

The kernel memoizes each of the three sums per (mode, subsets, class), and
the axiom checks and the gap (MN as the product of two classes) hand it
classes without building matroids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formal import Monomial, TensorElement
from .hopf import CoproductMode, SubsetFamily, _class_subset_sum, _subset_sum
from .matroid import InputError, Matroid, check_size


class EmptyMatroidError(InputError):
    pass


@dataclass(frozen=True)
class SplitPair:
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
    return _subset_sum(mode, matroid, "proper")


def split(mode: CoproductMode, matroid: Matroid) -> SplitPair:
    """prec sums over dependent proper nonempty subsets, succ over independent."""
    _require_nonempty(matroid)
    return SplitPair(
        prec=_subset_sum(mode, matroid, "dependent"),
        succ=_subset_sum(mode, matroid, "independent"),
    )


def _compose(
    mode: CoproductMode, outer: TensorElement, leg: int, which: SubsetFamily
) -> TensorElement:
    """Apply a split map to one leg of an arity-2 tensor, giving arity 3.

    The legs of a split are nonempty classes, so each goes to the kernel as
    it is.
    """
    return outer.expand_leg(leg, lambda m: _class_subset_sum(mode, which, m))


@dataclass(frozen=True)
class DendriformReport:
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
    a1_lhs = _compose(mode, halves.prec, 0, "dependent")
    a1_rhs = _compose(mode, halves.prec, 1, "proper")
    a2_lhs = _compose(mode, halves.prec, 0, "independent")
    a2_rhs = _compose(mode, halves.succ, 1, "dependent")
    a3_lhs = _compose(mode, halves.succ, 0, "proper")
    a3_rhs = _compose(mode, halves.succ, 1, "independent")
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
    lhs = _class_subset_sum(mode, "independent", mono1 * mono2)

    red1 = _class_subset_sum(mode, "proper", mono1)
    succ2 = _class_subset_sum(mode, "independent", mono2)
    rhs = TensorElement.zero(2)
    rhs = rhs + red1.legwise_product(succ2)
    rhs = rhs + red1.legwise_product(TensorElement.from_term((unit, mono2)))
    rhs = rhs + succ2.legwise_product(TensorElement.from_term((mono1, unit)))
    rhs = rhs + succ2.legwise_product(TensorElement.from_term((unit, mono1)))
    rhs = rhs + TensorElement.from_term((mono1, mono2))
    return lhs - rhs
