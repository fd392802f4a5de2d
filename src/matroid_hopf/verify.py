"""Exhaustive identity suites over the small-ground-set catalogs.

Each check runs one family of identities on every isomorphism class up to a
size bound and reports pass/fail with a short tally.  The CLI `verify`
subcommand prints these as a table; checks are independent and their
results are assembled in a fixed order, so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

from .canonical import MAX_GROUND_SET, all_permutation_key, canonical_key
from .catalog import cached_catalog
from .characters import (
    alpha,
    alpha_four_factor,
    alpha_of_monomial,
    conv_exp,
    delta_coloop,
    delta_loop,
    linear_combination,
    poly_P,
    poly_P_closed_form,
    poly_P_convolution_rhs,
    poly_P_recursion_check,
)
from .dendriform import check_dendriform_axioms, codendriform_gap, reduced_coproduct, split
from .formal import Monomial, ModuleElement, S, X, Y
from .hopf import (
    CoproductMode,
    apply_counit,
    convolve_antipode_identity,
    coproduct,
    coproduct_monomial,
    iterated_coproduct,
)
from .matroid import Matroid, submasks, uniform, validate


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _representatives(max_n: int, cache_dir: Path | None) -> list[Matroid]:
    reps = []
    for n in range(max_n + 1):
        reps.extend(k.matroid() for k in cached_catalog(n, cache_dir).classes)
    return reps


def _pairs(reps, limit: int):
    """Ordered pairs of representatives with at most ``limit`` elements together."""
    return ((m1, m2) for m1 in reps for m2 in reps if m1.n + m2.n <= limit)


def check_axioms(reps) -> CheckResult:
    """Every catalog representative passes the independence axioms."""
    count = 0
    for m in reps:
        revalidated = validate(m.n, m.independents)
        if revalidated != m:
            return CheckResult("matroid-axioms", False, f"{m} changed under validate")
        count += 1
    return CheckResult("matroid-axioms", True, f"{count} classes")


def check_rank_lemmas(reps) -> CheckResult:
    """Submodularity and the rank criterion for independence."""
    pairs = 0
    for m in reps:
        for a in range(1 << m.n):
            if m.is_independent(a) != (a.bit_count() == m.rank(a)):
                return CheckResult(
                    "rank-lemmas", False, f"independence criterion fails on {m}, A={a}"
                )
            for b in range(1 << m.n):
                pairs += 1
                if m.rank(a | b) + m.rank(a & b) > m.rank(a) + m.rank(b):
                    return CheckResult(
                        "rank-lemmas", False, f"submodularity fails on {m}, {a}, {b}"
                    )
    return CheckResult("rank-lemmas", True, f"{pairs} subset pairs")


def check_minor_lemmas(reps) -> CheckResult:
    """Restriction/deletion agreement and the composition identities."""
    count = 0
    for m in reps:
        full = m.full_mask
        for t in range(1 << m.n):
            if m.delete(t) != m.restrict(full & ~t):
                return CheckResult("minor-lemmas", False, f"deletion mismatch on {m}")
        for x in range(1 << m.n):
            mx = m.restrict(x)
            for xp in submasks(x):
                count += 1
                relabeled = _relabel_into(x, xp)
                if mx.restrict(relabeled) != m.restrict(xp):
                    return CheckResult("minor-lemmas", False, f"res-res fails on {m}")
                if mx.delete(relabeled) != m.restrict(x & ~xp):
                    return CheckResult("minor-lemmas", False, f"res-del fails on {m}")
        for x in range(1 << m.n):
            mdx = m.delete(x)
            rest = full & ~x
            for y in submasks(rest):
                relabeled = _relabel_into(rest, y)
                if mdx.restrict(relabeled) != m.restrict(y):
                    return CheckResult("minor-lemmas", False, f"del-res fails on {m}")
                if mdx.delete(relabeled) != m.delete(x | y):
                    return CheckResult("minor-lemmas", False, f"del-del fails on {m}")
    return CheckResult("minor-lemmas", True, f"{count} nested subsets")


def _relabel_into(outer: int, inner: int) -> int:
    """Rewrite a submask of ``outer`` in the coordinates of the restriction."""
    out = 0
    pos = 0
    e = 0
    while outer >> e:
        if outer >> e & 1:
            if inner >> e & 1:
                out |= 1 << pos
            pos += 1
        e += 1
    return out


def check_contraction_choice(reps) -> CheckResult:
    """Contraction is independent of the maximal independent subset used."""
    count = 0
    for m in reps:
        for t in range(1 << m.n):
            expected = m.contract(t)
            for base in m.maximal_independent_subsets(t):
                count += 1
                if m._contract_using(t, base) != expected:
                    return CheckResult(
                        "contraction-choice", False, f"choice matters on {m}, T={t}"
                    )
    return CheckResult("contraction-choice", True, f"{count} bases tried")


def check_direct_sum_compat(reps) -> CheckResult:
    """Restriction and deletion commute with direct sums of at most 5 elements."""
    count = 0
    for m1, m2 in _pairs(reps, 5):
        s = m1.direct_sum(m2)
        for a1 in range(1 << m1.n):
            for a2 in range(1 << m2.n):
                count += 1
                both = a1 | a2 << m1.n
                if m1.restrict(a1).direct_sum(m2.restrict(a2)) != s.restrict(both):
                    return CheckResult(
                        "direct-sum-compat", False, f"restriction fails on {m1},{m2}"
                    )
                if m1.delete(a1).direct_sum(m2.delete(a2)) != s.delete(both):
                    return CheckResult(
                        "direct-sum-compat", False, f"deletion fails on {m1},{m2}"
                    )
    return CheckResult("direct-sum-compat", True, f"{count} subset pairs")


def check_dual_involution(reps) -> CheckResult:
    count = 0
    for m in reps:
        count += 1
        if m.dual().dual() != m:
            return CheckResult("dual-involution", False, f"fails on {m}")
    return CheckResult("dual-involution", True, f"{count} classes")


def check_canonical_oracle(reps) -> CheckResult:
    """Pruned canonical search equals the all-permutations minimum."""
    count = 0
    for m in reps:
        count += 1
        if canonical_key(m).family != all_permutation_key(m):
            return CheckResult("canonical-oracle", False, f"fails on {m}")
        for perm in permutations(range(m.n)):
            if canonical_key(m.relabel(perm)) != canonical_key(m):
                return CheckResult("canonical-oracle", False, f"relabel fails on {m}")
    return CheckResult("canonical-oracle", True, f"{count} classes, all relabelings")


def check_coassociativity(reps) -> CheckResult:
    count = 0
    for m in reps:
        for mode in CoproductMode:
            count += 1
            if iterated_coproduct(mode, m, "left") != iterated_coproduct(mode, m, "right"):
                return CheckResult(
                    "coassociativity", False, f"{mode.value} fails on {m}"
                )
    return CheckResult("coassociativity", True, f"{count} (class, mode) pairs")


def check_cocommutativity(reps) -> CheckResult:
    count = 0
    for m in reps:
        count += 1
        t = coproduct(CoproductMode.RD, m)
        if t.swap() != t:
            return CheckResult("cocommutativity-rd", False, f"fails on {m}")
    return CheckResult("cocommutativity-rd", True, f"{count} classes")


def check_counit_laws(reps) -> CheckResult:
    count = 0
    for m in reps:
        for mode in CoproductMode:
            count += 1
            t = coproduct(mode, m)
            expected = ModuleElement.from_matroid(m)
            if apply_counit(t, 0) != expected or apply_counit(t, 1) != expected:
                return CheckResult("counit-laws", False, f"{mode.value} fails on {m}")
    return CheckResult("counit-laws", True, f"{count} (class, mode) pairs")


def check_multiplicativity(reps) -> CheckResult:
    """The RD coproduct is multiplicative on direct sums of at most 5 elements.
    Pairs with the empty class are the unit law; with a connected class both
    sides there are the same memo entry."""
    count = 0
    for m1, m2 in _pairs(reps, 5):
        count += 1
        lhs = coproduct(CoproductMode.RD, m1.direct_sum(m2))
        rhs = coproduct_monomial(
            CoproductMode.RD,
            Monomial.from_matroid(m1) * Monomial.from_matroid(m2),
        )
        if lhs != rhs:
            return CheckResult("multiplicativity", False, f"fails on {m1},{m2}")
    return CheckResult("multiplicativity", True, f"{count} pairs")


def check_antipode_law(reps) -> CheckResult:
    count = 0
    for m in reps:
        count += 1
        zero = ModuleElement.zero()
        one = ModuleElement.one()
        expected = one if m.n == 0 else zero
        if convolve_antipode_identity(m, "left") != expected:
            return CheckResult("antipode-law", False, f"left side fails on {m}")
        if convolve_antipode_identity(m, "right") != expected:
            return CheckResult("antipode-law", False, f"right side fails on {m}")
    return CheckResult("antipode-law", True, f"{count} classes")


def check_split_sums(reps) -> CheckResult:
    count = 0
    for m in reps:
        if m.n == 0:
            continue
        for mode in CoproductMode:
            count += 1
            halves = split(mode, m)
            if halves.prec + halves.succ != reduced_coproduct(mode, m):
                return CheckResult("split-sum", False, f"{mode.value} fails on {m}")
    return CheckResult("split-sum", True, f"{count} (class, mode) pairs")


def check_dendriform(reps, mode: CoproductMode) -> CheckResult:
    name = f"dendriform-{mode.value}"
    failures = []
    count = 0
    for m in reps:
        if m.n == 0:
            continue
        count += 1
        report = check_dendriform_axioms(mode, m)
        if not report.all_hold():
            failures.append(str(canonical_key(m)))
    if failures:
        return CheckResult(
            name, False, f"{len(failures)}/{count} classes fail, e.g. {failures[0]}"
        )
    return CheckResult(name, True, f"{count} classes")


def check_codendriform_witness(reps) -> CheckResult:
    for m1, m2 in _pairs(reps, 4):
        if 0 < m1.n and 0 < m2.n and codendriform_gap(m1, m2):
            return CheckResult(
                "codendriform-gap",
                True,
                f"nonzero gap at ({canonical_key(m1)}, {canonical_key(m2)})",
            )
    return CheckResult("codendriform-gap", False, "no witness pair found")


def check_exp_closed_form(reps) -> CheckResult:
    f = conv_exp(linear_combination([(X, delta_coloop()), (Y, delta_loop())]))
    count = 0
    for m in reps:
        count += 1
        c, l = m.element_counts()
        if f(Monomial.from_matroid(m)) != X**c * Y**l:
            return CheckResult("exp-closed-form", False, f"fails on {m}")
    return CheckResult("exp-closed-form", True, f"{count} classes")


def check_alpha(reps) -> CheckResult:
    count = 0
    for m in reps:
        count += 1
        if alpha(m) != S**m.n * poly_P(m):
            return CheckResult("alpha-power-identity", False, f"fails on {m}")
    return CheckResult("alpha-power-identity", True, f"{count} classes")


def check_alpha_four_factor(reps) -> CheckResult:
    count = 0
    for m in reps:
        count += 1
        if alpha_four_factor(m) != alpha(m):
            return CheckResult("alpha-four-factor", False, f"fails on {m}")
    return CheckResult("alpha-four-factor", True, f"{count} classes")


def check_alpha_character(reps) -> CheckResult:
    """alpha is multiplicative on direct sums of at most 4 elements."""
    count = 0
    for m1, m2 in _pairs(reps, 4):
        count += 1
        m = Monomial.from_matroid(m1) * Monomial.from_matroid(m2)
        if alpha_of_monomial(m) != alpha(m1) * alpha(m2):
            return CheckResult("alpha-character", False, f"fails on {m1},{m2}")
    return CheckResult("alpha-character", True, f"{count} pairs")


def check_convolution_identity(reps) -> CheckResult:
    count = 0
    for m in reps:
        count += 1
        if poly_P_convolution_rhs(m) != poly_P(m):
            return CheckResult("convolution-identity", False, f"fails on {m}")
    return CheckResult("convolution-identity", True, f"{count} classes")


def check_recursions(reps) -> CheckResult:
    count = 0
    for m in reps:
        for e in range(m.n):
            count += 1
            if not poly_P_recursion_check(m, e):
                return CheckResult("deletion-recursions", False, f"fails on {m}, e={e}")
    return CheckResult("deletion-recursions", True, f"{count} elements")


def check_monomial_form(reps) -> CheckResult:
    """P_M is x^c(E) y^l(E) on every class and multiplies over the direct sums
    of at most MAX_GROUND_SET elements; the detail counts the pairs skipped."""
    polys = {}
    for m in reps:
        polys[m] = poly_P(m)
        if polys[m] != poly_P_closed_form(m):
            return CheckResult("monomial-closed-form", False, f"fails on {m}")
    walked = 0
    for m, other in _pairs(reps, MAX_GROUND_SET):
        walked += 1
        if poly_P(m.direct_sum(other)) != polys[m] * polys[other]:
            return CheckResult(
                "monomial-closed-form", False, f"product fails on {m},{other}"
            )
    u12 = uniform(1, 2)
    if poly_P(u12) == poly_P(u12.contract(1)) + poly_P(u12.delete(1)):
        return CheckResult(
            "monomial-closed-form", False, "deletion-contraction unexpectedly holds"
        )
    if poly_P(uniform(0, 1)) == poly_P(uniform(1, 1)):
        return CheckResult("monomial-closed-form", False, "dual invariance unexpectedly holds")
    detail = f"{len(reps)} classes plus witnesses"
    skipped = len(reps) ** 2 - walked
    if skipped:
        detail += f"; {skipped} pairs over {MAX_GROUND_SET} elements skipped"
    return CheckResult("monomial-closed-form", True, detail)


def run_all(max_n: int = 4, cache_dir: Path | None = None) -> list[CheckResult]:
    """Run every suite; deterministic order and content."""
    reps = _representatives(max_n, cache_dir)
    return [
        check_axioms(reps),
        check_rank_lemmas(reps),
        check_minor_lemmas(reps),
        check_contraction_choice(reps),
        check_direct_sum_compat(reps),
        check_dual_involution(reps),
        check_canonical_oracle(reps),
        check_coassociativity(reps),
        check_cocommutativity(reps),
        check_counit_laws(reps),
        check_multiplicativity(reps),
        check_antipode_law(reps),
        check_split_sums(reps),
        check_dendriform(reps, CoproductMode.RD),
        check_dendriform(reps, CoproductMode.RC),
        check_codendriform_witness(reps),
        check_exp_closed_form(reps),
        check_alpha(reps),
        check_alpha_four_factor(reps),
        check_alpha_character(reps),
        check_convolution_identity(reps),
        check_recursions(reps),
        check_monomial_form(reps),
    ]
