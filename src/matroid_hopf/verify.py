"""Exhaustive identity suites over the small-ground-set catalogs.

Each check runs one family of identities on every isomorphism class up to a
size bound and reports pass/fail with a short tally.  The CLI `verify`
subcommand prints these as a table; checks are independent and their
results are assembled in a fixed order, so output is deterministic.

Most suites hand ``_run_suite`` a name, a unit and an iterable of cases.  A
case yields ``None`` when its identity holds, and is counted, or a failure
detail, which ends the suite; a check that is not counted yields only its
failure.  Only the runner counts cases and builds the ``CheckResult``: the
first failure detail, or "<count> <unit>".  The dendriform,
codendriform-gap and monomial-closed-form rows report other tallies and
build their own results.

The rank-lemmas, minor-lemmas and direct-sum-compat suites compute each
class's per-subset data (its ranks, or its restrictions and deletions) once
per class, into tables local to the suite call, and their cases read those
tables instead of rebuilding the data inside the inner loops.

``run_all`` calls each ``check_*`` once per row, by its module-level name.
``perfbench`` rebinds those names to time every suite, so no helper is
named ``check_*`` and no ``check_*`` calls another.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from pathlib import Path
from typing import NamedTuple

from .canonical import _min_relabeling, canonical_key, search_automorphisms
from .catalog import MAX_CATALOG_N, CatalogTooLarge, cached_catalog
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
from .matroid import MAX_GROUND_SET, InputError, Matroid, submasks, uniform, validate


class CheckResult(NamedTuple):
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


def _minor_tables(m: Matroid) -> tuple[list[Matroid], list[Matroid]]:
    """M|t and M minus t for every mask t, each indexed by t."""
    masks = range(1 << m.n)
    return [m.restrict(t) for t in masks], [m.delete(t) for t in masks]


def _run_suite(name: str, unit: str, cases) -> CheckResult:
    """Count the cases that hold; the first failure detail ends the suite."""
    count = 0
    for failure in cases:
        if failure is not None:
            return CheckResult(name, False, failure)
        count += 1
    return CheckResult(name, True, f"{count} {unit}")


def check_axioms(reps) -> CheckResult:
    """Every catalog representative passes the independence axioms."""
    cases = (
        f"{m} changed under validate" if validate(m.n, m.independents) != m else None
        for m in reps
    )
    return _run_suite("matroid-axioms", "classes", cases)


def check_rank_lemmas(reps) -> CheckResult:
    """Submodularity and the rank criterion for independence.

    Each class's ranks are computed once, by ``Matroid.rank``, into a table
    indexed by subset mask, which both checks then read.
    """

    def cases():
        for m in reps:
            rank = [m.rank(a) for a in range(1 << m.n)]
            for a in range(1 << m.n):
                if m.is_independent(a) != (a.bit_count() == rank[a]):
                    yield f"independence criterion fails on {m}, A={a}"
                for b in range(1 << m.n):
                    bad = rank[a | b] + rank[a & b] > rank[a] + rank[b]
                    yield f"submodularity fails on {m}, {a}, {b}" if bad else None

    return _run_suite("rank-lemmas", "subset pairs", cases())


def check_minor_lemmas(reps) -> CheckResult:
    """Restriction/deletion agreement and the composition identities.

    A submask of x is labeled in M|x by its index in ``submasks(x)``, as in
    ``Matroid._minor``.  Each class's restrictions and deletions are built
    once, by ``_minor_tables``; every case still builds the minor of M|x or
    of M minus x that it checks, and compares it with a table entry.
    """

    def cases():
        for m in reps:
            full = m.full_mask
            res, dels = _minor_tables(m)
            for t in range(1 << m.n):
                if dels[t] != res[full & ~t]:
                    yield f"deletion mismatch on {m}"
            for x, mx in enumerate(res):
                for i, xp in enumerate(submasks(x)):
                    if mx.restrict(i) != res[xp]:
                        yield f"res-res fails on {m}"
                    yield f"res-del fails on {m}" if mx.delete(i) != res[x & ~xp] else None
            for x, mdx in enumerate(dels):
                for i, y in enumerate(submasks(full & ~x)):
                    if mdx.restrict(i) != res[y]:
                        yield f"del-res fails on {m}"
                    if mdx.delete(i) != dels[x | y]:
                        yield f"del-del fails on {m}"

    return _run_suite("minor-lemmas", "nested subsets", cases())


def check_contraction_choice(reps) -> CheckResult:
    """Contraction is independent of the maximal independent subset used."""

    def cases():
        for m in reps:
            for t in range(1 << m.n):
                expected = m.contract(t)
                for base in m.maximal_independent_subsets(t):
                    bad = m._minor(m.full_mask & ~t, base) != expected
                    yield f"choice matters on {m}, T={t}" if bad else None

    return _run_suite("contraction-choice", "bases tried", cases())


def check_direct_sum_compat(reps) -> CheckResult:
    """Restriction and deletion commute with direct sums of at most 5 elements.

    Each class's restrictions and deletions are built once per call, by
    ``_minor_tables``; every pair still builds the minors of its direct sum.
    """

    def cases():
        tables = cache(_minor_tables)  # dropped when the suite returns
        for m1, m2 in _pairs(reps, 5):
            (res1, dels1), (res2, dels2) = tables(m1), tables(m2)
            s = m1.direct_sum(m2)
            for a1 in range(1 << m1.n):
                for a2 in range(1 << m2.n):
                    both = a1 | a2 << m1.n
                    if res1[a1].direct_sum(res2[a2]) != s.restrict(both):
                        yield f"restriction fails on {m1},{m2}"
                    bad = dels1[a1].direct_sum(dels2[a2]) != s.delete(both)
                    yield f"deletion fails on {m1},{m2}" if bad else None

    return _run_suite("direct-sum-compat", "subset pairs", cases())


def check_dual_involution(reps) -> CheckResult:
    cases = (f"fails on {m}" if m.dual().dual() != m else None for m in reps)
    return _run_suite("dual-involution", "classes", cases)


def check_canonical_oracle(reps) -> CheckResult:
    """Pruned canonical search equals the all-permutations minimum.

    One pass relabels each class once per permutation.  Its least family,
    a plain minimum independent of the search, must be the class's key,
    and the search must find it from the greatest family too: a loaded
    catalog's representative is canonical already.  The relabelings miss
    the memo and take the key through the isomorphism lookup of
    ``canonical_key``, so the relabel check tests the lookup against the
    search.  Every automorphism the search stored for the class must map
    its canonical family onto itself, since the coproduct kernel merges
    subsets by them; a wrong one reads "automorphism fails on {m}".
    """

    def cases():
        for m in reps:
            key = canonical_key(m)
            copies = [m.relabel(perm) for perm in permutations(range(m.n))]
            families = [c.independents for c in copies]
            least = min(families)
            if key.family != least or _min_relabeling(m.n, max(families))[0] != least:
                yield f"fails on {m}"
            canon = key.matroid()
            if any(canon.relabel(g) != canon for g in search_automorphisms(key)):
                yield f"automorphism fails on {m}"
            bad = any(canonical_key(c) != key for c in copies)
            yield f"relabel fails on {m}" if bad else None

    return _run_suite("canonical-oracle", "classes, all relabelings", cases())


def check_coassociativity(reps) -> CheckResult:
    cases = (
        f"{mode.value} fails on {m}"
        if iterated_coproduct(mode, m, "left") != iterated_coproduct(mode, m, "right")
        else None
        for m in reps
        for mode in CoproductMode
    )
    return _run_suite("coassociativity", "(class, mode) pairs", cases)


def check_cocommutativity(reps) -> CheckResult:
    def cases():
        for m in reps:
            t = coproduct(CoproductMode.RD, m)
            yield f"fails on {m}" if t.swap() != t else None

    return _run_suite("cocommutativity-rd", "classes", cases())


def check_counit_laws(reps) -> CheckResult:
    def cases():
        for m in reps:
            for mode in CoproductMode:
                t = coproduct(mode, m)
                expected = ModuleElement.from_matroid(m)
                bad = apply_counit(t, 0) != expected or apply_counit(t, 1) != expected
                yield f"{mode.value} fails on {m}" if bad else None

    return _run_suite("counit-laws", "(class, mode) pairs", cases())


def check_multiplicativity(reps) -> CheckResult:
    """The RD coproduct is multiplicative on direct sums of at most 5 elements.
    Pairs with the empty class are the unit law; with a connected class, or
    with the empty class itself, both sides there are the same memo entry."""

    def cases():
        for m1, m2 in _pairs(reps, 5):
            lhs = coproduct(CoproductMode.RD, m1.direct_sum(m2))
            product = Monomial.from_matroid(m1) * Monomial.from_matroid(m2)
            rhs = coproduct_monomial(CoproductMode.RD, product)
            yield f"fails on {m1},{m2}" if lhs != rhs else None

    return _run_suite("multiplicativity", "pairs", cases())


def check_antipode_law(reps) -> CheckResult:
    def cases():
        for m in reps:
            expected = ModuleElement.one() if m.n == 0 else ModuleElement.zero()
            if convolve_antipode_identity(m, "left") != expected:
                yield f"left side fails on {m}"
            bad = convolve_antipode_identity(m, "right") != expected
            yield f"right side fails on {m}" if bad else None

    return _run_suite("antipode-law", "classes", cases())


def check_split_sums(reps) -> CheckResult:
    def cases():
        for m in reps:
            if m.n == 0:
                continue
            for mode in CoproductMode:
                halves = split(mode, m)
                bad = halves.prec + halves.succ != reduced_coproduct(mode, m)
                yield f"{mode.value} fails on {m}" if bad else None

    return _run_suite("split-sum", "(class, mode) pairs", cases())


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
    """A pair of nonempty classes whose codendriform gap is nonzero.

    When no pair of nonempty classes fits the bound, the suite passes with
    no pair tried, as the other suites pass with 0 cases.
    """
    pairs = [(m1, m2) for m1, m2 in _pairs(reps, 4) if m1.n and m2.n]
    for m1, m2 in pairs:
        if codendriform_gap(m1, m2):
            return CheckResult(
                "codendriform-gap",
                True,
                f"nonzero gap at ({canonical_key(m1)}, {canonical_key(m2)})",
            )
    if not pairs:
        return CheckResult("codendriform-gap", True, "no pair of nonempty classes tried")
    return CheckResult("codendriform-gap", False, "no witness pair found")


def check_exp_closed_form(reps) -> CheckResult:
    f = conv_exp(linear_combination([(X, delta_coloop()), (Y, delta_loop())]))

    cases = (
        f"fails on {m}" if f(Monomial.from_matroid(m)) != poly_P_closed_form(m) else None
        for m in reps
    )
    return _run_suite("exp-closed-form", "classes", cases)


def check_alpha(reps) -> CheckResult:
    cases = (f"fails on {m}" if alpha(m) != S**m.n * poly_P(m) else None for m in reps)
    return _run_suite("alpha-power-identity", "classes", cases)


def check_alpha_four_factor(reps) -> CheckResult:
    cases = (f"fails on {m}" if alpha_four_factor(m) != alpha(m) else None for m in reps)
    return _run_suite("alpha-four-factor", "classes", cases)


def check_alpha_character(reps) -> CheckResult:
    """alpha is multiplicative on direct sums of at most 4 elements."""
    cases = (
        f"fails on {m1},{m2}"
        if alpha_of_monomial(Monomial.from_matroid(m1) * Monomial.from_matroid(m2))
        != alpha(m1) * alpha(m2)
        else None
        for m1, m2 in _pairs(reps, 4)
    )
    return _run_suite("alpha-character", "pairs", cases)


def check_convolution_identity(reps) -> CheckResult:
    cases = (f"fails on {m}" if poly_P_convolution_rhs(m) != poly_P(m) else None for m in reps)
    return _run_suite("convolution-identity", "classes", cases)


def check_recursions(reps) -> CheckResult:
    cases = (
        None if poly_P_recursion_check(m, e) else f"fails on {m}, e={e}"
        for m in reps
        for e in range(m.n)
    )
    return _run_suite("deletion-recursions", "elements", cases)


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
    """Run every suite; deterministic order and content.  A ``max_n`` below 0
    raises ``InputError`` and one over ``MAX_CATALOG_N`` ``CatalogTooLarge``,
    both before any enumeration."""
    if max_n < 0:
        raise InputError(f"verify needs a max_n of at least 0, got {max_n}")
    if max_n > MAX_CATALOG_N:
        raise CatalogTooLarge(max_n)
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
