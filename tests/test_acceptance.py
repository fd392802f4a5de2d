"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
comparisons are exact (integer and rational arithmetic; zero tolerance).

Criterion 5 checks the dendriform splits as they really behave.  The
restriction-contraction split satisfies all three dendriform coalgebra
axioms on every class.  The restriction-deletion split (prec over dependent,
succ over independent proper nonempty subsets) satisfies axiom 1 on every
class; for axioms 2 and 3, LHS2 - RHS2 and RHS3 - LHS3 both equal the sum of
M|B (x) M|C (x) M|(E - B - C) over ordered pairs of disjoint nonempty
independent sets B, C whose union is a dependent proper subset of E.  Every
term is positive, so axioms 2 and 3 fail exactly on the classes with a
circuit of size at least 2 other than E; the test asserts that per class,
from `oracles.circuits`, and pins both sides on U_{1,3} (the left side of
axiom 2 is 6 U_{1,1} (x) U_{1,1} (x) U_{1,1}, the right side is zero).
"""

from math import comb

from matroid_hopf import (
    CoproductMode,
    ModuleElement,
    Monomial,
    TensorElement,
    antipode_rd,
    canonical_key,
    check_dendriform_axioms,
    codendriform_gap,
    conv_exp,
    coproduct,
    coproduct_monomial,
    delta_coloop,
    delta_loop,
    iterated_coproduct,
    linear_combination,
    poly_P,
    poly_P_closed_form,
    poly_P_convolution_rhs,
    poly_P_recursion_check,
    reduced_coproduct,
    split,
    uniform,
)
from matroid_hopf.canonical import all_permutation_key
from matroid_hopf.characters import alpha, alpha_four_factor, alpha_of_monomial
from matroid_hopf.dendriform import SplitHalf, _compose
from matroid_hopf.formal import S, X, Y
from matroid_hopf.hopf import (
    apply_counit,
    convolve_antipode_identity,
)

from oracles import circuits, unpruned_counts


def report(number: int, label: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    return ok


def mono(*matroids):
    out = Monomial.unit()
    for m in matroids:
        out = out * Monomial.from_matroid(m)
    return out


def tensor2(*terms):
    out = TensorElement.zero(2)
    for coeff, a, b in terms:
        out = out + TensorElement.from_term((a, b), coeff)
    return out


I = Monomial.unit()


def test_criterion_1_golden_expansions():
    u11 = mono(uniform(1, 1))
    u12 = mono(uniform(1, 2))
    u13 = mono(uniform(1, 3))
    u22 = mono(uniform(2, 2))
    u23 = mono(uniform(2, 3))
    u24 = mono(uniform(2, 4))

    ok = coproduct(CoproductMode.RD, uniform(1, 2)) == tensor2(
        (1, I, u12), (2, u11, u11), (1, u12, I)
    )
    ok &= coproduct(CoproductMode.RD, uniform(1, 3)) == tensor2(
        (1, I, u13), (3, u11, u12), (3, u12, u11), (1, u13, I)
    )
    ok &= coproduct(CoproductMode.RD, uniform(2, 4)) == tensor2(
        (1, I, u24), (4, u11, u23), (6, u22, u22), (4, u23, u11), (1, u24, I)
    )

    arity3 = {
        (I, I, u24): 1,
        (u11, I, u23): 4,
        (I, u11, u23): 4,
        (I, u22, u22): 6,
        (u11, u11, u22): 12,
        (u22, I, u22): 6,
        (I, u23, u11): 4,
        (u11, u22, u11): 12,
        (u22, u11, u11): 12,
        (u23, I, u11): 4,
        (I, u24, I): 1,
        (u11, u23, I): 4,
        (u22, u22, I): 6,
        (u23, u11, I): 4,
        (u24, I, I): 1,
    }
    ok &= iterated_coproduct(CoproductMode.RD, uniform(2, 4), "left") == TensorElement(
        3, arity3
    )

    expected_sum = tensor2(
        (1, I, u12 * u13),
        (2, u11, u11 * u13),
        (3, u11, u12 * u12),
        (1, u12, u13),
        (6, u22, u11 * u12),
        (3, u12, u12 * u11),
        (3, u12 * u11, u12),
        (6, u11 * u12, u22),
        (1, u13, u12),
        (3, u12 * u12, u11),
        (2, u11 * u13, u11),
        (1, u12 * u13, I),
    )
    direct_sum = uniform(1, 2).direct_sum(uniform(1, 3))
    ok &= coproduct(CoproductMode.RD, direct_sum) == expected_sum

    antipode_expected = (
        -ModuleElement.from_matroid(uniform(3, 3))
        + 6 * ModuleElement.from_monomial(mono(uniform(1, 1), uniform(2, 2)))
        - 6
        * ModuleElement.from_monomial(
            mono(uniform(1, 1), uniform(1, 1), uniform(1, 1))
        )
    )
    ok &= antipode_rd(canonical_key(uniform(3, 3))) == antipode_expected

    ok &= poly_P(uniform(2, 4)) == X**4

    assert report(1, "golden expansions reproduced exactly", ok)


def _rc_formula(k, n):
    terms = []
    for i in range(0, k + 1):
        terms.append((comb(n, i), mono(uniform(i, i)), mono(uniform(k - i, n - i))))
    for i in range(k + 1, n + 1):
        terms.append((comb(n, i), mono(uniform(k, i)), mono(uniform(0, n - i))))
    return tensor2(*terms)


def _rd_formula(k, n):
    terms = []
    if 2 * k <= n:
        for i in range(0, k + 1):
            terms.append((comb(n, i), mono(uniform(i, i)), mono(uniform(k, n - i))))
        for i in range(k + 1, n + 1):
            if k <= n - i:
                terms.append(
                    (comb(n, i), mono(uniform(k, i)), mono(uniform(k, n - i)))
                )
            else:
                terms.append(
                    (comb(n, i), mono(uniform(k, i)), mono(uniform(n - i, n - i)))
                )
    else:
        for i in range(0, k + 1):
            if k <= n - i:
                terms.append(
                    (comb(n, i), mono(uniform(i, i)), mono(uniform(k, n - i)))
                )
            else:
                terms.append(
                    (comb(n, i), mono(uniform(i, i)), mono(uniform(n - i, n - i)))
                )
        for i in range(k + 1, n + 1):
            terms.append(
                (comb(n, i), mono(uniform(k, i)), mono(uniform(n - i, n - i)))
            )
    return tensor2(*terms)


def test_criterion_2_uniform_coproduct_formulas():
    ok = True
    for n in range(7):
        for k in range(n + 1):
            ok &= coproduct(CoproductMode.RC, uniform(k, n)) == _rc_formula(k, n)
            ok &= coproduct(CoproductMode.RD, uniform(k, n)) == _rd_formula(k, n)
    assert report(2, "uniform coproduct formulas for all k <= n <= 6", ok)


def test_criterion_3_coalgebra_axioms(catalog_reps):
    ok = True
    for m in catalog_reps:
        for mode in CoproductMode:
            ok &= iterated_coproduct(mode, m, "left") == iterated_coproduct(
                mode, m, "right"
            )
            t = coproduct(mode, m)
            expected = ModuleElement.from_matroid(m)
            ok &= apply_counit(t, 0) == expected
            ok &= apply_counit(t, 1) == expected
        rd = coproduct(CoproductMode.RD, m)
        ok &= rd.swap() == rd
    assert report(3, "coassociativity, cocommutativity, counit laws", ok)


def test_criterion_4_hopf_structure(catalog_reps):
    ok = True
    for m1 in catalog_reps:
        for m2 in catalog_reps:
            if m1.n + m2.n > 5:
                continue
            lhs = coproduct(CoproductMode.RD, m1.direct_sum(m2))
            rhs = coproduct_monomial(CoproductMode.RD, mono(m1) * mono(m2))
            ok &= lhs == rhs
    for m in catalog_reps:
        expected = ModuleElement.one() if m.n == 0 else ModuleElement.zero()
        ok &= convolve_antipode_identity(m, "left") == expected
        ok &= convolve_antipode_identity(m, "right") == expected
    assert report(4, "coproduct multiplicativity and antipode law", ok)


def _has_nonloop_circuit_other_than_e(m):
    """A circuit of size at least 2 other than the ground set."""
    return any(c != m.full_mask and bin(c).count("1") >= 2 for c in circuits(m.independents, m.n))


def _rd_u13_sides_ok():
    rd = CoproductMode.RD
    u11 = mono(uniform(1, 1))
    u12 = mono(uniform(1, 2))
    halves = split(rd, uniform(1, 3))
    ok = halves.prec == tensor2((3, u12, u11))
    ok &= halves.succ == tensor2((3, u11, u12))
    six = TensorElement.from_term((u11, u11, u11), 6)
    zero = TensorElement.zero(3)
    # axiom 2: (succ (x) Id) o prec = 6 U11^3, (Id (x) prec) o succ = 0
    ok &= _compose(rd, halves.prec, 0, SplitHalf.SUCC) == six
    ok &= _compose(rd, halves.succ, 1, SplitHalf.PREC) == zero
    # axiom 3: ((prec + succ) (x) Id) o succ = 0, (Id (x) succ) o succ = 6 U11^3
    ok &= _compose(rd, halves.succ, 0, SplitHalf.BOTH) == zero
    ok &= _compose(rd, halves.succ, 1, SplitHalf.SUCC) == six
    return ok


def test_criterion_5_dendriform(catalog_reps):
    split_ok = True
    rc_ok = True
    rd_axiom1_ok = True
    rd_iff_ok = True
    rd_fail_counts = [0, 0]
    rd_predicted = []
    classes = 0
    for m in catalog_reps:
        if m.n == 0:
            continue
        classes += 1
        for mode in CoproductMode:
            halves = split(mode, m)
            split_ok &= halves.prec + halves.succ == reduced_coproduct(mode, m)
        rc_ok &= check_dendriform_axioms(CoproductMode.RC, m).all_hold()
        rd = check_dendriform_axioms(CoproductMode.RD, m)
        rd_axiom1_ok &= rd.axiom1
        rd_fail_counts[0] += not rd.axiom2
        rd_fail_counts[1] += not rd.axiom3
        fails = _has_nonloop_circuit_other_than_e(m)
        rd_iff_ok &= rd.axiom2 == rd.axiom3 == (not fails)
        if fails:
            rd_predicted.append(canonical_key(m))
    rd_iff_ok &= canonical_key(uniform(1, 3)) in rd_predicted
    rd_u13_ok = _rd_u13_sides_ok()

    witness = False
    for m1 in catalog_reps:
        for m2 in catalog_reps:
            if 0 < m1.n and 0 < m2.n and m1.n + m2.n <= 4:
                witness = witness or bool(codendriform_gap(m1, m2))

    ok = split_ok and rc_ok and rd_axiom1_ok and rd_iff_ok and rd_u13_ok and witness
    print(
        f"  split sums: {'ok' if split_ok else 'FAIL'}; "
        f"rc axioms: {'ok' if rc_ok else 'FAIL'}; "
        f"rd axiom 1: {'holds' if rd_axiom1_ok else 'FAIL'}; "
        f"rd axiom 2: fails on {rd_fail_counts[0]}/{classes}; "
        f"rd axiom 3: fails on {rd_fail_counts[1]}/{classes}; "
        f"rd failures = circuit of size >= 2 other than E: "
        f"{'ok' if rd_iff_ok else 'FAIL'}; "
        f"rd U_{{1,3}} sides: {'ok' if rd_u13_ok else 'FAIL'}; "
        f"codendriform witness: {'ok' if witness else 'FAIL'}"
    )
    assert report(5, "dendriform splits: rc all axioms, rd axiom 1 and circuit law", ok)


def test_criterion_6_characters(catalog_reps):
    ok = True
    expf = conv_exp(linear_combination([(X, delta_coloop()), (Y, delta_loop())]))
    for m in catalog_reps:
        c, l = m.element_counts()
        ok &= expf(mono(m)) == X**c * Y**l
        ok &= alpha(m) == S**m.n * poly_P(m)
        ok &= alpha_four_factor(m) == alpha(m)
        ok &= poly_P_convolution_rhs(m) == poly_P(m)
        ok &= poly_P(m) == poly_P_closed_form(m)
        for e in range(m.n):
            ok &= poly_P_recursion_check(m, e)
    for m1 in catalog_reps:
        for m2 in catalog_reps:
            if m1.n + m2.n <= 4:
                ok &= alpha_of_monomial(mono(m1) * mono(m2)) == alpha(m1) * alpha(m2)
            ok &= poly_P(m1.direct_sum(m2)) == poly_P(m1) * poly_P(m2)
    u12 = uniform(1, 2)
    ok &= poly_P(u12) != poly_P(u12.contract(1)) + poly_P(u12.delete(1))
    ok &= poly_P(u12) == X**2 and poly_P(u12.contract(1)) + poly_P(u12.delete(1)) == X + Y
    ok &= poly_P(uniform(0, 1)) == Y
    ok &= poly_P(uniform(1, 1)) == X
    ok &= poly_P(uniform(0, 1)) != poly_P(uniform(1, 1))
    assert report(6, "character and invariant identities", ok)


def test_criterion_7_catalog_integrity(catalogs):
    ok = True
    for n in range(5):
        labeled, classes = unpruned_counts(n)
        ok &= classes == len(catalogs[n])
        ok &= labeled == catalogs[n].labeled_count
    for n in range(5):
        for key in catalogs[n].classes:
            m = key.matroid()
            ok &= canonical_key(m).family == all_permutation_key(m)
    assert report(7, "catalog counts and canonical keys match oracles", ok)
