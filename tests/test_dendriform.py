import pytest

from matroid_hopf import (
    CoproductMode,
    EmptyMatroidError,
    IsoKey,
    Monomial,
    TensorElement,
    check_dendriform_axioms,
    codendriform_gap,
    coproduct_monomial,
    empty_matroid,
    graphic,
    reduced_coproduct,
    split,
    uniform,
)
from matroid_hopf import hopf

from oracles import coproduct_terms, tensor_codes


def mono(*matroids):
    out = Monomial.unit()
    for m in matroids:
        out = out * Monomial.from_matroid(m)
    return out


class TestReducedCoproduct:
    def test_single_coloop_vanishes(self):
        assert not reduced_coproduct(CoproductMode.RD, uniform(1, 1))

    def test_rd_u12(self):
        u11 = mono(uniform(1, 1))
        assert reduced_coproduct(CoproductMode.RD, uniform(1, 2)) == 2 * (
            TensorElement.from_term((u11, u11))
        )

    def test_rc_u12(self):
        u11, u01 = mono(uniform(1, 1)), mono(uniform(0, 1))
        assert reduced_coproduct(CoproductMode.RC, uniform(1, 2)) == 2 * (
            TensorElement.from_term((u11, u01))
        )

    def test_empty_matroid_rejected(self):
        with pytest.raises(EmptyMatroidError):
            reduced_coproduct(CoproductMode.RD, empty_matroid())


class TestSplit:
    def test_u12(self):
        halves = split(CoproductMode.RD, uniform(1, 2))
        u11 = mono(uniform(1, 1))
        assert not halves.prec
        assert halves.succ == 2 * TensorElement.from_term((u11, u11))

    def test_u13(self):
        halves = split(CoproductMode.RD, uniform(1, 3))
        u11, u12 = mono(uniform(1, 1)), mono(uniform(1, 2))
        assert halves.prec == 3 * TensorElement.from_term((u12, u11))
        assert halves.succ == 3 * TensorElement.from_term((u11, u12))

    def test_u11_both_vanish(self):
        halves = split(CoproductMode.RD, uniform(1, 1))
        assert not halves.prec and not halves.succ

    def test_sum_is_reduced_coproduct(self, catalog_reps):
        for m in catalog_reps:
            if m.n == 0:
                continue
            for mode in CoproductMode:
                halves = split(mode, m)
                assert halves.prec + halves.succ == reduced_coproduct(mode, m)

    def test_matches_subset_oracle(self, oracle_cases):
        for m in oracle_cases:
            if m.n == 0:
                continue
            # each input's class runs the kernel, not an isomorphic case's memo
            hopf._class_subset_sum.cache_clear()
            fam, full = set(m.independents), (1 << m.n) - 1

            def prec(a):
                return 0 < a < full and a not in fam

            def succ(a):
                return 0 < a < full and a in fam

            for mode in CoproductMode:
                halves = split(mode, m)
                for half, keep in ((halves.prec, prec), (halves.succ, succ)):
                    want = coproduct_terms(m.independents, m.n, mode.value, keep)
                    assert tensor_codes(half) == want

    def test_prec_left_legs_are_dependent_classes(self, catalog_reps):
        for m in catalog_reps:
            if m.n == 0:
                continue
            for mode in CoproductMode:
                halves = split(mode, m)
                for (left, _right) in halves.prec.terms:
                    rep = left.matroid()
                    assert rep.rank() < rep.n
                for (left, _right) in halves.succ.terms:
                    # restriction to an independent set is free
                    assert all(f.n == 1 and f.rank == 1 for f in left.factors)

    def test_empty_matroid_rejected(self):
        with pytest.raises(EmptyMatroidError):
            split(CoproductMode.RD, empty_matroid())


class TestDendriformAxioms:
    def test_rc_holds_everywhere(self, catalog_reps):
        for m in catalog_reps:
            if m.n == 0:
                continue
            assert check_dendriform_axioms(CoproductMode.RC, m).all_hold()

    def test_rd_axiom_one_holds_everywhere(self, catalog_reps):
        for m in catalog_reps:
            if m.n == 0:
                continue
            assert check_dendriform_axioms(CoproductMode.RD, m).axiom1

    def test_rd_axioms_two_three_fail_on_u13(self):
        # (succ x Id) o prec (U_{1,3}) = 6 U11 x U11 x U11 but
        # (Id x prec) o succ (U_{1,3}) = 0: the restriction-deletion split
        # is not a dendriform coalgebra.
        report = check_dendriform_axioms(CoproductMode.RD, uniform(1, 3))
        assert report.axiom1
        assert not report.axiom2
        assert not report.axiom3

    def test_rd_axioms_two_three_fail_on_u24(self):
        report = check_dendriform_axioms(CoproductMode.RD, uniform(2, 4))
        assert (report.axiom1, report.axiom2, report.axiom3) == (True, False, False)

    def test_trivial_class_passes(self):
        for mode in CoproductMode:
            assert check_dendriform_axioms(mode, uniform(1, 1)).all_hold()

    def test_empty_matroid_rejected(self):
        with pytest.raises(EmptyMatroidError):
            check_dendriform_axioms(CoproductMode.RD, empty_matroid())


class TestCodendriformGap:
    def test_two_coloops(self):
        u11 = mono(uniform(1, 1))
        gap = codendriform_gap(uniform(1, 1), uniform(1, 1))
        assert gap == TensorElement.from_term((u11, u11))

    def test_two_loops(self):
        u01 = mono(uniform(0, 1))
        gap = codendriform_gap(uniform(0, 1), uniform(0, 1))
        assert gap == -TensorElement.from_term((u01, u01))

    def test_witness_exists_among_small_pairs(self, catalog_reps):
        found = False
        for m1 in catalog_reps:
            for m2 in catalog_reps:
                if 0 < m1.n and 0 < m2.n and m1.n + m2.n <= 4:
                    if codendriform_gap(m1, m2):
                        found = True
                        break
            if found:
                break
        assert found

    def test_empty_matroid_rejected(self):
        with pytest.raises(EmptyMatroidError):
            codendriform_gap(empty_matroid(), uniform(1, 1))
        with pytest.raises(EmptyMatroidError):
            codendriform_gap(uniform(1, 1), empty_matroid())


def test_warm_class_calls_build_no_matroid(monkeypatch):
    # the kernel is keyed by class: a caller that holds a class hands it
    # over as it is, not as a matroid built only to be canonicalized again
    m = graphic(4, [(0, 1), (1, 2), (0, 2), (0, 1), (2, 3), (3, 3)])
    cls = Monomial((next(k for k in mono(m).factors if k.n == 4),))

    def calls():
        for mode in CoproductMode:
            coproduct_monomial(mode, cls)
            check_dendriform_axioms(mode, m)

    calls()  # warm every memo
    built = []
    for owner in (IsoKey, Monomial):
        original = owner.matroid

        def counted(self, original=original):
            built.append(self)
            return original(self)

        monkeypatch.setattr(owner, "matroid", counted)
    calls()
    assert built == []
