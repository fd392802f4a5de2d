import os
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

import matroid_hopf
from matroid_hopf import (
    CatalogTooLarge,
    InputError,
    Matroid,
    ModuleElement,
    Monomial,
    TensorElement,
    save_cache,
    uniform,
    verify,
)
from matroid_hopf.catalog import MAX_CATALOG_N
from matroid_hopf.formal import ONE, S, X, ZERO
from matroid_hopf.verify import CheckResult, check_monomial_form, run_all

# every suite's outcome and detail at the default bound, as `verify --all` prints them
GOLDEN_N4 = [
    ("matroid-axioms", True, "32 classes"),
    ("rank-lemmas", True, "4937 subset pairs"),
    ("minor-lemmas", True, "1636 nested subsets"),
    ("contraction-choice", True, "462 bases tried"),
    ("direct-sum-compat", True, "5849 subset pairs"),
    ("dual-involution", True, "32 classes"),
    ("canonical-oracle", True, "32 classes, all relabelings"),
    ("coassociativity", True, "64 (class, mode) pairs"),
    ("cocommutativity-rd", True, "32 classes"),
    ("counit-laws", True, "64 (class, mode) pairs"),
    ("multiplicativity", True, "263 pairs"),
    ("antipode-law", True, "32 classes"),
    ("split-sum", True, "62 (class, mode) pairs"),
    ("dendriform-rd", False, "14/31 classes fail, e.g. M[3;0,1,2]"),
    ("dendriform-rc", True, "31 classes"),
    ("codendriform-gap", True, "nonzero gap at (U_{0,1}, U_{0,1})"),
    ("exp-closed-form", True, "32 classes"),
    ("alpha-power-identity", True, "32 classes"),
    ("alpha-four-factor", True, "32 classes"),
    ("alpha-character", True, "131 pairs"),
    ("convolution-identity", True, "32 classes"),
    ("deletion-recursions", True, "102 elements"),
    ("monomial-closed-form", True, "32 classes plus witnesses"),
]


@pytest.fixture(scope="module")
def saved_catalogs(tmp_path_factory, catalogs):
    """A directory holding ``save_cache`` files of the n <= 4 catalogs."""
    cache_dir = tmp_path_factory.mktemp("catalogs")
    for n in range(5):
        save_cache(catalogs[n], cache_dir)
    return cache_dir


def test_rows_at_four_elements(tmp_path):
    assert run_all(max_n=4, cache_dir=tmp_path) == [CheckResult(*row) for row in GOLDEN_N4]


def test_rows_at_four_elements_on_saved_catalogs(saved_catalogs):
    # the loaded path, which the benchmark times, gives the same rows
    assert run_all(max_n=4, cache_dir=saved_catalogs) == [CheckResult(*row) for row in GOLDEN_N4]


def test_suite_outcomes_at_three_elements(tmp_path):
    results = {r.name: r for r in run_all(max_n=3, cache_dir=tmp_path)}
    # the restriction-deletion split fails dendriform axioms 2 and 3 from
    # three elements on; every other suite holds exactly
    assert not results["dendriform-rd"].ok
    assert "M[3;0,1,2]" in results["dendriform-rd"].detail
    for name, result in results.items():
        if name != "dendriform-rd":
            assert result.ok, f"{name}: {result.detail}"


def test_results_are_deterministic(tmp_path):
    first = run_all(max_n=2, cache_dir=tmp_path)
    second = run_all(max_n=2, cache_dir=tmp_path)
    assert first == second


def test_monomial_form_skips_pairs_over_the_ground_set_bound():
    # 6 + 6 elements is over MAX_GROUND_SET = 10: four of the 16 ordered
    # pairs are skipped and counted instead of raising GroundSetTooLarge
    reps = [uniform(0, 0), uniform(1, 1), uniform(2, 6), uniform(0, 6)]
    result = check_monomial_form(reps)
    assert result.ok
    assert result.detail == "4 classes plus witnesses; 4 pairs over 10 elements skipped"


def _replace(target, name, make):
    """A breaker that rebinds ``target.name`` to ``make(original)``."""

    def apply(monkeypatch):
        monkeypatch.setattr(target, name, make(getattr(target, name)))

    return apply


def _square_rank(monkeypatch):
    # rank |A|^2 is supermodular; independence by |A| <= 1 keeps the
    # rank criterion holding, so submodularity is what fails
    monkeypatch.setattr(Matroid, "rank", lambda self, mask=None: mask.bit_count() ** 2)
    monkeypatch.setattr(Matroid, "is_independent", lambda self, mask: mask.bit_count() <= 1)


def _broken_on_minors(made_by, broken):
    # Matroid.<broken> returns U_{0,1} on every matroid that a call of
    # Matroid.<made_by> built, and is exact elsewhere: a check first fails
    # where it applies <broken> to a <made_by> minor, not to a representative
    def apply(monkeypatch):
        minors = {}  # id -> minor, each kept alive so that no id is reused
        real_made_by = getattr(Matroid, made_by)

        def make(self, mask):
            out = real_made_by(self, mask)
            if out is not self:
                minors[id(out)] = out
            return out

        monkeypatch.setattr(Matroid, made_by, make)
        real_broken = getattr(Matroid, broken)
        monkeypatch.setattr(
            Matroid,
            broken,
            lambda self, mask: U01 if id(self) in minors else real_broken(self, mask),
        )

    return apply


def _wrong_on_products(real):
    # the product side must not be read back from the memo of the direct sum
    # side, or the check would compare a value with itself
    spurious = TensorElement.from_term((Monomial.unit(), Monomial.unit()))
    return lambda mode, m: real(mode, m) + spurious if len(m.factors) >= 2 else real(mode, m)


def _asymmetric(real):
    extra = TensorElement.from_term((Monomial.unit(), Monomial.from_matroid(uniform(1, 1))))
    return lambda mode, m: real(mode, m) + extra


def _wrong_on(side):
    return lambda real: lambda m, s: ModuleElement.zero() if s == side else real(m, s)


E = "Matroid(n=0, |I|=1)"  # the empty class, first in catalog order
U01 = uniform(0, 1)


def _constant(value):
    return lambda real: lambda *args: value


def _constant_poly(value):
    # P_M and its closed form both read value: with ZERO every identity of
    # the witnesses holds, with ONE deletion-contraction fails and duals agree
    def apply(monkeypatch):
        for name in ("poly_P", "poly_P_closed_form"):
            monkeypatch.setattr(verify, name, lambda m: value)

    return apply


# (suite, row, breaker, the parent's failure detail)
FAILURES = [
    ("check_axioms", "matroid-axioms", _replace(verify, "validate", _constant(U01)),
     f"{E} changed under validate"),
    ("check_rank_lemmas", "rank-lemmas",
     _replace(Matroid, "is_independent", lambda real: lambda self, a: not real(self, a)),
     f"independence criterion fails on {E}, A=0"),
    ("check_rank_lemmas", "rank-lemmas", _square_rank,
     "submodularity fails on Matroid(n=2, |I|=1), 1, 2"),
    ("check_minor_lemmas", "minor-lemmas", _replace(Matroid, "delete", _constant(U01)),
     f"deletion mismatch on {E}"),
    ("check_minor_lemmas", "minor-lemmas", _broken_on_minors("restrict", "restrict"),
     "res-res fails on Matroid(n=1, |I|=1)"),
    ("check_minor_lemmas", "minor-lemmas", _broken_on_minors("restrict", "delete"),
     "res-del fails on Matroid(n=1, |I|=1)"),
    ("check_minor_lemmas", "minor-lemmas", _broken_on_minors("delete", "restrict"),
     "del-res fails on Matroid(n=1, |I|=1)"),
    ("check_minor_lemmas", "minor-lemmas", _broken_on_minors("delete", "delete"),
     "del-del fails on Matroid(n=1, |I|=1)"),
    ("check_contraction_choice", "contraction-choice",
     _replace(Matroid, "contract", _constant(U01)),
     f"choice matters on {E}, T=0"),
    ("check_direct_sum_compat", "direct-sum-compat",
     _replace(Matroid, "direct_sum", _constant(U01)),
     f"restriction fails on {E},{E}"),
    ("check_direct_sum_compat", "direct-sum-compat", _replace(Matroid, "delete", _constant(U01)),
     f"deletion fails on {E},{E}"),
    ("check_dual_involution", "dual-involution", _replace(Matroid, "dual", _constant(U01)),
     f"fails on {E}"),
    ("check_canonical_oracle", "canonical-oracle",
     _replace(verify, "canonical_key", lambda real: lambda m: real(m)._replace(family=())),
     f"fails on {E}"),
    ("check_canonical_oracle", "canonical-oracle", _replace(Matroid, "relabel", _constant(U01)),
     f"relabel fails on {E}"),
    # a stored generator that reverses the labels, which is no automorphism
    # of the loop plus a coloop, the first class it moves off itself
    ("check_canonical_oracle", "canonical-oracle",
     _replace(verify, "search_automorphisms", lambda real: lambda key: [tuple(range(key.n))[::-1]]),
     "automorphism fails on Matroid(n=2, |I|=2)"),
    ("check_coassociativity", "coassociativity",
     _replace(verify, "iterated_coproduct", lambda real: lambda mode, m, side: side),
     f"rc fails on {E}"),
    ("check_cocommutativity", "cocommutativity-rd", _replace(verify, "coproduct", _asymmetric),
     f"fails on {E}"),
    ("check_counit_laws", "counit-laws",
     _replace(verify, "apply_counit", _constant(ModuleElement.zero())),
     f"rc fails on {E}"),
    ("check_multiplicativity", "multiplicativity",
     _replace(verify, "coproduct_monomial", _wrong_on_products),
     f"fails on {E},Matroid(n=2, |I|=1)"),
    ("check_antipode_law", "antipode-law",
     _replace(verify, "convolve_antipode_identity", _wrong_on("left")),
     f"left side fails on {E}"),
    ("check_antipode_law", "antipode-law",
     _replace(verify, "convolve_antipode_identity", _wrong_on("right")),
     f"right side fails on {E}"),
    ("check_split_sums", "split-sum", _replace(verify, "reduced_coproduct", _asymmetric),
     "rc fails on Matroid(n=1, |I|=1)"),
    ("check_codendriform_witness", "codendriform-gap",
     _replace(verify, "codendriform_gap", _constant(TensorElement.zero(2))),
     "no witness pair found"),
    ("check_exp_closed_form", "exp-closed-form",
     _replace(verify, "conv_exp", lambda real: lambda f: lambda m: X),
     f"fails on {E}"),
    ("check_alpha", "alpha-power-identity", _replace(verify, "alpha", _constant(S)),
     f"fails on {E}"),
    ("check_alpha_four_factor", "alpha-four-factor",
     _replace(verify, "alpha_four_factor", _constant(S)),
     f"fails on {E}"),
    ("check_alpha_character", "alpha-character",
     _replace(verify, "alpha_of_monomial", _constant(S)),
     f"fails on {E},{E}"),
    ("check_convolution_identity", "convolution-identity",
     _replace(verify, "poly_P_convolution_rhs", _constant(X)),
     f"fails on {E}"),
    ("check_recursions", "deletion-recursions",
     _replace(verify, "poly_P_recursion_check", _constant(False)),
     "fails on Matroid(n=1, |I|=1), e=0"),
    ("check_monomial_form", "monomial-closed-form",
     _replace(verify, "poly_P_closed_form", _constant(X)),
     f"fails on {E}"),
    ("check_monomial_form", "monomial-closed-form",
     _replace(Matroid, "direct_sum", _constant(U01)),
     f"product fails on {E},{E}"),
    ("check_monomial_form", "monomial-closed-form", _constant_poly(ZERO),
     "deletion-contraction unexpectedly holds"),
    ("check_monomial_form", "monomial-closed-form", _constant_poly(ONE),
     "dual invariance unexpectedly holds"),
]


@pytest.mark.parametrize(
    "suite, row, breaker, detail", FAILURES, ids=[row for _, row, _, _ in FAILURES]
)
def test_failure_details(monkeypatch, catalog_reps, suite, row, breaker, detail):
    # each suite reports the first case that breaks, in catalog order
    suite_fn = getattr(verify, suite)
    breaker(monkeypatch)
    assert suite_fn(catalog_reps) == CheckResult(row, False, detail)


def _count_calls(monkeypatch, receivers, *names):
    """Count the outermost calls of the ``Matroid`` methods ``names`` made on
    one of ``receivers``, by (receiver index, method, arguments); a call
    made inside another counted method, such as ``delete``'s restriction,
    is not counted."""
    calls = Counter()
    index = {id(m): i for i, m in enumerate(receivers)}
    depth = [0]
    for name in names:
        real = getattr(Matroid, name)

        def counted(self, *args, real=real, name=name):
            if not depth[0] and id(self) in index:
                calls[index[id(self)], name, args] += 1
            depth[0] += 1
            try:
                return real(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Matroid, name, counted)
    return calls


def _every_mask(reps, *names):
    return {(i, name, (a,)) for i, m in enumerate(reps) for name in names for a in range(1 << m.n)}


def test_rank_lemmas_rank_each_subset_once(monkeypatch, catalog_reps):
    calls = _count_calls(monkeypatch, catalog_reps, "rank")
    assert verify.check_rank_lemmas(catalog_reps).ok
    assert set(calls) == _every_mask(catalog_reps, "rank")
    assert set(calls.values()) == {1}


def test_canonical_oracle_relabels_each_class_once_per_permutation(monkeypatch, catalog_reps):
    calls = _count_calls(monkeypatch, catalog_reps, "relabel")
    assert verify.check_canonical_oracle(catalog_reps).ok
    # once per (class, permutation): 1 + 2 + 4 * 2 + 8 * 6 + 17 * 24
    every = {
        (i, "relabel", (p,)) for i, m in enumerate(catalog_reps) for p in permutations(range(m.n))
    }
    assert set(calls) == every
    assert set(calls.values()) == {1}
    assert len(every) == 467


# run_all with a canonical search that returns its input unchanged, in a
# child whose canonical memos start cold and stay apart from this process
SEARCH_RETURNS_ITS_INPUT = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    from matroid_hopf import canonical, verify

    def unchanged(n, family):
        return family, []

    canonical._min_relabeling = verify._min_relabeling = unchanged
    for row in verify.run_all(max_n=4, cache_dir=Path(sys.argv[1])):
        print(row)
    """
)


def test_canonical_oracle_catches_a_search_that_keeps_its_input(saved_catalogs):
    # a loaded representative is its canonical family and its relabelings are
    # keyed by the lookup, so only the search on the greatest relabeling fails
    child = subprocess.run(
        [sys.executable, "-c", SEARCH_RETURNS_ITS_INPUT, str(saved_catalogs)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1])},
    )
    assert child.returncode == 0, child.stderr
    want = CheckResult("canonical-oracle", False, "fails on Matroid(n=2, |I|=2)")
    assert str(want) in child.stdout.splitlines()


def test_minor_lemmas_build_each_minor_of_a_class_once(monkeypatch, catalog_reps):
    calls = _count_calls(monkeypatch, catalog_reps, "restrict", "delete")
    assert verify.check_minor_lemmas(catalog_reps).ok
    assert set(calls) == _every_mask(catalog_reps, "restrict", "delete")
    # once for the tables, and once in each nested sweep whose minor under
    # test is the class itself: M restricted to E and M with nothing deleted
    assert max(calls.values()) <= 3


def test_direct_sum_compat_builds_each_minor_of_a_class_once(monkeypatch, catalog_reps):
    # every class pairs with the empty class, so each of its minors is built
    calls = _count_calls(monkeypatch, catalog_reps, "restrict", "delete")
    assert verify.check_direct_sum_compat(catalog_reps).ok
    assert set(calls) == _every_mask(catalog_reps, "restrict", "delete")
    assert set(calls.values()) == {1}


def test_catalog_cap_raises_before_enumerating(monkeypatch):
    def enumerated(*args):
        pytest.fail("run_all enumerated a catalog")

    monkeypatch.setattr(verify, "cached_catalog", enumerated)
    with pytest.raises(CatalogTooLarge, match=f"got {MAX_CATALOG_N + 1}$"):
        run_all(max_n=MAX_CATALOG_N + 1)


def test_negative_max_n_raises_before_enumerating(monkeypatch):
    # at -1 the catalog loop is empty: every row would pass over no classes
    def enumerated(*args):
        pytest.fail("run_all enumerated a catalog")

    monkeypatch.setattr(verify, "cached_catalog", enumerated)
    with pytest.raises(InputError, match="got -1$"):
        run_all(max_n=-1)
