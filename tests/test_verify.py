from matroid_hopf import Monomial, TensorElement, uniform, verify
from matroid_hopf.verify import CheckResult, check_monomial_form, check_multiplicativity, run_all

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


def test_rows_at_four_elements(tmp_path):
    assert run_all(max_n=4, cache_dir=tmp_path) == [CheckResult(*row) for row in GOLDEN_N4]


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


def test_multiplicativity_catches_a_wrong_product_coproduct(monkeypatch, catalog_reps):
    # the product side must not be read back from the memo of the direct sum
    # side, or the check would compare a value with itself
    real = verify.coproduct_monomial
    spurious = TensorElement.from_term((Monomial.unit(), Monomial.unit()))

    def wrong_on_products(mode, m):
        out = real(mode, m)
        return out + spurious if len(m.factors) >= 2 else out

    monkeypatch.setattr(verify, "coproduct_monomial", wrong_on_products)
    assert not check_multiplicativity(catalog_reps).ok
