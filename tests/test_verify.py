from matroid_hopf import Monomial, TensorElement, uniform, verify
from matroid_hopf.verify import check_monomial_form, check_multiplicativity, run_all


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
