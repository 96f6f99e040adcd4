import pytest

from lucascert import (
    UnknownCase,
    batch_report,
    case_26,
    case_210,
    case_2f1,
    case_apery_lucas,
    case_ids,
    results_to_csv,
    run_case,
)
from lucascert import GF, Poly, casebook
from lucascert.catalog import cy26_mod, cy26_term


def test_case_210_small_primes():
    for p, jmax in ((3, 20), (5, 10)):
        res = case_210(p, Jmax=jmax)
        assert res.passed, res.checks
        assert not res.excluded


def test_case_210_rejects_two():
    res = case_210(2)
    assert res.excluded
    assert res.passed  # excluded rows do not fail a batch


def test_case_26():
    for p, jmax in ((3, 15), (5, 8)):
        res = case_26(p, Jmax=jmax)
        assert res.passed, res.checks
    # j = 0 row is the trivial 1 = 1 congruence and is part of the sweep
    res0 = case_26(7, Jmax=0)
    assert res0.passed


def test_fixed_point_congruence_fails_on_a_wrong_exact_term():
    # one exact term off by one at index 3p: the routes disagree there, and the check fails
    p = 5

    def wrong_term(n, mod):
        return (cy26_term(n) + (n == 3 * p)) % mod

    res = casebook.CaseResult("26", p)
    casebook._fixed_point_congruence(res, wrong_term, p, 8, cy26_mod)
    assert not res.passed
    assert res.checks == [(f"a(3p) = a(3) mod {p}", False, "congruent: False, routes agree: False")]


def test_case_2f1_heights_p3():
    res = case_2f1(3, kmax=2, T=300)
    assert res.passed, [c for c in res.checks if not c[1]]
    assert res.orders["B_heights"] == [3, 12, 39]


def test_case_2f1_separability_p5():
    res = case_2f1(5, kmax=1, T=300)
    labels = {label: ok for label, ok, _ in res.checks}
    assert labels["separable"]
    assert labels["coprime"]


def test_case_2f1_identities_p7():
    res = case_2f1(7, kmax=1, T=500)
    labels = {label: ok for label, ok, _ in res.checks}
    for key in ("f2-from-f1", "trunc-link", "split-f1", "split-f1-sq", "self-power", "deg-P"):
        assert labels[key], key


def test_case_2f1_excludes_p_at_or_past_T(monkeypatch):
    # P_1 and P_2 are prefixes of length p of the series expanded to T = 500
    monkeypatch.setattr(casebook, "gen_terms", lambda *a: pytest.fail("expanded an excluded prime"))
    res = case_2f1(1009)
    assert res.excluded and res.passed and res.checks == []
    assert "T = 500" in res.note
    assert case_2f1(7, T=7).excluded


def test_case_independence():
    res = run_case("independence", 5, T=300)
    assert res.passed, [c for c in res.checks if not c[1]]


def test_case_independence_order_grows_with_p():
    # at T = 300, B = P_2/P_1 of height 146 was out of pade_ratio's reach at p = 293
    res = run_case("independence", 293)
    assert res.orders["T"] == 301
    assert res.passed, [c for c in res.checks if not c[1]]


@pytest.mark.parametrize("route", ["pade_ratio", "pade_kernel"])
def test_independence_needs_both_reconstruction_routes(monkeypatch, route):
    # B = P_2/P_1 comes from two routes; a wrong pair from either one fails the check
    label = "f_2 = B g_2 with height(B) bounded"
    assert dict((lbl, ok) for lbl, ok, _ in run_case("independence", 5).checks)[label]
    monkeypatch.setattr(casebook, route, lambda num, den, D: (Poly.one(GF(5)), Poly(GF(5), [1, 1])))
    checks = dict((lbl, ok) for lbl, ok, _ in run_case("independence", 5).checks)
    assert not checks[label]


def test_case_apery_lucas():
    res = case_apery_lucas(7, M=300)
    assert res.passed


def test_apery_lucas_expands_apery_over_q_once(monkeypatch, capsys):
    """p_lucas_check reduces one kept expansion at every prime: one `_generate` call for three primes."""
    from lucascert import catalog
    from lucascert.cli import main

    calls = []
    generate = catalog._generate
    monkeypatch.setattr(catalog, "_generate", lambda g, T: calls.append((g.name, T)) or generate(g, T))
    checks = []
    p_lucas_check = casebook.p_lucas_check
    monkeypatch.setattr(casebook, "p_lucas_check", lambda g, p, M: checks.append(p) or p_lucas_check(g, p, M))
    casebook._series_over_q.cache_clear()
    try:
        assert main(["casebook", "apery-lucas", "--primes", "3,5,7"]) == 0
    finally:  # leave no series expanded through the counting wrapper behind
        casebook._series_over_q.cache_clear()
    capsys.readouterr()
    assert calls == [("apery", 501)]
    assert checks == [3, 5, 7]


def test_batch_report_nine_rows():
    results = batch_report([3, 5, 7], ["210", "26", "apery-lucas"])
    assert len(results) == 9
    assert all(r.passed for r in results)


def test_batch_report_expands_each_q_series_once(monkeypatch):
    # 2f1 and independence share one Q expansion per (series, T) across primes
    calls = []
    gen_terms = casebook.gen_terms
    monkeypatch.setattr(casebook, "gen_terms", lambda g, T: calls.append((g.name, T)) or gen_terms(g, T))
    cached = (casebook._series_over_q, casebook._fr_operator_checks, casebook._2f1_q_identities)
    for fn in cached:
        fn.cache_clear()
    try:
        results = batch_report([5, 7], ["2f1", "independence"])
    finally:  # leave no series expanded through the counting wrapper behind
        for fn in cached:
            fn.cache_clear()
    assert all(r.passed for r in results)
    assert sorted(calls) == sorted(set(calls))
    assert set(calls) == {("f1", 500), ("f2", 500), ("f2", 300), ("g2", 300), ("f3", 300), ("g3", 300),
                          ("apery", 300)}


def test_2f1_q_identities_computed_once_across_primes():
    # f2-from-f1 and f1-from-f2 hold over Q and do not depend on p: one computation per T
    casebook._2f1_q_identities.cache_clear()
    try:
        results = batch_report([3, 5, 7, 11], ["2f1"])
        info = casebook._2f1_q_identities.cache_info()
    finally:
        casebook._2f1_q_identities.cache_clear()
    assert all(r.passed for r in results)
    assert all(label in [c[0] for c in r.checks] for r in results for label in ("f2-from-f1", "f1-from-f2"))
    assert (info.misses, info.hits) == (1, 3)


def test_batch_report_empty_cases():
    assert batch_report([3, 5], []) == []


def test_batch_report_with_two_marks_excluded():
    results = batch_report([2], ["210"])
    assert len(results) == 1
    assert results[0].excluded
    assert results[0].passed


def test_batch_unknown_case():
    with pytest.raises(UnknownCase):
        batch_report([3], ["nosuch"])
    with pytest.raises(UnknownCase):
        run_case("nosuch", 3)


def test_csv_emission():
    results = batch_report([2, 3], ["210"])
    text = results_to_csv(results)
    lines = text.strip().splitlines()
    assert lines[0] == "case_id,p,check_label,pass,detail"
    assert any("excluded" in line for line in lines[1:])
    assert any(line.startswith("210,3,") for line in lines[1:])


def test_case_ids_stable():
    assert set(case_ids()) == {"210", "26", "2f1", "independence", "apery-lucas"}
