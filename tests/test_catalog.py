import cProfile
import json
import pstats
from fractions import Fraction
from math import comb, factorial

import pytest

from lucascert import (
    NotPLocal,
    UnknownSeries,
    catalog_from_json,
    catalog_to_json,
    default_catalog,
    gen_terms,
    lookup,
    lucas_binom,
    p_lucas_check,
    reduce_series_mod_p,
    series_mod_p,
    series_over_q,
)
from lucascert import catalog
from lucascert.catalog import cy26_mod, cy26_term, cy210_mod, cy210_term
from lucascert.diffop import expand, recurrence_from
from test_diffop import equals_up_to_factor

CAT = default_catalog()


# -- independent term oracles (straightforward summation, no shortcuts) ------------


def apery_double_sum(n):
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def binom_factorial(n, k):
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def cy26_direct(j):
    total = 0
    for k in range(j + 1):
        total += (
            binom_factorial(j, k) ** 2
            * binom_factorial(j + k, k)
            * binom_factorial(2 * k, j)
        )
    return binom_factorial(2 * j, j) * total


def cy210_direct(j):
    total = 0
    for k in range(2 * j + 1):
        total += (-1) ** k * binom_factorial(2 * j, k) ** 4
    return binom_factorial(2 * j, j) * total


def test_apery_first_terms_against_double_sum():
    assert gen_terms(CAT["apery"], 4) == [1, 5, 73, 1445]
    assert [apery_double_sum(n) for n in range(4)] == [1, 5, 73, 1445]


def test_apery_recurrence_matches_double_sum_to_200():
    # the independent check of the apery kind, which expands its own operator
    assert gen_terms(CAT["apery"], 200) == [apery_double_sum(n) for n in range(200)]


def test_apery_expansion_runs_on_integers():
    # the terms are integral, so the only Fractions made are the T final coercions
    profile = cProfile.Profile()
    profile.runcall(gen_terms, CAT["apery"], 500)
    calls = {name: stats[1] for (path, _, name), stats in pstats.Stats(profile).stats.items()
             if path.endswith("fractions.py")}
    assert calls.get("__new__") == 500
    assert not {"forward", "reverse", "_add", "_sub", "_mul", "_div"} & set(calls)


def test_json_apery_entry_expands_the_builtin_operator():
    # an apery entry means the Apery numbers, with no operator or with another one
    foreign = catalog_to_json({"f2": CAT["f2"]})[0]["operator"]
    cat = catalog_from_json(
        [
            {"name": "bare", "kind": "apery"},
            {"name": "foreign", "kind": "apery", "operator": foreign, "initial": ["3"]},
        ]
    )
    assert cat["bare"].operator is None
    assert cat["foreign"].operator == CAT["f2"].operator
    oracle = [apery_double_sum(n) for n in range(60)]
    for name in ("bare", "foreign"):
        assert gen_terms(cat[name], 60) == oracle, name


def test_f2_closed_form():
    assert gen_terms(CAT["f2"], 4) == [1, -4, -12, -80]
    oracle = [Fraction(-(binom_factorial(2 * n, n) ** 2), 2 * n - 1) for n in range(4)]
    assert gen_terms(CAT["f2"], 4) == oracle


def test_cy_series_against_direct_summation():
    assert [cy26_term(j) for j in range(12)] == [cy26_direct(j) for j in range(12)]
    assert [cy210_term(j) for j in range(10)] == [cy210_direct(j) for j in range(10)]
    assert gen_terms(CAT["cy26"], 3) == [cy26_direct(j) for j in range(3)]


def test_cy_terms_walked_along_rows_match_factorial_oracles():
    # every index to 80, and the largest a(jp) the casebook reaches at MAX_CASEBOOK_P = 67:
    # 20 * 67 for cy210 (Jmax = 20), 15 * 67 for cy26 (Jmax = 15); exact, and reduced by a modulus
    for term, direct, top in ((cy210_term, cy210_direct, 20 * 67), (cy26_term, cy26_direct, 15 * 67)):
        for j in [*range(81), top]:
            exact = direct(j)
            assert term(j) == exact, (term.__name__, j)
            for p in (2, 3, 5, 67):
                assert term(j, p) == exact % p, (term.__name__, j, p)


def test_cy_terms_never_use_the_lucas_route(monkeypatch):
    # the casebook compares the exact terms mod p with cy210_mod/cy26_mod, which use Lucas digits
    def no_lucas(*args):
        raise AssertionError("the exact route called _lucas")

    monkeypatch.setattr(catalog, "_lucas", no_lucas)
    assert cy210_term(100) == cy210_direct(100)
    assert cy26_term(100) == cy26_direct(100)
    for p in (3, 7):
        assert cy210_term(100, p) == cy210_direct(100) % p
        assert cy26_term(100, p) == cy26_direct(100) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 97])
def test_central_row_walks_the_lucas_row(p, monkeypatch):
    """C(2d,d)^r mod p at every d < p against `_lucas`, and no `_lucas` call in the walk itself."""
    want = {r: [pow(catalog._lucas(2 * d, d, p), r, p) for d in range(p)] for r in (1, 2, 3)}
    monkeypatch.setattr(catalog, "_lucas", lambda *a: pytest.fail("the row called _lucas"))
    for r in (1, 2, 3):
        for T in (1, 2, p // 2, p, p + 5):
            assert catalog._central_row(p, r, T) == want[r][: min(p, T)], (r, T)


def test_all_entries_start_at_one():
    for entry in CAT.values():
        assert gen_terms(entry, 1) == [1]


def test_generators_match_operator_expansion_to_200():
    # apery expands its own operator, so its entry here is circular: the double sum checks it
    for name in ("g1", "g2", "g3", "f1", "f2", "f3", "apery"):
        entry = CAT[name]
        rec = recurrence_from(entry.operator)
        via_op = expand(rec, list(entry.initial), 200)
        assert gen_terms(entry, 200) == list(via_op.coeffs), name


def test_unknown_series():
    with pytest.raises(UnknownSeries):
        lookup("nosuch")


# -- lucas binomials ------------------------------------------------------------------


def test_lucas_binom_example():
    # C(7,2) = 21 = 1 mod 5; digits 12_5 vs 02_5
    assert binom_factorial(7, 2) % 5 == 1
    assert lucas_binom(7, 2, 5) == 1


def test_lucas_binom_trivial():
    for p in (3, 7):
        for n in (0, 1, 9, 40):
            assert lucas_binom(n, 0, p) == 1
    assert lucas_binom(3, 5, 7) == 0


def test_lucas_binom_matches_factorial_oracle():
    for p in (2, 3, 5, 7):
        for n in range(40):
            for k in range(n + 1):
                assert lucas_binom(n, k, p) == binom_factorial(n, k) % p


def test_central_binomial_digit_shift():
    # C(2jp, jp) = C(2j, j) mod p
    for j, p in ((1, 3), (2, 5), (3, 7)):
        direct = binom_factorial(2 * j * p, j * p) % p
        assert direct == binom_factorial(2 * j, j) % p
        assert lucas_binom(2 * j * p, j * p, p) == direct


# -- series_mod_p: the Lucas-digit routes against the Q route ---------------------

ROUTE_PRIMES = (2, 3, 5, 7, 11, 13, 37)
EXTRA = catalog_from_json(
    [
        {"name": "b4", "kind": "binom_power", "r": 4},
        {"name": "f4", "kind": "f_r", "r": 4},
        {"name": "f5", "kind": "f_r", "r": 5},
        {"name": "f1r", "kind": "f_r", "r": 1},
    ]
)


def _q_route(entry, p, T):
    return reduce_series_mod_p(series_over_q(entry, T), p)


@pytest.mark.parametrize("p", ROUTE_PRIMES)
@pytest.mark.parametrize("name", ["g1", "g2", "g3", "f1", "f2", "f3", "b4", "f4", "f5", "f1r"])
def test_series_mod_p_digit_route_matches_q_route(name, p):
    # the blocks' edge cases: p = 2; f1r, the one f_r whose terms at n = (p+1)/2 mod p are
    # nonzero; and T at the digit-level edges p^k - 1, p^k, p^k + 1 for k <= 3, to T = 2200
    entry = CAT.get(name) or EXTRA[name]
    edges = (t for k in (1, 2, 3) for t in (p**k - 1, p**k, p**k + 1) if 1 <= t <= 2200)
    for T in sorted({1, 2, 2000, *edges}):
        fast, slow = series_mod_p(entry, p, T), _q_route(entry, p, T)
        assert (fast.field, fast.coeffs) == (slow.field, slow.coeffs), (name, p, T)


@pytest.mark.parametrize("p", ROUTE_PRIMES)
@pytest.mark.parametrize("name", ["cy210", "cy26"])
def test_series_mod_p_cy_route_matches_q_route(name, p):
    for T in (1, 2, p, 200):
        assert series_mod_p(CAT[name], p, T).coeffs == _q_route(CAT[name], p, T).coeffs, (name, p, T)


def test_series_mod_p_digit_route_rejects_bad_input():
    with pytest.raises(ValueError):
        series_mod_p(CAT["f2"], 9, 10)
    for p in (0, 1, -3):
        with pytest.raises(ValueError):
            series_mod_p(CAT["g2"], p, 10)
    with pytest.raises(ValueError):
        series_mod_p(CAT["f2"], 5, 0)


@pytest.mark.parametrize("p", [4, 1, 0, -3])
def test_series_mod_p_q_route_rejects_a_non_prime_before_expanding(p, monkeypatch):
    calls = []
    monkeypatch.setattr(catalog, "gen_terms", lambda g, T: calls.append((g.name, T)) or [])
    fr2 = catalog.SeqGen("fr2", "operator", operator=catalog.hypergeometric_fr_operator(2))
    for entry in (CAT["apery"], fr2):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            series_mod_p(entry, p, 20000)
    assert calls == []


def test_seqgen_refuses_an_unknown_kind_and_an_operator_entry_without_operator():
    with pytest.raises(ValueError, match="^unknown generator kind 'nosuch'$"):
        catalog.SeqGen("x", "nosuch")
    # refused when built, not later inside gen_terms
    with pytest.raises(ValueError, match="^operator entry 'x' has no operator$"):
        catalog.SeqGen("x", "operator")


def _cy210_mod_per_k(n, p):
    """cy210_term(n) mod p by the sum over k, one Lucas walk per binomial."""
    s = sum((-1) ** k * lucas_binom(2 * n, k, p) ** 4 for k in range(2 * n + 1))
    return lucas_binom(2 * n, n, p) * s % p


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 31, 37))
def test_cy210_mod_digit_sums_match_the_sum_over_k(p):
    # past 480 and 684, 2n has three digits at p = 31 and 37
    for n in (*range(300), 481, 500, 685, 699):
        assert cy210_mod(n, p) == _cy210_mod_per_k(n, p), (n, p)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_cy26_mod_from_half_n_matches_the_exact_term(p):
    # the Lucas sum starts at k = ceil(n/2); check it at 0, 1, multiples of p and p^k +- 1
    edges = (p**k + d for k in (1, 2, 3) for d in (-1, 1) if p**k + d <= 400)
    for n in sorted({0, 1, *range(p, 400, p), *edges}):
        assert cy26_mod(n, p) == cy26_term(n) % p, (n, p)


@pytest.mark.parametrize("term_mod", [cy210_mod, cy26_mod])
def test_cy_terms_mod_p_reject_a_non_prime(term_mod):
    for p in (9, 1, 0):
        with pytest.raises(ValueError):
            term_mod(4, p)


# -- p-Lucas checks -------------------------------------------------------------------


def test_p_lucas_g2_and_apery():
    assert p_lucas_check(CAT["g2"], 7, 500) == (True, None)
    assert p_lucas_check(CAT["apery"], 5, 500) == (True, None)


def test_p_lucas_f2_fails_with_first_counterexample():
    ok, witness = p_lucas_check(CAT["f2"], 5, 200)
    assert not ok
    # brute-force the first violation independently
    terms = gen_terms(CAT["f2"], 201)
    def red(x):
        return x.numerator * pow(x.denominator, -1, 5) % 5
    first = None
    for m in range(1, 41):
        for r in range(5):
            if r + 5 * m > 200:
                continue
            if red(terms[r + 5 * m]) != red(terms[r]) * red(terms[m]) % 5:
                first = (r, m)
                break
        if first:
            break
    assert witness == first == (0, 1)


def test_p_lucas_equivalent_to_truncation_identity():
    # p-Lucas iff f|_p = P_{<p}(z) f|_p(z^p) to the tested order
    from lucascert import Poly

    M = 200
    for name, p in (("g2", 3), ("apery", 5), ("f2", 5), ("f2", 3)):
        entry = CAT[name]
        ok, _ = p_lucas_check(entry, p, M)
        f_p = series_mod_p(entry, p, M + 1)
        P = Poly(f_p.field, f_p.coeffs[:p])
        rhs = f_p.compose_power(p, 1, out_len=M + 1).mul_poly(P)
        identity = f_p.eq_to_order(rhs, M + 1)
        assert ok == identity, (name, p)


@pytest.mark.parametrize("name", sorted(CAT))
def test_p_lucas_on_a_kept_series_matches_the_entry(name):
    """A caller's kept Q series, as long as needed or longer, gives the entry's own result."""
    for p, M in ((3, 60), (5, 44), (7, 50)):
        want = p_lucas_check(CAT[name], p, M)
        assert p_lucas_check(series_over_q(CAT[name], M + 1), p, M) == want, (name, p)
        assert p_lucas_check(series_over_q(CAT[name], M + 9), p, M) == want, (name, p)


def test_p_lucas_refuses_a_short_series():
    with pytest.raises(ValueError, match="needs 101 terms, the series has 100"):
        p_lucas_check(series_over_q(CAT["apery"], 100), 5, 100)


def test_p_lucas_requires_p_local():
    # delta - z annihilates exp(z): a(m) = 1/m! is not 3-local at m = 3
    entry_json = [
        {
            "name": "expz",
            "kind": "operator",
            "operator": {"basis": "delta", "coeffs": [{"num": [0, -1]}, {"num": [1]}]},
            "initial": ["1"],
        }
    ]
    entry = catalog_from_json(entry_json)["expz"]
    assert gen_terms(entry, 4) == [1, 1, Fraction(1, 2), Fraction(1, 6)]
    with pytest.raises(NotPLocal):
        p_lucas_check(entry, 3, 20)


# -- catalog JSON ------------------------------------------------------------------------


def test_catalog_json_roundtrip():
    data = json.loads(json.dumps(catalog_to_json(CAT)))
    back = catalog_from_json(data)
    assert set(back) == set(CAT)
    for name in ("f2", "apery"):
        assert gen_terms(back[name], 10) == gen_terms(CAT[name], 10)
        assert equals_up_to_factor(back[name].operator, CAT[name].operator)


def test_catalog_operator_entry_kind():
    # an operator_init-style entry expands through the recurrence
    entry_json = [
        {
            "name": "custom",
            "kind": "operator",
            "operator": {
                "basis": "delta",
                "coeffs": [{"num": [0, 4], "den": [1]}, {"num": []}, {"num": [1, -16]}],
            },
            "initial": ["1"],
        }
    ]
    cat = catalog_from_json(entry_json)
    assert gen_terms(cat["custom"], 4) == [1, -4, -12, -80]
