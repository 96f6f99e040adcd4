import json
import os
import random
import subprocess
import sys
import time
from math import comb

import pytest

import lucascert
from lucascert import (
    QQ,
    Poly,
    certificate_from_json,
    default_catalog,
    diffop_to_json,
    reduce_series_mod_p,
    series_over_q,
    verify_certificate,
)
from lucascert.catalog import MAX_Q_T
from lucascert.certify import MAX_T
from lucascert.cli import (
    MAX_CASEBOOK_P,
    MAX_CURVATURE_P,
    MAX_EXPAND_R2T3,
    MAX_EXPAND_T,
    MAX_SUM_EXPAND_T,
    build_parser,
    main,
)
from lucascert.factoring import MAX_RECOMBINE_SUBSETS
from test_diffop import CATALOG_OPERATORS, times_z


@pytest.fixture()
def f2_op_path(tmp_path):
    data = diffop_to_json(default_catalog()["f2"].operator)
    path = tmp_path / "f2_op.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_expand_f2(capsys):
    assert main(["expand", "f2", "--T", "64"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["1", "-4", "-12", "-80"]


def test_expand_apery_json(capsys):
    assert main(["expand", "apery", "--T", "64", "--format", "json"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values[:4] == ["1", "5", "73", "1445"]


def test_expand_unknown_series(capsys):
    assert main(["expand", "nosuch", "--T", "64"]) == 1


def test_expand_rejects_tiny_T(capsys):
    assert main(["expand", "f2", "--T", "8"]) == 1


def test_expand_over_budget_is_input_error(capsys):
    # checked before anything is expanded: no MemoryError traceback, no wait
    start = time.perf_counter()
    assert main(["expand", "f2", "--T", "10000000"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "T = 10000000" in err and f"MAX_EXPAND_T = {MAX_EXPAND_T}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["binom_power", "f_r"])
def test_expand_power_series_over_their_budget_is_input_error(kind, tmp_path, capsys):
    # each term C(2n,n)^r has about 0.6 r n digits: r = 200000 at T = 64 ran past 20 s
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": "big", "kind": kind, "r": 200000}]))
    start = time.perf_counter()
    assert main(["expand", "big", "--T", "64", "--catalog", str(path)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "r = 200000" in err and "T = 64" in err and f"MAX_EXPAND_R2T3 = {MAX_EXPAND_R2T3}" in err
    assert "Traceback" not in err
    # the shipped entries (r <= 3) keep MAX_EXPAND_T
    assert 3**2 * MAX_EXPAND_T**3 <= MAX_EXPAND_R2T3


@pytest.mark.parametrize("series", ["cy210", "cy26"])
def test_expand_sum_series_over_their_budget_is_input_error(series, capsys):
    # each term is a fresh O(j) big-binomial sum: 5000 terms would run for hours
    start = time.perf_counter()
    assert main(["expand", series, "--T", "5000"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert repr(series) in err and "T = 5000" in err and f"MAX_SUM_EXPAND_T = {MAX_SUM_EXPAND_T}" in err
    assert "Traceback" not in err
    assert main(["expand", series, "--T", "64"]) == 0


def test_expand_prints_coefficients_past_the_int_str_limit(tmp_path, capsys):
    # C(2n,n)^8 passes CPython's default 4300-digit int -> str limit near n = 900
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": "b8", "kind": "binom_power", "r": 8}]))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["expand", "b8", "--T", "1000", "--catalog", str(path), "--format", "json"]) == 0
    last, exact = json.loads(capsys.readouterr().out)[999], comb(1998, 999) ** 8
    # compared without int <-> str, which the limit still guards outside expand
    assert 10 ** (len(last) - 1) <= exact < 10 ** len(last) and len(last) > 4300
    assert last[-40:] == str(exact % 10**40).zfill(40)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored


def test_opinfo_text(f2_op_path, capsys):
    assert main(["opinfo", f2_op_path, "--primes", "3,5"]) == 0
    out = capsys.readouterr().out
    assert "MOM at zero: yes" in out
    assert "indicial at zero: x^2" in out
    assert "-1/16 + z" in out and ", z" in out
    assert "good primes <= 20: [3, 5, 7, 11, 13, 17, 19]" in out


def test_opinfo_over_curvature_budget_is_input_error(tmp_path, capsys):
    # checked before the analysis: the apery p-curvature at p = 1009 ran past a minute
    apery = tmp_path / "apery.json"
    apery.write_text(json.dumps(diffop_to_json(default_catalog()["apery"].operator)))
    start = time.perf_counter()
    assert main(["opinfo", str(apery), "--primes", "5,1009"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "p = 1009" in err and f"MAX_CURVATURE_P = {MAX_CURVATURE_P}" in err
    assert "Traceback" not in err


def swinnerton_dyer(radicands):
    """The product of x - (sum of +-sqrt(q) over q in radicands) over all signs, in Z[x]."""
    S = Poly.x(QQ)
    for q in radicands:
        # S(x + sqrt(q)) = E(x) + sqrt(q) O(x), and the next S is E^2 - q O^2
        E, O = Poly.zero(QQ), Poly.zero(QQ)
        for k, c in enumerate(S.coeffs):
            for j in range(k + 1):
                term = Poly.constant(QQ, c * comb(k, j) * q ** (j // 2)).shift(k - j)
                E, O = (E, O + term) if j % 2 else (E + term, O)
        S = E * E - O * O.scale(q)
    return S


def test_opinfo_over_recombination_budget_is_input_error(tmp_path, capsys):
    # S of degree 32 splits into 16 factors of degree <= 2 mod every prime and is irreducible
    # over Z, so an unbounded subset search runs for minutes
    S = swinnerton_dyer([2, 3, 5, 7, 11])
    path = tmp_path / "sd.json"
    path.write_text(json.dumps({"basis": "d", "coeffs": [{"num": [-1]}, {"num": [int(c) for c in S.coeffs]}]}))
    start = time.perf_counter()
    assert main(["opinfo", str(path), "--primes", "3"]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "degree-32" in err and "r = 16" in err and f"MAX_RECOMBINE_SUBSETS = {MAX_RECOMBINE_SUBSETS}" in err
    assert "Traceback" not in err


def random_delta_operator_path(tmp_path, n):
    """A delta-basis operator of order n with degree-n integer coefficients drawn from random.Random(n)."""
    rng = random.Random(n)
    coeffs = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)]
    coeffs.append([1] + [rng.randint(-9, 9) for _ in range(n)])
    path = tmp_path / f"order{n}.json"
    path.write_text(json.dumps({"basis": "delta", "coeffs": [{"num": c} for c in coeffs]}))
    return str(path)


def test_opinfo_order_16_p_curvature_is_fast(tmp_path, capsys):
    # testing B_p^n = 0 by n - 1 products of n x n polynomial matrices took 14 s on this operator
    # (2 cores, CPython 3.11.7); with the first row of B_p^n alone opinfo took 1.1-1.5 s, and with
    # one packed sum per row entry and no division by D^i it takes about 0.35 s
    path = random_delta_operator_path(tmp_path, 16)
    start = time.perf_counter()
    assert main(["opinfo", path, "--primes", "3,5"]) == 0
    assert time.perf_counter() - start < 5
    assert "Traceback" not in capsys.readouterr().err


def test_opinfo_order_24_p_curvature_is_fast(tmp_path, capsys):
    # p-curvature on Poly objects with rows divided by D^i took 7.3 s here (2 cores, CPython 3.11.7);
    # on packed F_p integers opinfo takes about 1.5 s
    path = random_delta_operator_path(tmp_path, 24)
    start = time.perf_counter()
    assert main(["opinfo", path, "--primes", "3,5"]) == 0
    assert time.perf_counter() - start < 5
    assert "Traceback" not in capsys.readouterr().err


def test_opinfo_degree_100_singular_locus_is_fast(tmp_path, capsys):
    # the Euclidean resultant over Q behind the discriminant took 26 s on z R(z) d + z
    # (2 cores, CPython 3.11.7); with each remainder kept primitive opinfo takes under 1 s
    rng = random.Random(5)
    R = [rng.randint(-9, 9) for _ in range(101)]
    path = tmp_path / "degree100.json"
    path.write_text(json.dumps({"basis": "d", "coeffs": [{"num": [0, 1]}, {"num": [0] + R}]}))
    start = time.perf_counter()
    assert main(["opinfo", str(path), "--primes", "3,5"]) == 0
    assert time.perf_counter() - start < 5
    assert "Traceback" not in capsys.readouterr().err


def test_opinfo_json(f2_op_path, capsys):
    assert main(["opinfo", f2_op_path, "--primes", "3", "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["mom"] is True
    assert info["count_r"] == 2
    assert info["p_curvature_nilpotent"]["3"] is True


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_opinfo_irregular_at_zero_reports_no_indicial_polynomial(tmp_path, capsys, fmt):
    # z^2 d + 1 has the delta coefficient 1/z at 0, so 0 is an irregular singular point
    path = tmp_path / "irregular.json"
    path.write_text(json.dumps({"basis": "d", "coeffs": [{"num": [1]}, {"num": [0, 0, 1]}]}))
    assert main(["opinfo", str(path), "--primes", "3", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "json":
        info = json.loads(out)
        assert info["indicial"] is None and info["mom"] is False
        assert info["finite_singular_factors"] == [{"factor": "z", "regular": False}]
    else:
        assert "MOM at zero: no\nindicial at zero: none, 0 is an irregular singular point\n" in out
        assert "finite singular factors: z (irregular)" in out


OPERATOR = {"basis": "d", "coeffs": [{"num": [-2]}, {"num": [1, -4]}]}


@pytest.mark.parametrize(
    "entry,location",
    [
        ({"name": "x", "kind": "operator", "operator": OPERATOR, "initial": ["abc"]},
         "entry[0].initial"),
        ({"name": "x", "kind": "binom_power", "r": "two"}, "entry[0].r"),
        ({"name": "x", "kind": "operator"}, "entry[0]"),
        ({"name": ["x"], "kind": "apery"}, "entry[0].name"),
        ({"name": "x", "kind": "binom_power", "r": -1}, "entry[0].r"),
        ({"name": "x", "kind": "f_r", "r": 0}, "entry[0].r"),
        ({"name": "x", "kind": "binom_power", "r": 2.7}, "entry[0].r"),
        ({"name": "x", "kind": "f_r", "r": True}, "entry[0].r"),
        ({"name": "x", "kind": "operator", "operator": OPERATOR, "initial": [0.1]},
         "entry[0].initial"),
        ({"name": "x", "kind": "operator", "operator": OPERATOR, "initial": [True]},
         "entry[0].initial"),
        ({"name": "x", "kind": "operator", "operator": {**OPERATOR, "basis": "z"}},
         "entry[0].operator.basis"),
        ({"name": "x", "kind": "operator", "operator": {"basis": "d", "coeffs": [{"num": [-2]}, {"num": [1, -4.0]}]}},
         "entry[0].operator.coeffs[1]"),
    ],
    ids=["initial-abc", "r-two", "operator-missing", "name-list", "r-negative", "r-zero",
         "r-float", "r-bool", "initial-float", "initial-bool", "operator-basis", "operator-float-coefficient"],
)
def test_bad_catalog_entry_is_parse_error(tmp_path, capsys, entry, location):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([entry]))
    assert main(["expand", "x", "--T", "64", "--catalog", str(path)]) == 1
    assert f"(at {location})" in capsys.readouterr().err


def test_opinfo_gives_each_good_prime_a_p_curvature_verdict(tmp_path, capsys):
    # (1/(3z - 1))(d + 1): 3 divides the leading coefficient of den, yet is good, and reduces to d + 1
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"basis": "d", "coeffs": [{"num": [1], "den": [-1, 3]}, {"num": [1], "den": [-1, 3]}]}))
    assert main(["opinfo", str(path), "--primes", "3,5", "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert 3 in info["good_primes"] and info["p_curvature_nilpotent"] == {"3": False, "5": False}


@pytest.mark.parametrize("value", [-2.7, True], ids=["float", "bool"])
def test_operator_coefficient_must_be_integer(tmp_path, capsys, value):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"basis": "d", "coeffs": [{"num": [value]}, {"num": [1, -4]}]}))
    assert main(["opinfo", str(path)]) == 1
    assert "(at coeffs[0])" in capsys.readouterr().err


def test_opinfo_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["opinfo", str(bad)]) == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before 3.10.7")
def test_operator_integer_literal_past_the_int_digit_limit(tmp_path, capsys):
    # json.loads raises a bare ValueError on an int literal of more than sys.get_int_max_str_digits()
    path = tmp_path / "op.json"
    literal = "7" * 5000
    text = '{"basis": "delta", "coeffs": [{"num": [%s]}, {"num": [1, -4]}]}' % literal
    path.write_text(text)
    assert main(["opinfo", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"(at char {text.index(literal)})" in err and f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "Traceback" not in err


def test_directory_as_path_is_input_error(tmp_path, capsys):
    assert main(["opinfo", str(tmp_path)]) == 1
    assert main(["expand", "f2", "--T", "64", "--out", str(tmp_path)]) == 1


def test_certify_f1(capsys):
    assert main(["certify", "f1", "-p", "3", "--T", "200"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["level"] == 1
    assert cert["A_num"] == [1, 1]
    assert cert["A_den"] == [1]
    assert cert["bound_kind"] == "L_bound"


def test_certify_f2_height_12(capsys):
    assert main(["certify", "f2", "-p", "3", "--T", "512"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["level"] == 2
    assert cert["height"] == 12


def test_certify_warns_when_explicit_T_does_not_pin_A(capsys):
    # verified_to 512 <= 2 * bound = 2592: the stdout and exit code stay, stderr says so
    assert main(["certify", "f2", "-p", "3", "--T", "512"]) == 0
    captured = capsys.readouterr()
    cert = json.loads(captured.out)
    assert (cert["verified_to"], cert["bound"]) == (512, 1296)
    assert captured.err.startswith("warning: verified_to = 512 is at most 2*bound = 2592")
    # auto T is sized above 2 * bound, so it leaves stderr empty
    assert main(["certify", "f2", "-p", "3"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verified_to"] > 2 * 1296
    assert captured.err == ""


def test_certify_f2_p7_auto_T(capsys):
    # auto T = 76848: desk scale because f2 is expanded mod p by Lucas digits, not over Q
    assert main(["certify", "f2", "-p", "7"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["level"] == 2
    assert cert["height"] == 168 == 7 * (7**2 - 1) // 2
    assert cert["verified_to"] >= 2 * cert["height"]


def test_certify_huge_prime_needs_no_sieve(capsys):
    # p is tested against the operator's bad integers, not sieved up to p
    start = time.perf_counter()
    assert main(["certify", "f2", "-p", "1000000007", "--T", "64"]) == 2
    assert time.perf_counter() - start < 1
    assert "no Cartier collision" in capsys.readouterr().err


def test_certify_over_expansion_budget_is_input_error(capsys):
    # every certificate has level >= 1, so the first probe is the largest level-1 need,
    # here the orbit probe 31 p + 1, past MAX_T at p = 1000003
    start = time.perf_counter()
    assert main(["certify", "f2", "-p", "1000003"]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert f"T = {31 * 1000003 + 1} series terms (orbit probe)" in err and f"MAX_T = {MAX_T}" in err
    assert main(["certify", "f2", "-p", "3", "--T", str(MAX_T + 1)]) == 1
    assert f"T = {MAX_T + 1}" in capsys.readouterr().err


def test_certify_apery_over_q_route_budget_is_input_error(capsys):
    # apery has no digit route: its first probe, the L-type height bound's 2 C p + 16 terms
    # (C = 18), is past MAX_Q_T at p = 1531 (1523 is the last prime under it) and past MAX_T
    # at p = 55579
    start = time.perf_counter()
    assert main(["certify", "apery", "-p", "1531"]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert f"'apery' needs T = {36 * 1531 + 16} terms over Q" in err and f"MAX_Q_T = {MAX_Q_T}" in err
    assert 36 * 1523 + 16 <= MAX_Q_T < 36 * 1531 + 16
    assert "Traceback" not in err
    start = time.perf_counter()
    assert main(["certify", "apery", "-p", "55579"]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert f"T = {36 * 55579 + 16} series terms (height bound at level 1)" in err and f"MAX_T = {MAX_T}" in err
    assert "Traceback" not in err


def test_certify_apery_at_211_stops_at_the_height_bound(capsys):
    # the orbit has no preperiod, so T is the height bound's 2 C p + 16, not 3 p^2 + 1 = 133564
    assert main(["certify", "apery", "-p", "211"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert (cert["level"], cert["height"], cert["bound"], cert["verified_to"]) == (1, 210, 3798, 7612)


def test_certify_bad_prime(capsys):
    assert main(["certify", "f2", "-p", "2", "--T", "128"]) == 1


@pytest.fixture(scope="module")
def z_catalog(tmp_path_factory):
    """An `operator` entry zL for each catalog operator L, as its delta form times z, and a bare apery."""
    cat = default_catalog()
    entries = [{"name": f"z{name}", "kind": "operator", "operator": diffop_to_json(times_z(cat[name].operator, 1))}
               for name in CATALOG_OPERATORS]
    path = tmp_path_factory.mktemp("z_catalog") / "catalog.json"
    path.write_text(json.dumps(entries + [{"name": "bare", "kind": "apery"}]))
    return str(path)


def _cli_out(capsys, *argv):
    assert main(list(argv)) == 0, argv
    return capsys.readouterr().out


# f2 and f3 at p = 3: at p = 5 their Q route takes 0.7 and 3.5 s
@pytest.mark.parametrize("name, p", [("g1", 5), ("g2", 5), ("g3", 5), ("f2", 3), ("f3", 3), ("apery", 5)])
def test_operator_entry_times_z_certifies_and_expands_as_its_operator(z_catalog, capsys, name, p):
    want = json.loads(_cli_out(capsys, "certify", name, "-p", str(p)))
    got = json.loads(_cli_out(capsys, "certify", f"z{name}", "-p", str(p), "--catalog", z_catalog))
    assert got == {**want, "series": f"z{name}"}
    terms = _cli_out(capsys, "expand", name, "--T", "64")
    assert _cli_out(capsys, "expand", f"z{name}", "--T", "64", "--catalog", z_catalog) == terms


def test_bare_apery_entry_certifies_as_apery(z_catalog, capsys):
    want = json.loads(_cli_out(capsys, "certify", "apery", "-p", "5"))
    got = json.loads(_cli_out(capsys, "certify", "bare", "-p", "5", "--catalog", z_catalog))
    assert got == {**want, "series": "bare"}


def test_certificate_roundtrip_reverifies(capsys):
    assert main(["certify", "f2", "-p", "3", "--T", "512"]) == 0
    cert = certificate_from_json(json.loads(capsys.readouterr().out))
    fresh = reduce_series_mod_p(series_over_q(default_catalog()["f2"], 512), 3)  # not the certify route
    assert verify_certificate(cert, fresh)


def test_casebook_2f1(capsys):
    assert main(["casebook", "2f1", "--primes", "3,5"]) == 0


def test_casebook_210_p2_warns_exit_zero(capsys):
    code = main(["casebook", "210", "--primes", "2", "--allow-two", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert "excluded" in captured.out
    assert "warning" in captured.err


def test_casebook_odd_prime_cases_exclude_p2(capsys):
    # 2f1 and independence used to raise ValueError (a traceback on the CLI) at p = 2
    code = main(["casebook", "2f1", "independence", "--primes", "2", "--allow-two"])
    captured = capsys.readouterr()
    assert code == 0
    assert [r["excluded"] for r in json.loads(captured.out)] == [True, True]
    assert "case 2f1 at p=2 excluded" in captured.err and "Traceback" not in captured.err


def test_casebook_2f1_excludes_primes_past_its_order(capsys):
    # T = 500 <= p: the split checks would compare nothing past the truncations
    start = time.perf_counter()
    code = main(["casebook", "2f1", "--primes", "1009"])
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)[0]["excluded"] is True
    assert "case 2f1 at p=1009 excluded: the split checks to order T = 500 need p < T" in captured.err
    assert captured.err.count("excluded:") == 1 and "Traceback" not in captured.err
    assert json.loads(captured.out)[0]["note"] == "p = 1009 excluded: the split checks to order T = 500 need p < T"


@pytest.mark.parametrize("case_id", ["210", "26", "independence"])
def test_casebook_prime_over_budget_is_input_error(case_id, capsys):
    # these cases grow with p: at p = 1009 each ran past a minute
    start = time.perf_counter()
    assert main(["casebook", case_id, "--primes", "5,1009"]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert f"casebook {case_id} at p = 1009" in err and f"MAX_CASEBOOK_P = {MAX_CASEBOOK_P}" in err
    assert "Traceback" not in err


def test_casebook_cases_pass_at_the_prime_cap(capsys):
    code = main(["casebook", "210", "26", "independence", "--primes", str(MAX_CASEBOOK_P), "--format", "json"])
    results = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["case_id"] for r in results] == ["210", "26", "independence"]
    assert all(c["pass"] for r in results for c in r["checks"]) and not any(r["excluded"] for r in results)


def test_casebook_excluded_prime_without_flag(capsys):
    assert main(["casebook", "210", "--primes", "2"]) == 1


def test_casebook_all(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["casebook", "all", "--primes", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    for case_id in ("210", "26", "2f1", "independence", "apery-lucas"):
        assert case_id in text


def test_casebook_unknown_case(capsys):
    assert main(["casebook", "nosuch", "--primes", "3"]) == 1


def test_nonprime_in_primes_flag(capsys):
    assert main(["casebook", "2f1", "--primes", "9"]) == 1


def test_missing_p_is_usage_error(capsys):
    assert main(["certify", "f2"]) == 1
    assert "-p" in capsys.readouterr().err


def test_unknown_format_is_usage_error(capsys):
    assert main(["casebook", "2f1", "--format", "text"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["opinfo", "--help"]) == 0
    assert "--bound" in capsys.readouterr().out


def test_non_integer_prime_is_input_error(capsys):
    assert main(["casebook", "2f1", "--primes", "abc"]) == 1
    assert "(at --primes)" in capsys.readouterr().err


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    options = {
        name: sorted(o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, sp in sub.choices.items()
    }
    assert options == {
        "expand": ["--T", "--catalog", "--format", "--out"],
        "opinfo": ["--allow-two", "--bound", "--format", "--out", "--primes"],
        "certify": ["--T", "--catalog", "--out", "-p"],
        "casebook": ["--allow-two", "--format", "--out", "--primes"],
    }


def test_parser_is_built_once_and_reused_across_argvs(capsys):
    assert build_parser() is build_parser()
    assert main(["casebook", "2f1", "--primes", "abc"]) == 1
    assert main(["casebook", "210", "--primes", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("case_id,p,check_label,pass,detail")


def test_opinfo_bound_over_budget_is_input_error(f2_op_path, capsys):
    assert main(["opinfo", f2_op_path, "--bound", "100000000"]) == 1
    err = capsys.readouterr().err
    assert "limit 10000000" in err and "(at --bound)" in err


RUN_AND_LIST_IMPORTS = """
import contextlib, io, json, sys
before = set(sys.modules)
from lucascert.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_factoring():
    # Poly.factor imports factoring only when called; the package loads it up front, so that a
    # tool that wraps the loaded modules (bench/tracing.py) sees it
    src = os.path.dirname(os.path.dirname(os.path.abspath(lucascert.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lucascert; print('lucascert.factoring' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.split() == ["True"]


def test_import_loads_no_introspection_modules():
    # the records are collections.namedtuple subclasses and csv is imported when CSV is written, so
    # set-up pays for none of these; -S keeps out what a site .pth file may preload
    src = os.path.dirname(os.path.dirname(os.path.abspath(lucascert.__file__)))
    code = "import sys, lucascert, lucascert.cli; lucascert.default_catalog(); print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    modules = set(out.split())
    assert "lucascert.cli" in modules
    assert modules & {"dataclasses", "inspect", "typing", "ast", "dis", "csv"} == set()


def test_cli_runs_import_only_the_standard_library(tmp_path):
    # every module the runs add to sys.modules (site's .pth imports come before) is stdlib or lucascert
    apery = tmp_path / "apery.json"
    apery.write_text(json.dumps(diffop_to_json(default_catalog()["apery"].operator)))
    runs = [["certify", "f2", "-p", "3"], ["opinfo", str(apery)], ["casebook", "26", "--primes", "5"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(lucascert.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST_IMPORTS, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    modules = json.loads(out)
    assert "lucascert.cli" in modules and "sympy" not in modules
    foreign = [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names | {"lucascert"}]
    assert foreign == []
