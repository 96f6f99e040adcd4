"""Acceptance gate: every criterion at its stated order/tolerance.

Each test prints one PASS/FAIL line; a failed assertion fails the suite.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import random
import time
from fractions import Fraction

from lucascert import (
    GF,
    QQ,
    Poly,
    RatFun,
    TruncSeries,
    assemble_certificate,
    cartier_row_residual,
    case_26,
    case_210,
    case_2f1,
    certificate_prop62,
    default_catalog,
    frobenius_shadow,
    good_primes,
    hypergeometric_fr_operator,
    indicial_at_zero,
    is_mom,
    orbit_detect,
    p_curvature,
    p_lucas_check,
    q_series,
    reduce_op_mod_p,
    series_mod_p,
    series_over_q,
    split_elimination,
    split_pade,
)

CAT = default_catalog()


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_p_lucas_suite():
    t0 = time.time()
    failures = []
    for name in ("g1", "g2", "g3", "apery"):
        for p in (3, 5, 7, 11, 13):
            ok, witness = p_lucas_check(CAT[name], p, 2000)
            if not ok:
                failures.append((name, p, witness))
    elapsed = time.time() - t0
    report(
        1,
        "p-Lucas g1,g2,g3,apery at p in {3,5,7,11,13}, indices <= 2000",
        not failures and elapsed < 60,
        f"{elapsed:.1f}s, failures={failures}",
    )


def test_criterion_2_congruence_cases():
    bad = []
    for p in (3, 5, 7):
        if not case_210(p, Jmax=40).passed:
            bad.append(("210", p))
        if not case_26(p, Jmax=30).passed:
            bad.append(("26", p))
    report(2, "series 210 (j<=40) and 26 (j<=30) congruences at p in {3,5,7}", not bad, str(bad))


def test_criterion_3_2f1_exact_reproduction():
    bad = []
    expected_heights = {
        p: [p * (p ** (k + 1) - 1) // 2 for k in range(3) if p ** (k + 1) <= 400]
        for p in (3, 5, 7, 11)
    }
    for p in (3, 5, 7, 11):
        res = case_2f1(p, kmax=2, T=500, power_cap=400)
        if not res.passed:
            bad.append((p, [c for c in res.checks if not c[1]]))
        if res.orders["B_heights"] != expected_heights[p]:
            bad.append((p, "heights", res.orders["B_heights"]))
    report(
        3,
        "2F1 truncation degrees, split identities to order 500, exact B_k heights",
        not bad,
        str(bad) if bad else f"heights: {expected_heights}",
    )


def test_criterion_4_prop62_certificates():
    jobs = (("f1", 2, 2), ("f2", 2, 2), ("apery", 3, 3))
    bad = []
    details = []
    for name, n, r in jobs:
        for p in (3, 5, 7):
            f = series_mod_p(CAT[name], p, 1000)
            cert = certificate_prop62(f, n, r, p, series_name=name)
            if cert.verified_to < 1000 or cert.height > n * r * p - 1:
                bad.append((name, p, cert.height, cert.verified_to))
            details.append(f"{name}@{p}:h={cert.height}<={n * r * p - 1}")
    report(4, "one-step certificates verified to order 1000 within nrp-1", not bad,
           str(bad) if bad else " ".join(details))


def test_criterion_5_full_assembly_f2():
    bad = []
    details = []
    for p in (3, 5):
        f = series_mod_p(CAT["f2"], p, 1000)
        orbit = orbit_detect(f, p)
        cert = assemble_certificate(CAT["f2"], p, T=1000)
        expected_height = p * (p * p - 1) // 2
        ok = (
            (orbit.preperiod, orbit.period) == (1, 1)
            and orbit.level == 2
            and cert.level == 2
            and cert.verified_to >= 1000
            and cert.height == expected_height
            and cert.height <= 2 * 8 * p**4
        )
        if not ok:
            bad.append((p, orbit, cert.height))
        details.append(f"p={p}: orbit=(1,1), l=2, height={cert.height}")
    report(5, "full assembly for f2 at p in {3,5}", not bad, str(bad) if bad else "; ".join(details))


def test_criterion_6_split_oracle_equivalence():
    bad = []
    for name in ("f1", "f2"):
        for p in (3, 5):
            f = series_mod_p(CAT[name], p, 200)
            a = split_pade(f, 1, p)
            b = split_elimination(f, 1, p, normalize=False)
            c0 = b.P.eval(GF(p).zero)
            scalar_equal = c0 % p != 0 and b.P == a.P.scale(c0)
            if not scalar_equal:
                bad.append((name, p))
    report(6, "split_pade and split_elimination agree up to a scalar, T = 200", not bad, str(bad))


def test_criterion_7_operator_analysis():
    bad = []
    L7 = CAT["f2"].operator
    La = CAT["apery"].operator
    L2 = hypergeometric_fr_operator(2)
    L3 = hypergeometric_fr_operator(3)
    for L, n in ((L7, 2), (La, 3), (L2, 2), (L3, 3)):
        if not is_mom(L):
            bad.append(("mom", n))
        if indicial_at_zero(L) != Poly.x(QQ) ** n:
            bad.append(("indicial", n))
    gp7 = good_primes(L7, 20)
    if 2 in gp7 or gp7 != [3, 5, 7, 11, 13, 17, 19]:
        bad.append(("good_primes_2f1", gp7))
    gpa = good_primes(La, 20)
    if 2 in gpa or 3 in gpa or gpa != [5, 7, 11, 13, 17, 19]:
        bad.append(("good_primes_apery", gpa))
    for L, tag in ((L7, "2f1"), (La, "apery"), (L2, "L2"), (L3, "L3")):
        for p in good_primes(L, 7):
            _, nil = p_curvature(reduce_op_mod_p(L, p))
            if not nil:
                bad.append(("curvature", tag, p))
    report(7, "MOM/indicial/good-prime/p-curvature analysis", not bad, str(bad))


def test_criterion_8_frobenius_shadow():
    bad = []
    T = 243
    f = series_over_q(CAT["f2"], T)
    for p in (3, 5):
        shadow = frobenius_shadow(CAT["f2"].operator, p, T)
        n = 2
        y0_ok = all(
            shadow.Y[i][j][0] == Fraction(1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )
        f0_ok = (
            shadow.F[0][1][0] == Fraction(1, p)
            and shadow.F[0][0][0] == 0
            and shadow.F[1][0][0] == 0
            and shadow.F[1][1][0] == 0
        )
        residual = cartier_row_residual(shadow, f, order=T // p - 2)
        if not (y0_ok and f0_ok and residual.is_zero()):
            bad.append((p, y0_ok, f0_ok))
    report(8, "weak Frobenius shadow at p in {3,5}, T = 243", not bad, str(bad))


# -- criterion 9: randomized property suites, 1000 instances each, fixed seeds ------


def _rand_fp_series(rng, field, T):
    return TruncSeries(field, [rng.randrange(field.p) for _ in range(T)])


def test_criterion_9a_section_decomposition():
    rng = random.Random(0xC0FFEE)
    failures = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        field = GF(p)
        T = rng.randrange(8, 40)
        f = _rand_fp_series(rng, field, T)
        acc = TruncSeries.zero(field, T)
        for r in range(p):
            section = f.cartier(p, r)
            lifted = section.compose_power(p, 1, out_len=max(T - r, 0))
            padded = TruncSeries(field, (0,) * r + lifted.coeffs)
            acc = acc + padded.truncate(T)
        if not acc.eq_to_order(f, T):
            failures += 1
    report(9, "property: section decomposition (1000 runs)", failures == 0, f"failures={failures}")


def test_criterion_9b_cartier_delta_commutation():
    rng = random.Random(0xBEEF)
    failures = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        T = rng.randrange(10, 50)
        f = q_series([Fraction(rng.randrange(-9, 10)) for _ in range(T)])
        lhs = f.delta().cartier(p, 0)
        rhs = f.cartier(p, 0).delta().scale(p)
        if not lhs.eq_to_order(rhs):
            failures += 1
    report(9, "property: Lambda_p after delta = p delta after Lambda_p (1000 runs)",
           failures == 0, f"failures={failures}")


def test_criterion_9c_frobenius_power():
    rng = random.Random(0xFEED)
    failures = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        field = GF(p)
        T = rng.randrange(6, 28)
        f = _rand_fp_series(rng, field, T)
        if not (f**p).eq_to_order(f.compose_power(p, 1), T):
            failures += 1
    report(9, "property: f^p = f(z^p) over F_p (1000 runs)", failures == 0, f"failures={failures}")


def test_criterion_9d_height_subadditivity():
    rng = random.Random(0xABCD)
    failures = 0
    field = GF(7)
    for _ in range(1000):
        def rand_poly(nonzero=False):
            deg = rng.randrange(6)
            p = Poly(field, [rng.randrange(7) for _ in range(deg + 1)])
            return Poly.one(field) if nonzero and p.is_zero() else p
        a = RatFun(rand_poly(), rand_poly(nonzero=True))
        b = RatFun(rand_poly(), rand_poly(nonzero=True))
        if (a * b).height > a.height + b.height:
            failures += 1
    report(9, "property: height subadditivity (1000 runs)", failures == 0, f"failures={failures}")


def test_criterion_9e_gcd_divisibility():
    rng = random.Random(0xD1CE)
    failures = 0
    for _ in range(1000):
        field = GF(5) if rng.random() < 0.5 else QQ
        def rand_poly(max_deg):
            deg = rng.randrange(max_deg + 1)
            if field == QQ:
                cs = [Fraction(rng.randrange(-5, 6)) for _ in range(deg + 1)]
            else:
                cs = [rng.randrange(5) for _ in range(deg + 1)]
            return Poly(field, cs)
        common = rand_poly(2)
        a = rand_poly(4) * common
        b = rand_poly(4) * common
        g = a.gcd(b)
        if a.is_zero() and b.is_zero():
            if not g.is_zero():
                failures += 1
            continue
        if not a.is_zero() and not (a % g).is_zero():
            failures += 1
        if not b.is_zero() and not (b % g).is_zero():
            failures += 1
        if not common.is_zero() and not (g % common.monic()).is_zero():
            failures += 1
    report(9, "property: gcd divides and is divided (1000 runs)", failures == 0, f"failures={failures}")
