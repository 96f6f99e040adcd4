import random
from fractions import Fraction

import pytest

from lucascert import (
    GF,
    QQ,
    BadPrime,
    BudgetExceeded,
    NoCycleFound,
    NotSeriesExpandable,
    Poly,
    RatFun,
    ReconstructionFailed,
    SylvesterSingular,
    TruncSeries,
    assemble_certificate,
    cartier_row_residual,
    certificate_from_json,
    certificate_prop62,
    classify_evidence,
    companion,
    default_catalog,
    diffop_from_polys,
    frobenius_shadow,
    gen_terms,
    hypergeometric_fr_operator,
    iterate_certificates,
    orbit_detect,
    pade_ratio,
    q_series,
    ratfun_series,
    recurrence_from,
    reduce_series_mod_p,
    series_mod_p,
    series_over_q,
    split_elimination,
    split_pade,
    to_delta,
    verify_certificate,
)
from lucascert import certify
from lucascert.certify import MAX_T, pade_kernel
from lucascert.linalg import mat_add, mat_mul
from test_series import series_inverse

CAT = default_catalog()


def truncation(name, p):
    """p-truncation of a catalog series mod p (independent of the split code)."""
    f = series_mod_p(CAT[name], p, p)
    return f.poly()


def check_split(f_p, P, p, T):
    """Brute-force witness check: f * P^{-1} supported on multiples of p."""
    q = f_p * series_inverse(TruncSeries.from_poly(P, len(f_p)))
    return all(not c for m, c in enumerate(q.coeffs[:T]) if m % p)


# -- splitting ----------------------------------------------------------------------


def test_split_pade_f1_mod_3():
    f = series_mod_p(CAT["f1"], 3, 200)
    w = split_pade(f, 1, 3)
    assert w.P == Poly(GF(3), [1, 1])  # the 3-truncation: f1 is 3-Lucas
    assert w.degree_bound == 2
    assert check_split(f, w.P, 3, 100)


def test_split_constant_one():
    f = TruncSeries.one(GF(5), 60)
    w = split_pade(f, 1, 5)
    assert w.P == Poly.one(GF(5))


def test_split_pade_f2_mod_3_reveals_truncation_and_cofactor():
    f2 = series_mod_p(CAT["f2"], 3, 300)
    f1 = series_mod_p(CAT["f1"], 3, 100)
    w = split_pade(f2, 1, 3)
    assert w.P == truncation("f2", 3) == Poly(GF(3), [1, 2])
    # cofactor c = Lambda_3(f2|3) / P_0 with P_0 = 1: equals f1|3
    c = f2.cartier(3, 0)
    assert c.eq_to_order(f1, len(c))


def test_split_pade_length_message_names_the_true_minimum():
    # section 0 needs 2d terms: (2d - 1) p + 1 = 112 coefficients at d = 2, p = 37
    with pytest.raises(ReconstructionFailed, match="need at least 112 series coefficients"):
        split_pade(series_mod_p(CAT["apery"], 37, 111), 2, 37)
    w = split_pade(series_mod_p(CAT["apery"], 37, 112), 2, 37)
    assert w.P == truncation("apery", 37)  # the Apery numbers are 37-Lucas


def test_split_elimination_agrees_up_to_scalar():
    for name, p in (("f1", 3), ("f1", 5)):
        f = series_mod_p(CAT[name], p, 260)
        a = split_pade(f, 1, p)
        b = split_elimination(f, 1, p)
        # both normalized to P(0) = 1, so agreement is literal here
        assert a.P == b.P, (name, p)


def test_split_elimination_strips_zp_blocks():
    p = 3
    h = series_mod_p(CAT["f1"], p, 200)
    lifted = TruncSeries(GF(p), (0,) * p + h.coeffs[: len(h) - p])
    w = split_elimination(lifted, 1, p)
    assert w.P == split_elimination(h, 1, p).P


def test_split_f2_mod_5():
    f = series_mod_p(CAT["f2"], 5, 400)
    w = split_pade(f, 1, 5)
    assert w.P == truncation("f2", 5)
    w2 = split_elimination(f, 1, 5)
    assert w2.P == w.P


def test_split_larger_span_gives_same_witness():
    # passing the Fuchsian fallback d = n*r = 4 still recovers the minimal P
    f = series_mod_p(CAT["f2"], 3, 300)
    w = split_pade(f, 4, 3)
    assert w.P == Poly(GF(3), [1, 2])


def test_split_needs_nonzero_constant_term():
    f = TruncSeries(GF(3), [0, 1] + [0] * 50)
    with pytest.raises(ReconstructionFailed):
        split_pade(f, 1, 3)


def _pade_outcome(route, num, den, D):
    try:
        return route(num, den, D)
    except ReconstructionFailed:
        return "no relation"


@pytest.mark.parametrize("p", [3, 5, 37, 2**31 - 1])
def test_pade_euclid_matches_dense_kernel(p):
    # random F_p series with and without a planted relation num/den = u/v, where
    # u and v may share a factor and u may be zero
    rng = random.Random(p)
    F = GF(p)

    def rand_poly(deg, unit_at_zero=False):
        cs = [rng.randrange(p) for _ in range(deg + 1)]
        if unit_at_zero and cs[0] == 0:
            cs[0] = 1
        return Poly(F, cs)

    outcomes = set()
    for D in (0, 1, 2, 5):
        for T in range(2 * D + 1, 3 * D + 13):
            for planted in (True, False):
                den = TruncSeries(F, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(T - 1)])
                if planted:
                    u, v = rand_poly(rng.randrange(D + 1)), rand_poly(rng.randrange(D + 1), unit_at_zero=True)
                    num = den.mul_poly(u).div_poly(v)
                else:
                    num = TruncSeries(F, [rng.randrange(p) for _ in range(T)])
                want = _pade_outcome(pade_kernel, num, den, D)
                assert _pade_outcome(certify.pade_ratio, num, den, D) == want, (p, D, T, planted)
                outcomes.add(want == "no relation")
    assert outcomes == {True, False}


def test_pade_euclid_keeps_degenerate_kernel_solutions():
    # every solution of degree <= 1 to order 6 vanishes at 0, here (z, z): both routes
    # return the reduced ratio (1, 1), which agrees with num/den only to order 5
    F = GF(5)
    num = TruncSeries(F, [1, 0, 0, 0, 0, 1])
    den = TruncSeries.one(F, 6)
    assert pade_kernel(num, den, 1) == pade_ratio(num, den, 1) == (Poly.one(F), Poly.one(F))
    with pytest.raises(ReconstructionFailed) as exc:
        pade_ratio(num, den, 0)
    assert exc.value.index == 5


def test_pade_ratio_preconditions():
    F = GF(7)
    one = TruncSeries.one(F, 10)
    with pytest.raises(ValueError, match="den"):
        pade_ratio(one, TruncSeries(F, [0, 1] + [0] * 8), 1)
    with pytest.raises(ValueError, match="order"):
        pade_ratio(one, one, 5)  # T = 10 < 2D + 1 = 11
    assert pade_ratio(TruncSeries.one(F, 11), TruncSeries.one(F, 11), 5) == (Poly.one(F), Poly.one(F))


def test_split_names_the_changed_coefficient():
    # apery|37 with one coefficient changed at m: the split fails at m when p does
    # not divide m, later when it does.  A change among the first 2d coefficients of
    # a section (d = span) moves the reconstructed relation, which then fails later.
    p, T = 37, 37 * 40
    f = series_mod_p(CAT["apery"], p, T)
    d = recurrence_from(CAT["apery"].operator).span
    assert split_pade(f, d, p).P.degree() <= p * d - 1
    for m in (5, 37, 4 * p + 1, 5 * p, 10 * p + 7, 20 * p, 500, T - 1):
        cs = list(f.coeffs)
        cs[m] = (cs[m] + 1) % p
        changed = TruncSeries(GF(p), cs)
        routes = [split_pade] + ([split_elimination] if m >= p * (2 * d + 1) else [])
        for route in routes:
            with pytest.raises(ReconstructionFailed) as exc:
                route(changed, d, p)
            if m % p and m >= 2 * d * p:
                assert exc.value.index == m and str(m) in str(exc.value), (route, m)
            else:
                assert exc.value.index >= m, (route, m, exc.value)


# -- one-step certificates ---------------------------------------------------------------


def test_prop62_f1_p3():
    f = series_mod_p(CAT["f1"], 3, 300)
    cert = certificate_prop62(f, 2, 2, 3)
    assert cert.A == RatFun.from_poly(Poly(GF(3), [1, 1]))
    assert cert.height == 1
    assert cert.bound == 2 * 2 * 3 - 1 == 11
    assert cert.bound_kind == "prop62_bound"


def test_prop62_f2_p3_verified_to_300():
    f = series_mod_p(CAT["f2"], 3, 300)
    cert = certificate_prop62(f, 2, 2, 3)
    assert cert.A == RatFun.from_poly(truncation("f2", 3))
    assert cert.height <= 11
    assert cert.verified_to == 300
    # direct check: f2|3 = P_{2,3} * (f1|3)^3 with Lambda_3 f2|3 = f1|3
    f1 = series_mod_p(CAT["f1"], 3, 300)
    rhs = f1.compose_power(3, 1, out_len=300).mul_poly(cert.A.num)
    assert f.eq_to_order(rhs, 300)


def test_prop62_apery_p5():
    f = series_mod_p(CAT["apery"], 5, 400)
    cert = certificate_prop62(f, 3, 3, 5, span=2)
    assert cert.A == RatFun.from_poly(truncation("apery", 5))
    assert cert.height == 4
    assert cert.bound == 3 * 3 * 5 - 1 == 44


def test_prop62_span_cannot_exceed_fallback():
    f = series_mod_p(CAT["f2"], 3, 300)
    with pytest.raises(ValueError):
        certificate_prop62(f, 2, 2, 3, span=5)


# -- iteration ---------------------------------------------------------------------------


def test_iterate_base_case():
    f = series_mod_p(CAT["f2"], 3, 200)
    A = iterate_certificates(f, 0, 0, 3, 2, 2, span=1)
    assert A == RatFun.one(GF(3))


def test_iterate_one_step_f2():
    f = series_mod_p(CAT["f2"], 3, 400)
    A = iterate_certificates(f, 0, 1, 3, 2, 2, span=1)
    assert A == RatFun.from_poly(truncation("f2", 3))
    assert A.height <= 2 * 2 * 2 * 3


def test_iterate_two_steps_f2_p3():
    f = series_mod_p(CAT["f2"], 3, 500)
    A = iterate_certificates(f, 0, 2, 3, 2, 2, span=1)
    P13, P23 = truncation("f1", 3), truncation("f2", 3)
    expected = RatFun.from_poly(P23 * P13**3)
    assert A == expected
    assert A.height == 4
    assert A.height <= 2 * 2 * 2 * 9


def test_iterate_telescoping():
    # A_{0,m+1} = A_{0,m} * (step at Lambda^m f)^(p^m) as reduced fractions
    p = 3
    f = series_mod_p(CAT["f2"], p, 600)
    for m in range(2):
        Am = iterate_certificates(f, 0, m, p, 2, 2, span=1)
        Am1 = iterate_certificates(f, 0, m + 1, p, 2, 2, span=1)
        g = f
        for _ in range(m):
            g = g.cartier(p, 0)
        step = certificate_prop62(g, 2, 2, p, span=1)
        assert Am1 == Am * step.A ** (p**m)


# -- orbit detection ------------------------------------------------------------------------


def test_orbit_f1_fixed_point():
    f = series_mod_p(CAT["f1"], 3, 400)
    rep = orbit_detect(f, 3)
    assert (rep.preperiod, rep.period, rep.level) == (0, 1, 1)


def test_orbit_f2_preperiod_one():
    for p in (3, 5):
        f = series_mod_p(CAT["f2"], p, 900)
        rep = orbit_detect(f, p)
        assert (rep.preperiod, rep.period, rep.level) == (1, 1, 2), p


def test_orbit_coherence():
    # Lambda^level f = Lambda^(2 level) f to the available order
    for name, p, T in (("f1", 3, 700), ("f2", 3, 900), ("apery", 5, 900)):
        f = series_mod_p(CAT[name], p, T)
        rep = orbit_detect(f, p)
        g = f
        for _ in range(rep.level):
            g = g.cartier(p, 0)
        h = g
        for _ in range(rep.level):
            h = h.cartier(p, 0)
        assert g.eq_to_order(h, min(len(g), len(h)))


def test_orbit_cy_series_fixed_points():
    for p in (3, 5):
        terms = gen_terms(CAT["cy210"], 160)
        f = reduce_series_mod_p(q_series(terms), p)
        rep = orbit_detect(f, p, min_length=30)
        assert (rep.preperiod, rep.period) == (0, 1), p


def test_orbit_no_cycle_reports():
    # a series with essentially random digits has no short orbit
    import random

    rng = random.Random(1)
    f = TruncSeries(GF(3), [1] + [rng.randrange(3) for _ in range(399)])
    with pytest.raises(NoCycleFound):
        orbit_detect(f, 3, max_steps=4)


def test_no_cycle_names_iterate_lengths_and_min_length():
    # 64 terms at p = 3: the next iterate (22 terms) is below min length 32
    with pytest.raises(NoCycleFound, match=r"lengths \[64\] \(min length 32, at most 6 steps\)"):
        assemble_certificate(CAT["g1"], 3, T=64)


# -- assembly --------------------------------------------------------------------------------


def test_assemble_f1_p3_l_bound():
    cert = assemble_certificate(CAT["f1"], 3, T=600)
    assert cert.level == 1
    assert cert.A == RatFun.from_poly(Poly(GF(3), [1, 1]))
    assert cert.bound_kind == "L_bound"
    assert cert.height <= 2 * 2 * 2 * 3


def test_assemble_f2_p3_matches_telescoped_product():
    cert = assemble_certificate(CAT["f2"], 3, T=1000)
    assert cert.level == 2
    assert cert.bound_kind == "L2_bound"
    # brute-force expected value: B_1 = P1^(3+9) / P2^8 reduced
    P13, P23 = truncation("f1", 3), truncation("f2", 3)
    expected = RatFun(P13**12, P23**8)
    assert cert.A == expected
    assert cert.height == expected.height == 12  # (p/2)(p^2 - 1) at p = 3
    assert cert.bound == 2 * 8 * 3**4


def test_assemble_apery_p5():
    cert = assemble_certificate(CAT["apery"], 5, T=700)
    assert cert.level == 1
    assert cert.height == 4
    assert cert.bound_kind == "L_bound"


def test_assemble_f3_same_height_law():
    # the cube family telescopes identically: A = P_g3^(p+p^2) / P_f3^(p^2-1)
    # reduced, with height (p/2)(p^2-1)
    for p in (3, 5):
        cert = assemble_certificate(CAT["f3"], p, T=900)
        Pg = truncation("g3", p)
        Pf = truncation("f3", p)
        expected = RatFun(Pg ** (p + p * p), Pf ** (p * p - 1))
        assert cert.level == 2
        assert cert.A == expected
        assert cert.height == p * (p * p - 1) // 2


def test_assemble_adaptive_order():
    # with T omitted the order is grown until the orbit is visible and then
    # sized from the height bound (regression: p = 5 needs more than 512)
    cert = assemble_certificate(CAT["f2"], 5, T=None)
    assert cert.level == 2
    assert cert.height == 60
    assert cert.verified_to >= 2 * cert.bound


def test_assemble_rejects_bad_prime():
    with pytest.raises(BadPrime):
        assemble_certificate(CAT["f2"], 2, T=300)
    with pytest.raises(BadPrime):
        assemble_certificate(CAT["apery"], 3, T=300)
    with pytest.raises(BadPrime):
        assemble_certificate(CAT["cy210"], 3, T=300)  # no operator shipped
    with pytest.raises(BadPrime):
        assemble_certificate(CAT["f2"], 9, T=300)  # not prime


def test_assemble_auto_T_for_f2_at_11_is_within_budget(monkeypatch):
    # the probe settles the orbit and the final order is 2 * 2C p^4 + 16 (C = 8),
    # under MAX_T; the final expansion itself (about 7 s) is not run here
    asked = []

    class Stop(Exception):
        pass

    def record(g, p, T):
        asked.append(T)
        if T > 10**5:
            raise Stop
        return series_mod_p(g, p, T)

    monkeypatch.setattr(certify, "series_mod_p", record)
    with pytest.raises(Stop):
        assemble_certificate(CAT["f2"], 11)
    assert asked[-1] == 2 * 2 * 8 * 11**4 + 16 == 468528 <= MAX_T


def _record_series_mod_p(monkeypatch):
    asked = []

    def record(g, p, T):
        asked.append(T)
        return series_mod_p(g, p, T)

    monkeypatch.setattr(certify, "series_mod_p", record)
    return asked


def test_assemble_auto_T_for_apery_at_37_is_the_level_one_split(monkeypatch):
    # the first probe is the A_{l,l} split's 3 p^2 + 1 terms (span 2, level >= 1); the
    # orbit shows there at level 1 and no other stage needs more, so it is the final T
    asked = _record_series_mod_p(monkeypatch)
    cert = assemble_certificate(CAT["apery"], 37)
    assert asked == [3 * 37**2 + 1] == [4108]
    assert (cert.level, cert.height, cert.verified_to) == (1, 36, 4108)
    monkeypatch.undo()
    assert cert.A == assemble_certificate(CAT["apery"], 37, T=18944).A
    # the Q route reduced mod p, not the certify route that built the certificate
    assert verify_certificate(cert, reduce_series_mod_p(series_over_q(CAT["apery"], 4108), 37))


def test_assemble_auto_T_probes_one_more_iterate_at_a_time(monkeypatch):
    # at p = 5 the 512-term probe has one iterate of >= 32 terms and finds no orbit; the next
    # probe gives a second one, 31 * 5^2 + 1 = 776 terms, and shows the orbit at level 2;
    # the height bound 2C p^4 (C = 8) then sets T = 2 * 10000 + 16
    asked = _record_series_mod_p(monkeypatch)
    cert = assemble_certificate(CAT["f2"], 5)
    assert asked == [512, 776, 20016]
    assert (cert.level, cert.height, cert.verified_to) == (2, 60, 20016)


@pytest.mark.parametrize("name, p, T", [("apery", 1009, 3 * 1009**2 + 1), ("f2", 1000003, 1000003**2 + 1)])
def test_assemble_auto_T_over_budget_expands_nothing(monkeypatch, name, p, T):
    # the level-1 split's need is known before any expansion and is past MAX_T
    asked = _record_series_mod_p(monkeypatch)
    with pytest.raises(BudgetExceeded, match=rf"T = {T} series terms \(A_{{l,l}} split at level 1\), "
                                             rf"above the budget MAX_T = {MAX_T}"):
        assemble_certificate(CAT[name], p)
    assert asked == []


def test_assemble_auto_T_covers_the_all_split():
    # at p = 521 A_{l,l} splits Lambda f, which needs (2d - 1) p + 1 = 522 of its terms
    # (span d = 1): T = p^2 + 1, the first probe, where the orbit shows
    cert = assemble_certificate(CAT["g2"], 521)
    assert (cert.level, cert.height, cert.verified_to) == (1, 260, 521**2 + 1)


def test_assemble_explicit_T_below_the_all_split_names_the_T_needed():
    with pytest.raises(ReconstructionFailed, match="needs T >= 1370 series terms, got T = 1200"):
        assemble_certificate(CAT["g2"], 37, T=1200)


def test_certificate_soundness_independent_reverify():
    # re-verify emitted certificates against freshly expanded series
    for name, p, T in (("f1", 3, 500), ("f2", 3, 800), ("f2", 5, 800), ("apery", 5, 600)):
        cert = assemble_certificate(CAT[name], p, T=T)
        # from the Q route, not the Lucas-digit route that built the certificate
        fresh = reduce_series_mod_p(series_over_q(CAT[name], T), p)
        assert verify_certificate(cert, fresh), (name, p)
        # JSON round trip preserves verifiability
        back = certificate_from_json(cert.to_json())
        assert back.A == cert.A
        assert verify_certificate(back, fresh)


def test_split_consistency_across_catalog():
    # pade and elimination splits agree up to a scalar on catalog entries
    # (every operator-backed entry, at its good primes among {3, 5})
    jobs = [
        (name, p)
        for name in ("g1", "g2", "g3", "f1", "f2", "f3", "apery")
        for p in (3, 5)
        if p in __import__("lucascert").good_primes(CAT[name].operator, 5)
    ]
    for name, p in jobs:
        entry = CAT[name]
        from lucascert import recurrence_from

        span = recurrence_from(entry.operator).span
        f = series_mod_p(entry, p, 260 * (2 if span > 1 else 1))
        a = split_pade(f, span, p)
        b = split_elimination(f, span, p)
        field = f.field
        # both are normalized to value 1 at 0 so the scalar is 1; check the
        # scalar-agreement contract on the unnormalized route too
        assert a.P == b.P, (name, p)
        raw = split_elimination(f, span, p, normalize=False)
        c0 = raw.P.eval(field.zero)
        assert raw.P == a.P.scale(c0), (name, p)


# -- evidence classification -------------------------------------------------------------------


def test_classify_f1_consistent_with_l_bound():
    certs = [assemble_certificate(CAT["f1"], p, T=600) for p in (3, 5, 7)]
    report = classify_evidence(certs)
    assert report["verdict"] == "L(S)-consistent"
    heights = [row["height"] for row in report["rows"]]
    assert heights == [(p - 1) // 2 for p in (3, 5, 7)]


def test_classify_f2_l2_only():
    # T must keep the second iterate >= 32 terms for orbit detection and the
    # third iterate long enough for its one-step split: T >= 14 p^3 covers both
    certs = [assemble_certificate(CAT["f2"], p, T=max(1000, 14 * p**3)) for p in (3, 5, 7)]
    report = classify_evidence(certs)
    assert report["verdict"] == "L2-only-consistent"
    heights = [row["height"] for row in report["rows"]]
    assert heights == [p * (p**2 - 1) // 2 for p in (3, 5, 7)]


def test_classify_exact_height_law_all_levels():
    # reduced height of P1^(p+...+p^(k+1)) / P2^(p^(k+1)-1) is (p/2)(p^(k+1)-1)
    for p in (3, 5, 7):
        P1, P2 = truncation("f1", p), truncation("f2", p)
        for k in range(3):
            exp_num = sum(p**j for j in range(1, k + 2))
            B = RatFun(P1**exp_num, P2 ** (p ** (k + 1) - 1))
            assert B.height == p * (p ** (k + 1) - 1) // 2, (p, k)


def test_classify_single_prime_insufficient():
    cert = assemble_certificate(CAT["f1"], 3, T=500)
    assert classify_evidence([cert])["verdict"] == "insufficient data"


# -- weak Frobenius shadow ----------------------------------------------------------------------


def test_shadow_2f1_f0():
    sh = frobenius_shadow(CAT["f2"].operator, 3, 120)
    F0 = [[sh.F[i][j][0] for j in range(2)] for i in range(2)]
    assert F0 == [[0, Fraction(1, 3)], [0, 0]]


def test_shadow_order_one():
    # delta: solutions are constants, Y = 1, F = 0
    from lucascert import diffop_from_polys

    L = diffop_from_polys(QQ, "delta", [[], [1]])
    sh = frobenius_shadow(L, 3, 60)
    assert sh.Y[0][0].eq_to_order(TruncSeries.one(QQ, 60))
    assert sh.F[0][0].is_zero()


def test_shadow_first_column_is_solution_vector():
    T = 120
    f = series_over_q(CAT["f2"], T)
    sh = frobenius_shadow(CAT["f2"].operator, 3, T)
    assert sh.Y[0][0].eq_to_order(f, T)
    assert sh.Y[1][0].eq_to_order(f.delta(), T)


def test_shadow_last_row_annihilates_cartier_vector():
    for name, p, T in (("f2", 3, 150), ("f2", 5, 150), ("apery", 5, 150)):
        entry = CAT[name]
        f = series_over_q(entry, T)
        sh = frobenius_shadow(entry.operator, p, T, solution=f)
        res = cartier_row_residual(sh, f, order=T // p - 2)
        assert res.is_zero(), (name, p)


def test_shadow_y_constant_term_identity():
    sh = frobenius_shadow(CAT["apery"].operator, 3, 60)
    n = 3
    for i in range(n):
        for j in range(n):
            expected = Fraction(1 if i == j else 0)
            assert sh.Y[i][j][0] == expected


def _neumann_solve(rhs, G0, m):
    """Solve (m - ad_G0) Y = rhs by the finite Neumann series sum_k ad_G0^k rhs / m^(k+1)."""
    acc, term = rhs, rhs
    for k in range(1, 2 * len(G0)):  # ad_G0^(2n-1) = 0 for nilpotent G0
        term = mat_add(mat_mul(G0, term), [[-v for v in row] for row in mat_mul(term, G0)])
        acc = mat_add(acc, [[v / m**k for v in row] for row in term])
    return [[v / m for v in row] for row in acc]


def _y_oracle(L, T):
    """Y by the O(T^2) route: convolve the whole series G = M/den with every earlier Y_m."""
    Ld = to_delta(L)
    n = Ld.order
    den, M = companion(Ld)
    row = [ratfun_series(RatFun(m, den), T) for m in M[n - 1]]
    G = [[[Fraction(int(k == 0 and j == i + 1)) for j in range(n)] for i in range(n - 1)]
         + [[row[j][k] for j in range(n)]] for k in range(T)]
    Y = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    for m in range(1, T):
        rhs = [[Fraction(0)] * n for _ in range(n)]
        for k in range(1, m + 1):
            rhs = mat_add(rhs, mat_mul(G[k], Y[m - k]))
        Y.append(_neumann_solve(rhs, G[0], m))
    return Y, G[0]


def _assert_shadow_matches_oracle(L, p, T):
    sh = frobenius_shadow(L, p, T)
    Y, G0 = _y_oracle(L, T)
    n = len(Y[0])
    assert [[list(sh.Y[i][j].coeffs) for j in range(n)] for i in range(n)] == [
        [[Y[m][i][j] for m in range(T)] for j in range(n)] for i in range(n)
    ]
    # F (Lambda_p Y) = delta(Lambda_p Y) + (1/p) Lambda_p(Y) G(0) to the length of F
    Tp = len(sh.F[0][0])
    LY = [[TruncSeries(QQ, [Y[m][i][j] for m in range(T)]).cartier(p, 0).truncate(Tp)
           for j in range(n)] for i in range(n)]
    G0p = [[TruncSeries(QQ, [v / p] + [0] * (Tp - 1)) for v in row] for row in G0]
    lhs = mat_mul([list(row) for row in sh.F], LY)
    rhs = mat_add([[s.delta() for s in row] for row in LY], mat_mul(LY, G0p))
    for i in range(n):
        for j in range(n):
            assert lhs[i][j].eq_to_order(rhs[i][j], Tp), (i, j)


@pytest.mark.parametrize(
    "name,p,T",
    [("f2", 3, 120), ("f2", 5, 120), ("g2", 3, 120), ("g3", 5, 100), ("f3", 7, 98),
     ("apery", 3, 60), ("apery", 5, 100), ("fr4", 5, 60)],
)
def test_shadow_recurrence_matches_convolution_oracle(name, p, T):
    L = hypergeometric_fr_operator(4) if name == "fr4" else CAT[name].operator
    _assert_shadow_matches_oracle(L, p, T)


def test_shadow_common_power_of_z_divided_out():
    # z(1 - z) delta^2 + z^2 delta + z^2: den(0) = 0 until z is divided out
    L = diffop_from_polys(QQ, "delta", [[0, 0, 1], [0, 0, 1], [0, 1, -1]])
    _assert_shadow_matches_oracle(L, 3, 60)
    y00 = frobenius_shadow(L, 3, 8).Y[0][0]
    assert [y00[m] for m in range(4)] == [1, -1, Fraction(1, 4), Fraction(1, 36)]


def test_shadow_leading_constant_not_one():
    # g3's operator with leading polynomial 3(1 - 64z): den(0) = 3
    L = diffop_from_polys(QQ, "delta", [[0, -8], [0, -48], [0, -96], [3, -192]])
    _assert_shadow_matches_oracle(L, 5, 80)


def test_shadow_errors():
    with pytest.raises(SylvesterSingular, match="not MOM"):
        frobenius_shadow(diffop_from_polys(QQ, "delta", [[-1], [0], [1]]), 3, 30)
    with pytest.raises(NotSeriesExpandable, match="pole at 0"):
        frobenius_shadow(diffop_from_polys(QQ, "delta", [[1], [1], [0, 1]]), 3, 30)
    for T in (0, -1):
        with pytest.raises(ValueError, match="T must be >= 1"):
            frobenius_shadow(CAT["f2"].operator, 3, T)
