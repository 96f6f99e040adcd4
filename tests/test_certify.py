import random
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest

from lucascert import (
    GF,
    QQ,
    BadPrime,
    BudgetExceeded,
    DiffOp,
    NoCycleFound,
    NotSeriesExpandable,
    ParseError,
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
    good_primes,
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


def test_split_names_an_index_for_every_change_in_the_prefix():
    # split_pade reads the first 2dp coefficients; a change at any of them must be
    # reported with an int index at or past the change, never with index None
    p, T = 37, 37 * 40
    f = series_mod_p(CAT["apery"], p, T)
    d = recurrence_from(CAT["apery"].operator).span
    for m in range(2 * d * p):
        cs = list(f.coeffs)
        cs[m] = (cs[m] + 1) % p
        with pytest.raises(ReconstructionFailed) as exc:
            split_pade(TruncSeries(GF(p), cs), d, p)
        assert isinstance(exc.value.index, int) and m <= exc.value.index < T, (m, exc.value)


def test_split_pade_failures_in_the_prefix_name_the_last_index_read():
    F, p = GF(5), 5
    # section 2 of 1 + z^7 is (0, 1): no relation of degree 0 in its first 2 terms,
    # which end at index (2d - 1) p + 2 = 7, where the split's one check fails
    with pytest.raises(ReconstructionFailed, match=r"not a series in z\^p \(index 7\)") as exc:
        split_pade(TruncSeries(F, [1] + [0] * 6 + [1] + [0] * 22), 1, p)
    assert exc.value.index == 7
    # sections 1 and 2 are 1/(1 - z) and 1/(1 - 2z) times section 0: each ratio has
    # degree <= d - 1 = 1, but their lcm has degree 2, so no split of span 2 agrees
    # with f up to the end of the 2dp-term prefix
    s0 = TruncSeries(F, [1, 3, 4, 1, 2, 0, 3, 1])
    sections = [s0, s0.div_poly(Poly(F, [1, -1])), s0.div_poly(Poly(F, [1, -2])), s0, s0]
    f = TruncSeries(F, [sections[m % p][m // p] for m in range(8 * p)])
    with pytest.raises(ReconstructionFailed, match="denominators exceed the span bound") as exc:
        split_pade(f, 2, p)
    assert exc.value.index == 2 * 2 * p - 1


def _planted_split(rng, F, p, d):
    """A random P with sections of degree <= d - 1, P(0) != 0 and no common factor."""
    while True:
        sections = [Poly(F, [rng.randrange(p) for _ in range(d)]) for _ in range(p)]
        if sections[0][0] and reduce(Poly.gcd, sections).degree() == 0:
            return reduce(add, (q.compose_power(p).shift(r) for r, q in enumerate(sections) if q))


@pytest.mark.parametrize("p", [2, 3, 5, 37, 101])
def test_split_pade_recovers_planted_splits_and_names_every_failure(p):
    rng, F = random.Random(p), GF(p)
    for d in (1, 2, 3):
        for T in ((2 * d - 1) * p + 1, 2 * d * p, 3 * d * p + 7):
            P = _planted_split(rng, F, p, d)
            c = TruncSeries(F, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(-(-T // p) - 1)])
            f = c.compose_power(p, 1, out_len=T).mul_poly(P)
            assert split_pade(f, d, p).P == P.scale(F.inv(P[0])), (p, d, T)
        T, failed = 3 * d * p + 7, 0
        for _ in range(20):
            f = TruncSeries(F, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(T - 1)])
            try:
                w = split_pade(f, d, p)
            except ReconstructionFailed as exc:
                assert isinstance(exc.index, int) and 0 <= exc.index < T, (p, d, exc)
                failed += 1
            else:
                assert check_split(f, w.P, p, T)  # a random series that happens to split
        assert failed >= 15, (p, d)


@pytest.mark.parametrize("p", [3, 5, 37])
def test_split_pade_at_span_1_reads_no_ratio_and_names_each_changed_index(monkeypatch, p):
    rng, F, calls = random.Random(p), GF(p), []
    monkeypatch.setattr(certify, "pade_ratio", lambda *args: calls.append(args) or pade_ratio(*args))
    P = _planted_split(rng, F, p, 1)
    c = TruncSeries(F, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(5)])
    f = c.compose_power(p, 1, out_len=6 * p).mul_poly(P)
    assert split_pade(f, 1, p).P == P.scale(F.inv(P[0]))
    for m in range(p, 2 * p):
        g = TruncSeries(F, f.coeffs[:m] + ((f[m] + 1) % p,) + f.coeffs[m + 1 :])
        # a changed f_p scales Lambda_p f: it shows first where P has its first nonzero z^r, r >= 1
        want = m if m > p else next((p + r for r in range(1, p) if P[r]), None)
        try:
            split_pade(g, 1, p)
        except ReconstructionFailed as exc:
            assert exc.index == want, (p, m)
        else:
            assert want is None, (p, m)
    assert not calls


@pytest.mark.parametrize("p", [5, 37, 101])
def test_split_pade_matches_elimination_at_span_2(p):
    # at span 2 a split is unique only up to a factor w(z^p): split_pade returns the one
    # with coprime sections (the p-truncation, apery being p-Lucas), and it divides
    # the elimination route's P with a quotient in z^p
    f = series_mod_p(CAT["apery"], p, 12 * p)
    a, b = split_pade(f, 2, p), split_elimination(f, 2, p)
    assert a.P == truncation("apery", p)
    w, rem = b.P.divmod(a.P)
    assert rem.is_zero() and w[0] == 1 and all(not c for i, c in enumerate(w.coeffs) if i % p), p


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
    # the first probe is the largest level-1 need, the L-type height bound's 2 C p + 16
    # (C = 18; the orbit probe 31 p + 1 and the A_{0,1} split's 3 p + 1 are smaller); the
    # orbit shows there with no preperiod at level 1, so A_{l,l} is not built and the
    # probe is the final T
    asked = _record_series_mod_p(monkeypatch)
    cert = assemble_certificate(CAT["apery"], 37)
    assert asked == [2 * 18 * 37 + 16] == [1348]
    assert (cert.level, cert.height, cert.verified_to) == (1, 36, 1348)
    monkeypatch.undo()
    assert cert.A == assemble_certificate(CAT["apery"], 37, T=18944).A
    # the Q route reduced mod p, not the certify route that built the certificate
    assert verify_certificate(cert, reduce_series_mod_p(series_over_q(CAT["apery"], 1348), 37))


def test_assemble_auto_T_probes_one_more_iterate_at_a_time(monkeypatch):
    # at p = 5 the 512-term probe has one iterate of >= 32 terms and finds no orbit; the next
    # probe gives a second one, 31 * 5^2 + 1 = 776 terms, and shows the orbit at level 2;
    # the height bound 2C p^4 (C = 8) then sets T = 2 * 10000 + 16
    asked = _record_series_mod_p(monkeypatch)
    cert = assemble_certificate(CAT["f2"], 5)
    assert asked == [512, 776, 20016]
    assert (cert.level, cert.height, cert.verified_to) == (2, 60, 20016)


@pytest.mark.parametrize("name, p, T, stage", [
    pytest.param("apery", 55579, 2 * 18 * 55579 + 16, "height bound at level 1", id="apery-55579-2000860"),
    pytest.param("f2", 1000003, 31 * 1000003 + 1, "orbit probe", id="f2-1000003-31000094"),
])
def test_assemble_auto_T_over_budget_expands_nothing(monkeypatch, name, p, T, stage):
    # the largest level-1 need is known before any expansion and is past MAX_T: apery's
    # height bound 2 C p + 16 (C = 18), f2's orbit probe 31 p + 1
    asked = _record_series_mod_p(monkeypatch)
    with pytest.raises(BudgetExceeded, match=rf"T = {T} series terms \({stage}\), above the budget MAX_T = {MAX_T}"):
        assemble_certificate(CAT[name], p)
    assert asked == []


def test_assemble_auto_T_covers_the_all_split():
    # at p = 521 the orbit has no preperiod, so only A_{0,1} is built, splitting f on
    # (2d - 1) p + 1 = 522 terms (span d = 1); T is the first probe, the orbit's 31 p + 1,
    # above the height bound's 2 C p + 16 = 8352 (C = 8)
    cert = assemble_certificate(CAT["g2"], 521)
    assert (cert.level, cert.height, cert.verified_to) == (1, 260, 31 * 521 + 1)


def test_assemble_explicit_T_below_the_all_split_names_the_T_needed(monkeypatch):
    # f2's orbit at p = 7 is (1, 1): A_{2,2} splits Lambda^3 f on 7^4 + 1 terms (span 1)
    with pytest.raises(ReconstructionFailed, match=r"the A_\{l,l\} split at level 2 needs T >= 2402 series "
                                                  r"terms, got T = 2000"):
        assemble_certificate(CAT["f2"], 7, T=2000)
    # with no preperiod only A_{0,l} is built, splitting Lambda^(l-1) f; an orbit (0, 2)
    # at p = 37 needs 37^2 + 1 terms
    monkeypatch.setattr(certify, "orbit_detect", lambda f_p, p: certify.OrbitReport(0, 2, 2, len(f_p)))
    with pytest.raises(ReconstructionFailed, match=r"the A_\{0,l\} split at level 2 needs T >= 1370 series "
                                                  r"terms, got T = 1200"):
        assemble_certificate(CAT["g2"], 37, T=1200)


@pytest.mark.parametrize("name, p, splits", [("apery", 37, 1), ("f2", 5, 4)])
def test_assemble_checks_each_identity_once(monkeypatch, name, p, splits):
    # each step identity is checked by its split, the certificate by one final pass; apery's
    # orbit (0, 1) has no preperiod, so its A_{l,l} is not built, while f2's (1, 1) at level 2
    # splits two iterates for A_{0,2} and two for A_{2,2}
    calls = {"split_pade": 0, "_verify_power_identity": 0}

    def counting(fn_name):
        real = getattr(certify, fn_name)
        return lambda *args: calls.__setitem__(fn_name, calls[fn_name] + 1) or real(*args)

    for fn_name in calls:
        monkeypatch.setattr(certify, fn_name, counting(fn_name))
    assemble_certificate(CAT[name], p)
    assert calls == {"split_pade": splits, "_verify_power_identity": 1}


@pytest.mark.parametrize("name, p", [
    ("g1", 37), ("g1", 101), ("g2", 37), ("g2", 101), ("g3", 37), ("g3", 101),
    ("apery", 37), ("apery", 53), ("apery", 101),
])
def test_assemble_auto_T_certificate_equals_the_one_at_the_all_split_order(name, p):
    # the L-type entries' orbits have no preperiod, so auto T no longer covers the A_{l,l}
    # split's (2d - 1) p^2 + 1 terms; the certificate at that order is the same one
    span = recurrence_from(CAT[name].operator).span
    cert = assemble_certificate(CAT[name], p)
    assert cert.bound_kind == "L_bound" and 2 * cert.bound < cert.verified_to < (2 * span - 1) * p**2 + 1
    assert cert.A == assemble_certificate(CAT[name], p, T=(2 * span - 1) * p**2 + 1).A


def test_final_check_at_the_auto_T_rejects_every_other_A_of_height_at_most_the_bound():
    # f = A g with g = f(z^p) a unit, so f b' - g a' = g (a b' - a' b) / b for any A' = a'/b':
    # its first nonzero index is the valuation of a b' - a' b, a nonzero polynomial of degree
    # <= 2 bound when A' != A has height <= bound, and the check to T > 2 bound names it
    cert = assemble_certificate(CAT["apery"], 37)
    A, field, bound = cert.A, cert.A.num.field, cert.bound
    f = series_mod_p(CAT["apery"], 37, cert.verified_to)
    assert certify._verify_power_identity(f, A, f, 37, 1) == cert.verified_to == 1348
    for part in ("num", "den"):
        for i in (0, 1, 2, 17, 35, 36, 37, 100, 333, 665, bound):
            for delta in (1, 2):  # A.den is 1 at p = 37, so no change makes it zero
                coeffs = list(getattr(A, part).coeffs) + [field.zero] * (bound + 1)
                coeffs[i] += delta
                num, den = (Poly(field, coeffs), A.den) if part == "num" else (A.num, Poly(field, coeffs))
                mutant = RatFun(num, den)
                assert mutant != A and mutant.height <= bound
                with pytest.raises(ReconstructionFailed) as info:
                    certify._verify_power_identity(f, mutant, f, 37, 1)
                assert info.value.index == (A.num * mutant.den - mutant.num * A.den).valuation() <= 2 * bound


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


def test_loaded_certificate_claims_are_rechecked():
    # certify f2 -p 3, then its JSON edited: a stored height must be A's, and A must keep within the bound
    cert = assemble_certificate(CAT["f2"], 3)
    fresh = reduce_series_mod_p(series_over_q(CAT["f2"], cert.verified_to), 3)
    assert cert.A.height == 12 and verify_certificate(cert, fresh)
    with pytest.raises(ParseError, match=r"\(at height\)$"):
        certificate_from_json({**cert.to_json(), "height": 1, "bound": 0})
    for bound in (0, 11):
        edited = certificate_from_json({**cert.to_json(), "bound": bound})
        assert edited.height == 12 and not verify_certificate(edited, fresh)
    assert verify_certificate(certificate_from_json({**cert.to_json(), "bound": 12}), fresh)


def _step(P):
    """The one-step A = P / Lambda_p(P)(z^p) of a split polynomial P over F_p."""
    p = P.field.p
    return RatFun(P, Poly(P.field, P.coeffs[::p]).compose_power(p))


def test_split_consistency_across_catalog():
    # pade and elimination splits agree on catalog entries (every operator-backed
    # entry at its good primes among {3, 5}, and apery at 37 and 101): P itself at
    # span 1, and at every span the step A, from which a factor w(z^p) of P cancels
    jobs = [
        (name, p)
        for name in ("g1", "g2", "g3", "f1", "f2", "f3", "apery")
        for p in (3, 5)
        if p in good_primes(CAT[name].operator, 5)
    ] + [("apery", 37), ("apery", 101)]
    for name, p in jobs:
        entry = CAT[name]
        span = recurrence_from(entry.operator).span
        f = series_mod_p(entry, p, 260 * (2 if span > 1 else 1))
        a = split_pade(f, span, p)
        b = split_elimination(f, span, p)
        if span == 1:
            assert a.P == b.P, (name, p)
        assert _step(a.P) == _step(b.P), (name, p)
        # both are normalized to value 1 at 0; unnormalized, the route keeps a scalar
        raw = split_elimination(f, span, p, normalize=False)
        assert raw.P == b.P.scale(raw.P.eval(f.field.zero)), (name, p)


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


@pytest.mark.parametrize("name,p,m", [("f2", 3, 3), ("apery", 5, 2)])
def test_shadow_residual_check_names_the_order(name, p, m):
    """A solution changed at index m p (past p) breaks the last-row relation first at order m.

    The Cartier vector reads f at multiples of p, and F(0)'s last row is 0,
    so only the -delta(Lambda_p delta^(n-1) f) term moves, at order m.
    """
    T = 60
    f = series_over_q(CAT[name], T)
    frobenius_shadow(CAT[name].operator, p, T, solution=f)
    bad = TruncSeries(QQ, [c + (i == m * p) for i, c in enumerate(f.coeffs)])
    with pytest.raises(SylvesterSingular, match=f"last-row relation fails at order {m}$"):
        frobenius_shadow(CAT[name].operator, p, T, solution=bad)


def test_shadow_residual_check_reads_the_last_row_of_f(monkeypatch):
    """An F whose last row is changed at z^2 after its recurrence fails the residual check at order 2."""
    T, real = 60, certify.FrobShadow

    def bumped(F, **kw):
        *rows, (first, *rest) = F
        first = TruncSeries(QQ, [c + (i == 2) for i, c in enumerate(first.coeffs)])
        return real(F=(*rows, (first, *rest)), **kw)

    monkeypatch.setattr(certify, "FrobShadow", bumped)
    f = series_over_q(CAT["apery"], T)
    with pytest.raises(SylvesterSingular, match="last-row relation fails at order 2$"):
        frobenius_shadow(CAT["apery"].operator, 5, T, solution=f)


def _residual_by_series(shadow, f, order=None):
    """The last-row residual by series: F's last row times the Cartier images of f, delta f, ...,
    delta^(n-1) f, less delta of the last image."""
    n, p = len(shadow.F), shadow.p
    vec, g = [], f
    for _ in range(n):
        vec.append(g.cartier(p, 0))
        g = g.delta()
    avail = min(min(len(v) for v in vec), min(len(F) for F in shadow.F[n - 1]))
    if order is None:
        order = avail - 1
    acc = TruncSeries.zero(QQ, order)
    for j in range(n):
        acc = acc + shadow.F[n - 1][j].truncate(order) * vec[j].truncate(order)
    return acc - vec[n - 1].delta().truncate(order)


@pytest.mark.parametrize("T", [243, 400, 500])
@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("name", ["f2", "f3", "g2", "apery"])
def test_residual_operator_matches_the_series_route(name, p, T):
    """One operator on Lambda_p f equals the series route, on f and on f changed at index 2p, where it is nonzero."""
    f = series_over_q(CAT[name], T)
    sh = frobenius_shadow(CAT[name].operator, p, T)
    bad = TruncSeries(QQ, [c + (i == 2 * p) for i, c in enumerate(f.coeffs)])
    for g in (f, bad):
        for order in (None, 5, len(g.cartier(p, 0)) - 2):
            got = cartier_row_residual(sh, g, order)
            assert got == _residual_by_series(sh, g, order), (order, g is bad)
            assert got.is_zero() == (g is f)


def test_residual_is_one_apply_and_no_series_arithmetic(monkeypatch):
    T, p = 120, 5
    f = series_over_q(CAT["apery"], T)
    sh = frobenius_shadow(CAT["apery"].operator, p, T)
    calls, apply = [], DiffOp.apply
    for name in ("delta", "__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(TruncSeries, name, lambda *a, name=name: pytest.fail(f"TruncSeries.{name}"))
    monkeypatch.setattr(DiffOp, "apply", lambda L, g: calls.append(len(g)) or apply(L, g))
    assert cartier_row_residual(sh, f).is_zero()
    assert calls == [len(f.cartier(p, 0)) - 1]


def test_shadow_y_constant_term_identity():
    sh = frobenius_shadow(CAT["apery"].operator, 3, 60)
    n = 3
    for i in range(n):
        for j in range(n):
            expected = Fraction(1 if i == j else 0)
            assert sh.Y[i][j][0] == expected


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_mul(A, B):
    return [[reduce(add, map(mul, row, col)) for col in zip(*B)] for row in A]


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
    assert Tp == -(-T // p)
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
     ("apery", 3, 60), ("apery", 5, 100), ("fr4", 5, 60), ("fr5", 7, 60),
     # T <= p leaves Lambda_p Y one term and F = J/p; T = p + 1 gives F two terms
     ("f2", 3, 1), ("f2", 3, 3), ("f2", 5, 4), ("apery", 7, 7), ("apery", 5, 6)],
)
def test_shadow_recurrence_matches_convolution_oracle(name, p, T):
    L = hypergeometric_fr_operator(int(name[2])) if name.startswith("fr") else CAT[name].operator
    _assert_shadow_matches_oracle(L, p, T)


@pytest.mark.parametrize(
    "polys,p,T",
    [
        # leading constant -3: den_0 < 0, so each denominator's sign is normalised
        ([[0, -8], [0, -48], [0, -96], [-3, 192]], 5, 80),
        # non-integral companion coefficients: den and the last row are scaled by 42
        ([[0, Fraction(1, 7)], [0, Fraction(2, 3)], [5, Fraction(3, 2)]], 3, 60),
        # delta^2 and delta^3: span 0, so no earlier term enters and Y = I
        ([[], [], [1]], 3, 30),
        ([[], [], [], [1]], 5, 30),
        # a z^3 coefficient: span 3, with q_1, q_2, q_3 of degrees 0, 1 and 2
        ([[0, 1, 0, 2], [0, 0, -1, 1], [1, 0, 0, 3]], 3, 60),
    ],
)
def test_shadow_integer_scale_and_sign(polys, p, T):
    _assert_shadow_matches_oracle(diffop_from_polys(QQ, "delta", polys), p, T)


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
    for p in (0, 1, 4, -3):
        with pytest.raises(BadPrime, match=f"^{p} is not prime$"):
            frobenius_shadow(CAT["f2"].operator, p, 30)
