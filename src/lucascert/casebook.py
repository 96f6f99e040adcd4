"""Executable worked examples: congruence suites run at desk scale.

Each case returns a CaseResult whose checks are (label, passed, detail)
triples; congruences are always evaluated by two independent routes
(exact big-integer binomials whose residues mod p are summed, and digit-wise
Lucas-theorem evaluation) that must agree.  Series mod p come from the Q
expansion, never from the Lucas-digit route of `series_mod_p` whose
congruences are checked.  Each Q series is expanded once per order for all
primes, the Apery numbers that `p_lucas_check` reduces included; the exact
identities (L_r(f_r) = 0, the 2F1 links of f_1 and f_2, and mod p of their truncations) are `DiffOp.apply`.
Rational reconstruction also runs by two routes that must agree: the
extended Euclidean algorithm (`pade_ratio`) at the working order, and the
dense kernel solve (`pade_kernel`) at the tight order 2h + 1 for height h.
"""

import io
from functools import cache

from .catalog import (
    cy26_mod,
    cy26_term,
    cy210_mod,
    cy210_term,
    gen_terms,
    lookup,
    p_lucas_check,
    hypergeometric_fr_operator,
)
from .diffop import diffop_from_polys, is_mom, indicial_at_zero, reduce_op_mod_p
from .certify import pade_kernel, pade_ratio
from .errors import ReconstructionFailed, UnknownCase
from .fields import GF, QQ
from .poly import Poly
from .ratfun import RatFun
from .series import TruncSeries, reduce_series_mod_p


class CaseResult:
    def __init__(self, case_id, p):
        self.case_id, self.p = case_id, p
        self.checks, self.orders = [], {}
        self.excluded, self.note = False, ""

    def add(self, label, passed, detail=""):
        self.checks.append((label, bool(passed), detail))

    @property
    def passed(self):
        return self.excluded or all(ok for _, ok, _ in self.checks)

    def to_json(self):
        return {
            "case_id": self.case_id,
            "p": self.p,
            "excluded": self.excluded,
            "note": self.note,
            "orders": self.orders,
            "checks": [
                {"label": label, "pass": ok, "detail": detail}
                for label, ok, detail in self.checks
            ],
        }


def _excluded(result, why):
    result.excluded = True
    result.note = f"p = {result.p} excluded: {why}"
    return result


def _fixed_point_congruence(result, term, p, Jmax, series_mod_term):
    """Check a(jp) = a(j) mod p by exact binomials reduced mod p and by the Lucas-digit route."""
    for j in range(0, Jmax + 1):
        e_big, e_small = term(j * p, p), term(j, p)
        d_big, d_small = series_mod_term(j * p, p), series_mod_term(j, p)
        congruent = e_big == e_small
        routes_agree = d_big == e_big and d_small == e_small
        ok = congruent and routes_agree
        if not ok or j == Jmax:
            result.add(
                f"a({j}p) = a({j}) mod {p}",
                ok,
                "" if ok else f"congruent: {congruent}, routes agree: {routes_agree}",
            )
        if not ok:
            break
    result.orders["Jmax"] = Jmax


def case_210(p, Jmax=20):
    """Cartier fixed point of the sequence C(2j,j) sum_k (-1)^k C(2j,k)^4 mod p.

    The parity step in the congruence argument needs p != 2, which is
    therefore rejected.
    """
    result = CaseResult("210", p)
    if p == 2:
        return _excluded(result, "the (-1)^k parity argument needs an odd prime")
    _fixed_point_congruence(result, cy210_term, p, Jmax, cy210_mod)
    return result


def case_26(p, Jmax=15):
    """Cartier fixed point of C(2j,j) sum_k C(j,k)^2 C(j+k,k) C(2k,j) mod p."""
    result = CaseResult("26", p)
    _fixed_point_congruence(result, cy26_term, p, Jmax, cy26_mod)
    return result


def case_apery_lucas(p, M=500):
    """p-Lucas property of the Apery numbers up to index M."""
    result = CaseResult("apery-lucas", p)
    ok, witness = p_lucas_check(_series_over_q("apery", M + 1), p, M)
    result.add(f"a(r+mp) = a(r)a(m) mod {p}, indices <= {M}", ok, str(witness or ""))
    result.orders["M"] = M
    return result


def case_2f1(p, kmax=2, T=500, power_cap=400):
    """The full 2F1(-1/2,1/2;1;16z) study: truncations P_1, P_2 and heights.

    Checks, each to order T where a series identity is involved:
      deg-P:        deg P_1 = deg P_2 = (p-1)/2
      f2-from-f1:   f_2 = (1-16z)(f_1 + 2 delta f_1) over Q
      f1-from-f2:   f_1 = f_2 - 2 delta f_2 over Q
      trunc-link:   P_2 = (1-16z)(P_1 + 2 delta P_1) as polynomials over F_p
      split-f1:     f_2|p = P_2 * f_1|p(z^p)
      split-f1-sq:  f_2|p = P_2 * P_1^p * f_1|p(z^(p^2))
      self-power:   f_2|p * P_2^(p-1) = P_1^p * f_2|p(z^p)
      separable:  gcd(P_2, P_2') = 1
      coprime:    P_1 = (1 - 2 delta) P_2 and gcd(P_1, P_2) = 1
      height-B_k: height of reduced B_k = P_1^(p+...+p^(k+1)) / P_2^(p^(k+1)-1)
                  equals (p/2)(p^(k+1)-1), and f_2|p = B_k * f_2|p(z^(p^(k+1)))
                  (k limited so p^(k+1) <= power_cap)

    P_1 and P_2 are the first p terms of f_1|p and f_2|p, so p < T is needed;
    a larger p is excluded.
    """
    result = CaseResult("2f1", p)
    if p < 3:
        return _excluded(result, "the truncations have degree (p-1)/2, for an odd prime")
    if p >= T:
        return _excluded(result, f"the split checks to order T = {T} need p < T")
    result.orders["T"] = T
    Fp = GF(p)
    for label, ok in _2f1_q_identities(T):
        result.add(label, ok)

    f1_p = reduce_series_mod_p(_series_over_q("f1", T), p)
    f2_p = reduce_series_mod_p(_series_over_q("f2", T), p)
    P1 = f1_p.truncate(p).poly()
    P2 = f2_p.truncate(p).poly()
    half = (p - 1) // 2
    result.add("deg-P", P1.degree() == half and P2.degree() == half,
               f"deg P_1 = {P1.degree()}, deg P_2 = {P2.degree()}")

    # each link's image on deg + 2 terms, which hold its top coefficient
    S1, S2 = (TruncSeries.from_poly(P, max(P1.degree(), P2.degree()) + 2) for P in (P1, P2))
    result.add("trunc-link", reduce_op_mod_p(_TO_F2, p).apply(S1) == S2)

    rhs_split = f1_p.compose_power(p, 1, out_len=T).mul_poly(P2)
    result.add("split-f1", f2_p.eq_to_order(rhs_split, T))

    rhs_split2 = f1_p.compose_power(p, 2, out_len=T).mul_poly(P2 * P1**p)
    result.add("split-f1-sq", f2_p.eq_to_order(rhs_split2, T))

    lhs_sp = f2_p.mul_poly(P2 ** (p - 1))
    rhs_sp = f2_p.compose_power(p, 1, out_len=T).mul_poly(P1**p)
    result.add("self-power", lhs_sp.eq_to_order(rhs_sp, T))

    result.add("separable", P2.gcd(P2.derivative()) == Poly.one(Fp))
    result.add("coprime", reduce_op_mod_p(_TO_F1, p).apply(S2) == S1 and P1.gcd(P2) == Poly.one(Fp))

    heights = []
    for k in range(kmax + 1):
        if p ** (k + 1) > power_cap:
            break
        # B_k = P1^(p d) / P2^((p - 1) d) with d = 1 + p + ... + p^k; its one gcd is in the
        # Henrici product P1^(p-1)/P2^(p-1) * P1, and a power of a reduced ratio takes none
        d = (p ** (k + 1) - 1) // (p - 1)
        Bk = (RatFun(P1, P2) ** (p - 1) * P1) ** d
        expected = p * (p ** (k + 1) - 1) // 2
        heights.append(Bk.height)
        ok_height = Bk.height == expected
        lhs = f2_p.mul_poly(Bk.den)
        rhs = f2_p.compose_power(p, k + 1, out_len=T).mul_poly(Bk.num)
        ok_id = lhs.eq_to_order(rhs, T)
        result.add(
            f"height-B_{k}",
            ok_height and ok_id,
            f"height {Bk.height}, expected {expected}",
        )
    result.orders["B_heights"] = heights
    return result


@cache
def _series_over_q(name, T):
    """The catalog series `name` over Q to order T, expanded once: it does not depend on p."""
    return TruncSeries(QQ, gen_terms(lookup(name), T))


_TO_F2 = diffop_from_polys(QQ, "delta", [[1, -16], [2, -32]])  # (1 - 16z)(1 + 2 delta): f_1 to f_2, P_1 to P_2 mod p
_TO_F1 = diffop_from_polys(QQ, "delta", [[1], [-2]])  # 1 - 2 delta: f_2 to f_1, P_2 to P_1 mod p


@cache
def _2f1_q_identities(T):
    """(label, ok) of f_2 = (1-16z)(1 + 2 delta)(f_1) and f_1 = (1 - 2 delta)(f_2) over Q to order T, for any p."""
    f1_q, f2_q = _series_over_q("f1", T), _series_over_q("f2", T)
    return ("f2-from-f1", _TO_F2.apply(f1_q) == f2_q), ("f1-from-f2", _TO_F1.apply(f2_q) == f1_q)


@cache
def _fr_operator_checks(r, T):
    """(L_r(f_r) = 0 to order T, L_r MOM with indicial polynomial x^r): neither depends on p."""
    Lr = hypergeometric_fr_operator(r)
    annihilates = Lr.apply(_series_over_q(f"f{r}", T)).is_zero()
    return annihilates, is_mom(Lr) and indicial_at_zero(Lr) == Poly.x(QQ) ** r


def case_independence(p, T=None):
    """The certificate ingredients behind the algebraic-independence transfers.

    For r in {2, 3}: Lambda_p(f_r)|p = g_r|p = Lambda_p^2(f_r)|p, f_r kills
    the order-r operator delta^r - 4^r z (delta-1/2)(delta+1/2)^(r-1), and
    that operator is MOM at zero.  For the Apery pair: t is a Cartier fixed
    point mod p, and f_2|p = B * g_2|p with B = P_2/P_1 recovered by rational
    reconstruction of bounded height, by pade_ratio at order T and again by
    pade_kernel on the first 2h + 1 coefficients, h = (p - 1)/2 = height(B).
    T defaults to max(300, p + 8) >= 2h + 8, so that B stays within reach
    of pade_ratio's degree bound (T - 8)/2 at every prime; a given T must
    exceed p.  Each series is expanded over Q once per T, for all primes.
    """
    result = CaseResult("independence", p)
    if p < 3:
        return _excluded(result, "the independence ingredients need an odd prime")
    if T is None:
        T = max(300, p + 8)
    if T <= p:
        raise ValueError(f"T = {T} must exceed p = {p}, which B's reconstruction needs")
    result.orders["T"] = T
    for r in (2, 3):
        fr_p = reduce_series_mod_p(_series_over_q(f"f{r}", T), p)
        gr_p = reduce_series_mod_p(_series_over_q(f"g{r}", T), p)
        if r == 2:
            f2_p, g2_p = fr_p, gr_p
        lam1 = fr_p.cartier(p, 0)
        lam2 = lam1.cartier(p, 0)
        ok1 = lam1.eq_to_order(gr_p, len(lam1))
        ok2 = lam2.eq_to_order(gr_p, len(lam2))
        result.add(f"Lambda(f_{r}) = g_{r} = Lambda^2(f_{r}) mod {p}", ok1 and ok2)
        annihilates, mom = _fr_operator_checks(r, T)
        result.add(f"L_{r}(f_{r}) = 0", annihilates)
        result.add(f"L_{r} MOM", mom)
    t_p = reduce_series_mod_p(_series_over_q("apery", T), p)
    lam_t = t_p.cartier(p, 0)
    result.add("Lambda(t) = t mod p", lam_t.eq_to_order(t_p, len(lam_t)))

    bound = 2 * 2 * 2 * 2 * p  # 2C p with C = 2nr = 8
    B = _reconstruct_ratio(pade_ratio, f2_p, g2_p, min(bound, (T - 8) // 2))
    h = (p - 1) // 2
    tight = 2 * h + 1  # = p < T
    B_kernel = _reconstruct_ratio(pade_kernel, f2_p.truncate(tight), g2_p.truncate(tight), h)
    ok = B is not None and B.height <= bound and B_kernel == B
    if ok:
        lhs = f2_p.mul_poly(B.den)
        rhs = g2_p.mul_poly(B.num)
        ok = lhs.eq_to_order(rhs, T)
    # the p-truncations P_1 of f_1 = g_2 and P_2 of f_2 are prefixes, as T > p
    P1, P2 = g2_p.truncate(p).poly(), f2_p.truncate(p).poly()
    expected = RatFun(P2, P1)
    result.add(
        "f_2 = B g_2 with height(B) bounded",
        ok and B == expected,
        f"B height {B.height if B else None}, bound {bound}",
    )
    return result


def _reconstruct_ratio(route, num_series, den_series, deg_bound):
    try:
        u, v = route(num_series, den_series, deg_bound)
    except ReconstructionFailed:
        return None
    return RatFun(u, v)


_CASES = {
    "210": case_210,
    "26": case_26,
    "2f1": case_2f1,
    "independence": case_independence,
    "apery-lucas": case_apery_lucas,
}


def case_ids():
    return sorted(_CASES)


def run_case(case_id, p, **kwargs):
    fn = _CASES.get(case_id)
    if fn is None:
        raise UnknownCase(f"no case named {case_id!r}; known: {', '.join(case_ids())}")
    return fn(p, **kwargs)


def batch_report(primes, cases):
    """Run the selected cases over the selected primes; one CaseResult per pair."""
    results = []
    for case_id in cases:
        if case_id not in _CASES:
            raise UnknownCase(f"no case named {case_id!r}; known: {', '.join(case_ids())}")
        for p in primes:
            results.append(run_case(case_id, p))
    return results


def results_to_csv(results):
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["case_id", "p", "check_label", "pass", "detail"])
    for res in results:
        if res.excluded:
            writer.writerow([res.case_id, res.p, "excluded", True, res.note])
            continue
        for label, ok, detail in res.checks:
            writer.writerow([res.case_id, res.p, label, ok, detail])
    return buf.getvalue()
