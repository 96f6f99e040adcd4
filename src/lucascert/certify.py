"""Lucas-type algebraicity certificates for reductions of MOM series.

Pipeline, for a series f with f(0) = 1 annihilated mod p by a MOM-at-zero
operator of order n with at most r finite singular points:

  1. split: f|_p(z) = P(z) c(z^p) with deg P <= p*d - 1, d the recurrence
     span (two independent construction routes: section-ratio rational
     reconstruction from the first 2dp terms of f, with P by one product, and
     the kernel/gap elimination argument); either route's P is checked once;
  2. one step: f|_p = A * (Lambda_p f|_p)^p with A = P / Lambda_p(P)(z^p),
     height(A) <= n*r*p - 1;
  3. iteration: Lambda_p^i f|_p = A_{i,m} * (Lambda_p^(i+m) f|_p)^(p^m),
     A_{i,m+1} = A_{i,m} * (step for Lambda_p^(i+m) f)^(p^m),
     height <= C p^m with C = 2nr;
  4. orbit: find (a, b) with Lambda_p^a f = Lambda_p^(a+b) f to the working
     order; l = smallest multiple of b exceeding a, so that
     Lambda_p^l f = Lambda_p^(2l) f;
  5. assembly: A_p = A_{0,l} * (A_{l,l} / A_{0,l})^(p^l) satisfies
     f|_p(z) = A_p(z) f|_p(z^(p^l)), height <= 2C p^(2l); when a = 0 the
     formula collapses to A_{0,l}, height <= C p^l, and A_{l,l} is not built.

The rational functions are exact finite objects.  Each series identity is
checked once, to an explicit order, by multiply-and-compare: each step by its
split (_finish_split) to the full order of its Cartier iterate, the orbit by
equality of iterates, and the assembled identity by one final pass
(_verify_power_identity) to the full order T, which is its verified_to.
Every height bound is a hard error.

A companion construction computes, entirely over Q, the uniform part Y of the
delta-companion system, whose G(0) is the shift J for a MOM operator, by the
Frobenius method on the operator's own recurrence, and the weak Frobenius matrix
F = [delta(Lambda_p Y) + (1/p) Lambda_p(Y) J] (Lambda_p Y)^(-1): J/p but for its
last row, which one coefficient recurrence gives with no series inverse.  That
last row annihilates the Cartier image of the solution vector.
"""

from collections import deque, namedtuple
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .catalog import series_mod_p
from .diffop import _horner, companion, diffop_from_polys, is_mom, recurrence_from, singularities, to_delta
from .errors import (
    BadPrime,
    BudgetExceeded,
    HeightBoundViolated,
    NoCycleFound,
    ReconstructionFailed,
    SylvesterSingular,
)
from .fields import QQ, PrimeField, is_prime
from .linalg import kernel_basis
from .poly import Poly, _cleared
from .ratfun import RatFun
from .series import TruncSeries, ratfun_series

L_BOUND = "L_bound"
L2_BOUND = "L2_bound"
PROP62_BOUND = "prop62_bound"

MAX_T = 2 * 10**6  # expansion budget of assemble_certificate, in series terms
# orbit_detect compares Cartier iterates of at least ORBIT_MIN_LENGTH terms, at most
# ORBIT_MAX_STEPS steps deep; assemble_certificate sizes its probes from the same two numbers
ORBIT_MIN_LENGTH = 32
ORBIT_MAX_STEPS = 6


class SplitWitness(namedtuple("SplitWitness", "P p degree_bound verified_to")):
    """Polynomial split f = P(z) c(z^p): P with deg P <= p*d - 1."""

    __slots__ = ()


class Certificate(namedtuple("Certificate", "p level A verified_to height bound bound_kind series",
                             defaults=("",))):
    """Verified identity f|_p(z) = A(z) f|_p(z^(p^level)) to order verified_to."""

    __slots__ = ()

    def to_json(self):
        return {
            "series": self.series,
            "p": self.p,
            "level": self.level,
            "A_num": [int(c) for c in self.A.num.coeffs],
            "A_den": [int(c) for c in self.A.den.coeffs],
            "height": self.height,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
            "verified_to": self.verified_to,
        }


class OrbitReport(namedtuple("OrbitReport", "preperiod period level verified_to")):
    """Cartier orbit data: Lambda^a f = Lambda^(a+b) f certified to order verified_to."""

    __slots__ = ()


class FrobShadow(namedtuple("FrobShadow", "F Y p T")):
    """Uniform part Y and weak Frobenius matrix F of a MOM companion system."""

    __slots__ = ()


# -- splitting -----------------------------------------------------------------


def split_pade(f_p, d, p):
    """Split via rational reconstruction of the section ratios, read from the first 2dp terms of f.

    Section r of f = P(z) c(z^p), with P = sum_r z^r P_r(z^p) and deg P_r <= d - 1, is P_r c, so
    the ratio of sections r and 0 is P_r / P_0.  Two such ratios that agree to order 2d - 1 are
    equal (Pade uniqueness), so pade_ratio reads each from the first 2d terms of its section.  With
    D the lcm of their denominators (D(0) != 0), P = f(z) (D / Lambda_p f)(z^p) mod z^(pd) by one
    product, and _finish_split, the one check, verifies the split to the order of f.  No relation
    in the prefix, or deg D > d - 1, is reported at the last index of f that was read.  At span 1
    every ratio has degree 0, so D = 1 and no ratio is read: _finish_split names the same index.
    """
    field = f_p.field
    if not isinstance(field, PrimeField) or field.p != p:
        raise ValueError("series must live over F_p")
    if d < 1:
        raise ValueError("recurrence span must be >= 1")
    if not f_p[0]:
        raise ReconstructionFailed("split requires f(0) != 0")
    if len(f_p) < (2 * d - 1) * p + 1:
        raise ReconstructionFailed(f"need at least {(2 * d - 1) * p + 1} series coefficients for span {d}")
    head = f_p.truncate(min(len(f_p), 2 * d * p))
    s0, D = head.cartier(p, 0), Poly.one(field)
    for r in range(1, p if d > 1 else 1):
        s = head.cartier(p, r)
        try:
            v = pade_ratio(s, s0, d - 1)[1]
        except ReconstructionFailed as exc:
            m = (len(s) - 1) * p + r
            raise ReconstructionFailed(f"section {r} has no relation up to index {m} of f", index=m) from exc
        if v.degree() > 0:
            D = D.lcm(v)
    if D.degree() > d - 1:
        m = len(head) - 1
        raise ReconstructionFailed(f"section denominators exceed the span bound up to index {m} of f", index=m)
    q = TruncSeries.from_poly(D, d) / s0.truncate(d)
    P = (f_p.truncate(p * d) * q.compose_power(p, 1, out_len=p * d)).poly()
    return _finish_split(f_p, P, d, p, normalize=True)


def pade_ratio(num_series, den_series, deg_bound):
    """Reduced (u, v), deg <= deg_bound = D and v monic, with u*den = v*num to order T.

    The extended Euclidean algorithm on z^k and num/den mod z^k (a Newton division), k = min(2D + 2, T)
    (von zur Gathen-Gerhard, Modern Computer Algebra, 5.7-5.9), stops at the first
    remainder r_j of degree <= D; (r_j, t_j) divides every solution of degree <= D.
    One product checks it to order T: if it first fails at index e, z^(T-e) (r_j, t_j)
    must still have degree <= D, or ReconstructionFailed names e.  Same output as
    the dense solve pade_kernel.  Requires den(0) != 0 and T >= 2D + 1 (ValueError).
    """
    field = num_series.field
    T = min(len(num_series), len(den_series))
    if T < 2 * deg_bound + 1:
        raise ValueError(f"reconstruction at degree {deg_bound} needs order {2 * deg_bound + 1}, have {T}")
    if not den_series[0]:
        raise ValueError("rational reconstruction needs den(0) != 0")
    k = min(2 * deg_bound + 2, T)
    s = num_series.truncate(k) / den_series.truncate(k)
    r0, r1 = Poly.one(field).shift(k), s.poly()
    t0, t1 = Poly.zero(field), Poly.one(field)
    while r1.degree() > deg_bound:
        q, r = r0.divmod(r1)
        r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
    u, v = r1, t1
    e = den_series.truncate(T).mul_poly(u).first_difference(num_series.truncate(T).mul_poly(v))
    if max(u.degree(), v.degree()) + (0 if e is None else T - e) > deg_bound:
        where = "" if e is None else f" (fails at index {e})"
        raise ReconstructionFailed(f"no relation of degree <= {deg_bound}{where}", index=e)
    r = RatFun(u, v)
    return r.num, r.den


def pade_kernel(num_series, den_series, deg_bound):
    """pade_ratio by a dense solve: the kernel of the T x 2(D+1) linear system.

    All solutions of the linear system are polynomial multiples of one
    reduced pair once the order exceeds twice the bound, so the output is
    canonical.  The test oracle of the Euclidean route, and the casebook's
    second route.
    """
    field = num_series.field
    T = min(len(num_series), len(den_series))
    cols = 2 * (deg_bound + 1)
    rows = []
    for m in range(T):
        row = []
        for i in range(deg_bound + 1):  # u coefficients multiply den_series
            row.append(den_series[m - i] if 0 <= m - i < T else field.zero)
        for i in range(deg_bound + 1):  # -v coefficients multiply num_series
            c = num_series[m - i] if 0 <= m - i < T else field.zero
            row.append(-c)
        rows.append(row)
    basis = kernel_basis(field, rows, cols)
    if not basis:
        raise ReconstructionFailed("no section relation at this degree bound")
    vec = basis[0]
    u = Poly(field, vec[: deg_bound + 1])
    v = Poly(field, vec[deg_bound + 1 :])
    if v.is_zero():
        # all kernel vectors share the reduced ratio; look for one with v != 0
        for cand in basis[1:]:
            v = Poly(field, cand[deg_bound + 1 :])
            if not v.is_zero():
                u = Poly(field, cand[: deg_bound + 1])
                break
        else:
            raise ReconstructionFailed("section relation has zero denominator")
    r = RatFun(u, v)
    return r.num, r.den


def split_elimination(f_p, d, p, normalize=True):
    """Split via the kernel/gap argument, an independent oracle for split_pade.

    The d+1 windows v_i = (f_{ip}, ..., f_{ip+d-1}) are linearly dependent;
    a kernel combination u(z) = sum alpha_i z^(ip) makes g = u*f vanish on a
    length-d window starting at pd, the recurrence propagates the gap to
    p(d+1), and the first pd coefficients of g give the split polynomial.
    A series with f(0) = 0 is first stripped of whole z^p blocks.  At span 1 its normalized P is
    split_pade's; at span >= 2 only up to a factor w(z^p), w(0) = 1, which cancels from A = P / Lambda_p(P)(z^p).
    """
    field = f_p.field
    if not isinstance(field, PrimeField) or field.p != p:
        raise ValueError("series must live over F_p")
    while not f_p.coeffs or not f_p[0]:
        if len(f_p) < p:
            raise ReconstructionFailed("series vanished under z^p stripping")
        if any(f_p.coeffs[:p]):
            raise ReconstructionFailed("f(0) = 0 but the first p coefficients are not all zero")
        f_p = TruncSeries._canonical(field, f_p.coeffs[p:])
        if f_p.is_zero():
            raise ReconstructionFailed("zero series cannot be split")
    need = p * (d + 1) + p * d
    if len(f_p) < need:
        raise ReconstructionFailed(f"need {need} coefficients, have {len(f_p)}")
    windows = [f_p.coeffs[i * p : i * p + d] for i in range(d + 1)]
    # u = sum_i beta_i z^(ip) kills the window when sum_i beta_i v_{d-i} = 0
    rows = [[windows[d - i][t] for i in range(d + 1)] for t in range(d)]
    basis = kernel_basis(field, rows, d + 1)
    if not basis:
        raise ReconstructionFailed("window vectors are linearly independent")
    beta = next((cand for cand in basis if cand[0]), basis[0])  # prefer u(0) != 0 so that P(0) != 0
    u = Poly(field, beta).compose_power(p)
    g = f_p.mul_poly(u)
    gap = [g[m] for m in range(p * d, min(p * (d + 1), len(g)))]
    if any(gap):
        raise ReconstructionFailed("gap argument failed: window not annihilated")
    P = Poly(field, g.coeffs[: p * d])
    if P.is_zero():
        raise ReconstructionFailed("gap elimination produced the zero polynomial")
    return _finish_split(f_p, P, d, p, normalize)


def _finish_split(f_p, P, d, p, normalize):
    """Normalize P and verify the split f = P(z) c(z^p) to the order of f: either route's one check.

    With P = z^v P_hat, p | v and P_hat(0) != 0, f / P_hat is a series in z^p
    iff f = P_hat c(z^p) with c = Lambda_p(f) / Lambda_p(P_hat): a division of
    length T/p and one product, and the first index where they differ (named
    by ReconstructionFailed) is the first nonzero off-p index of f / P_hat.
    """
    field = f_p.field
    if normalize:
        c0 = P[0]
        if c0:
            P = P.scale(field.inv(c0))
        else:
            P = P.scale(field.inv(P.coeffs[P.valuation()]))
    v = P.valuation()
    if v % p != 0:
        raise ReconstructionFailed("split polynomial valuation not divisible by p")
    P_hat = Poly(field, P.coeffs[v:])
    c = f_p.cartier(p, 0).div_poly(Poly(field, P_hat.coeffs[::p]))
    m = f_p.first_difference(c.compose_power(p, 1, out_len=len(f_p)).mul_poly(P_hat))
    if m is not None:
        raise ReconstructionFailed(f"f / P is not a series in z^p (index {m})", index=m)
    return SplitWitness(P=P, p=p, degree_bound=p * d - 1, verified_to=len(f_p))


# -- one-step certificates and their iteration ------------------------------------


def certificate_prop62(f_p, n, r, p, span=None, series_name=""):
    """Level-1 certificate f|_p = A (Lambda_p f|_p)^p with height(A) <= nrp - 1.

    A = P / Lambda_p(P)(z^p) where P is the split polynomial computed with
    d = span (the recurrence span of the annihilating operator) or the
    Fuchsian fallback d = n*r.  Since f(0) = 1 the denominator is a unit at
    0, so A is a power series.  The identity is re-verified independently to
    the full available order; a height above the bound is a hard error.
    """
    A, bound = _step_ratfun(f_p, n, r, p, span)
    verified = _verify_power_identity(f_p, A, f_p.cartier(p, 0), p, 1)
    return Certificate(
        p=p,
        level=1,
        A=A,
        verified_to=verified,
        height=A.height,
        bound=bound,
        bound_kind=PROP62_BOUND,
        series=series_name,
    )


def _step_ratfun(f_p, n, r, p, span):
    """(A, nrp - 1): the height-checked step A = P / Lambda_p(P)(z^p) of f_p.

    The split's check, f = P_hat c(z^p) to the order of f (P = z^v P_hat), is
    this step's identity times the unit Lambda_p(P_hat)(z^p).
    """
    d = span if span is not None else n * r
    if d > n * r:
        raise ValueError("span exceeds the Fuchsian degree bound n*r")
    P = split_pade(f_p, d, p).P
    A = RatFun(P, Poly(P.field, P.coeffs[::p]).compose_power(p))
    bound = n * r * p - 1
    if A.height > bound:
        raise HeightBoundViolated(A.height, bound, what="one-step certificate")
    return A, bound


def _verify_power_identity(f, A, g, p, m):
    """Check f = A * g(z^(p^m)) to the full order of f by multiply-and-compare."""
    T = len(f)
    composed = g.compose_power(p, m, out_len=min(T, len(g) * p**m))
    T = min(T, len(composed))
    idx = f.truncate(T).mul_poly(A.den).first_difference(composed.truncate(T).mul_poly(A.num))
    if idx is not None:
        raise ReconstructionFailed(f"certificate identity fails at order {idx}", index=idx)
    return T


def iterate_certificates(f_p, i, m, p, n, r, span=None):
    """The rational function A_{i,m} with Lambda^i f = A_{i,m} (Lambda^(i+m) f)^(p^m).

    The telescoping product A_{i,k+1} = A_{i,k} * (step of Lambda^(i+k) f)^(p^k)
    from A_{i,0} = 1.  Each step's split checks it to the full order of its
    iterate, which z -> z^(p^k) carries to the order of Lambda^i f, so no pass
    re-checks the product.  Heights obey height(A_{i,m}) <= 2nr p^m.
    """
    g = f_p
    for _ in range(i):
        g = g.cartier(p, 0)
    A = RatFun.one(f_p.field)
    for k in range(m):
        A = A * _step_ratfun(g, n, r, p, span)[0] ** (p**k)
        partial_bound = 2 * n * r * p ** (k + 1)
        if A.height > partial_bound:
            raise HeightBoundViolated(A.height, partial_bound, what="iterated certificate")
        g = g.cartier(p, 0)
    return A


# -- orbit detection -----------------------------------------------------------------


def orbit_detect(f_p, p, max_steps=ORBIT_MAX_STEPS, min_length=ORBIT_MIN_LENGTH):
    """Find the Cartier-iterate collision Lambda^a f = Lambda^(a+b) f.

    Truncation-equality only: iterate lengths shrink by a factor p per step
    and each comparison is certified to the shorter length, which must stay
    above min_length.  The reported level is the least multiple of b that
    exceeds a, so Lambda^level f = Lambda^(2*level) f.  Searches collisions
    by increasing a + b, then increasing a; raises NoCycleFound when the
    budget or the usable length runs out.
    """
    iterates = [f_p]
    for _ in range(max_steps):
        nxt = iterates[-1].cartier(p, 0)
        if len(nxt) < min_length:
            break
        iterates.append(nxt)
    for total in range(1, len(iterates)):
        for a in range(0, total):
            b = total - a
            g, h = iterates[a], iterates[a + b]
            order = min(len(g), len(h))
            if order < min_length:
                continue
            if g.eq_to_order(h, order):
                c = a // b + 1
                return OrbitReport(preperiod=a, period=b, level=c * b, verified_to=order)
    raise NoCycleFound(
        f"no Cartier collision among iterates of lengths {[len(g) for g in iterates]} "
        f"(min length {min_length}, at most {max_steps} steps)"
    )


# -- full assembly -------------------------------------------------------------------


def assemble_certificate(seqgen, p, T=None):
    """End-to-end certificate f|_p(z) = A_p(z) f|_p(z^(p^l)) for a catalog entry.

    Requires the entry's operator to be MOM at zero and p to be one of its
    good primes.  The level comes from orbit detection; the certificate is
    assembled as A_{0,l} (A_{l,l}/A_{0,l})^(p^l) and carries the L^2-type
    bound 2C p^(2l) with C = 2nr, or collapses to A_{0,l} with the L-type
    bound C p^l when the orbit has no preperiod.

    Automatic T is the largest need of the stages that run (d the recurrence
    span).  Every certificate has level l >= 1, so the first probe is the largest
    level-1 need: max(512, the orbit's 31 p + 1, the L-type height bound's
    2 C p + 16, the A_{0,1} split's (2d - 1) p + 1).  While no orbit shows, the
    next probe is the least length at which one more Cartier iterate has
    ORBIT_MIN_LENGTH terms, (ORBIT_MIN_LENGTH - 1) p^k + 1.  Once it shows, T is
    the largest of the probe, 2 bound + 16 and the A_{0,l} split's
    (2d - 1) p^l + 1, or the A_{l,l} split's (2d - 1) p^(2l) + 1 past a preperiod;
    when that is the probe, its expansion and orbit are the final ones.  Two
    rational functions of height <= bound that agree to an order above 2 bound
    are equal, so the final check needs no more.  An explicit T below the
    deepest split is a ReconstructionFailed naming it.  No expansion, probe or
    final, goes past MAX_T terms: BudgetExceeded names the T needed and the
    stage that set it.
    """
    L = seqgen.operator
    if L is None:
        raise BadPrime(f"series {seqgen.name!r} has no operator in the catalog")
    if not is_mom(L):
        raise BadPrime(f"operator of {seqgen.name!r} is not MOM at zero")
    report = singularities(L)
    if not (is_prime(p) and all(v % p for v in report.bad_integers)):
        raise BadPrime(f"{p} is not a good prime for {seqgen.name!r}")
    n = L.order
    r = report.count_r
    span = recurrence_from(L).span
    C = 2 * n * r

    def height_class(orbit):
        """(bound, kind, (T, stage) of the deepest split): A_{l,l} is built only past a preperiod."""
        l = orbit.level
        if orbit.preperiod == 0:
            return C * p**l, L_BOUND, (_split_T(span, p, l), f"A_{{0,l}} split at level {l}")
        return 2 * C * p ** (2 * l), L2_BOUND, (_split_T(span, p, 2 * l), f"A_{{l,l}} split at level {l}")

    probe = None
    if T is None:
        # each need is (T, the stage that needs it); max keeps the first of equal T
        probe, stage = max((512, "orbit probe"), (_orbit_probe_T(p, 1), "orbit probe"),
                           (2 * C * p + 16, "height bound at level 1"),
                           (_split_T(span, p, 1), "A_{0,l} split at level 1"), key=lambda need: need[0])
        while True:
            _check_budget(probe, stage)
            f_p = series_mod_p(seqgen, p, probe)
            try:
                orbit = orbit_detect(f_p, p)
                break
            except NoCycleFound:
                # a longer probe can only add a collision with one more usable iterate
                k = 1
                while _orbit_probe_T(p, k) <= probe:
                    k += 1
                if k > ORBIT_MAX_STEPS:
                    raise
                probe, stage = _orbit_probe_T(p, k), "orbit probe"
        bound, _, split = height_class(orbit)
        T, stage = max((probe, "orbit probe"), (2 * bound + 16, "height bound"), split, key=lambda need: need[0])
    else:
        stage = "explicit T"
    if T != probe:
        _check_budget(T, stage)
        f_p = series_mod_p(seqgen, p, T)
        orbit = orbit_detect(f_p, p)
    level = orbit.level
    bound, kind, (need, split) = height_class(orbit)
    if T < need:
        raise ReconstructionFailed(f"the {split} needs T >= {need} series terms, got T = {T}")

    A = A0l = iterate_certificates(f_p, 0, level, p, n, r, span=span)
    if orbit.preperiod > 0:
        All = iterate_certificates(f_p, level, level, p, n, r, span=span)
        A = A0l * (All / A0l) ** (p**level)
    if A.height > bound:
        raise HeightBoundViolated(A.height, bound, what="assembled certificate")
    verified = _verify_power_identity(f_p, A, f_p, p, level)
    return Certificate(
        p=p,
        level=level,
        A=A,
        verified_to=verified,
        height=A.height,
        bound=bound,
        bound_kind=kind,
        series=seqgen.name,
    )


def _split_T(span, p, k):
    """Least T at which a step can split Lambda^(k-1) f: (2 span - 1) p + 1 of its terms."""
    return (2 * span - 1) * p**k + 1


def _orbit_probe_T(p, k):
    """Least T whose k-th Cartier iterate, of ceil(T / p^k) terms, has ORBIT_MIN_LENGTH of them."""
    return (ORBIT_MIN_LENGTH - 1) * p**k + 1


def _check_budget(T, stage):
    if T > MAX_T:
        raise BudgetExceeded(f"certify needs T = {T} series terms ({stage}), above the budget MAX_T = {MAX_T}")


def verify_certificate(cert, f_p):
    """Re-check a certificate against a freshly expanded reduction."""
    try:
        _verify_power_identity(f_p, cert.A, f_p, cert.p, cert.level)
    except ReconstructionFailed:
        return False
    return True


def certificate_from_json(data):
    field = PrimeField(data["p"])
    A = RatFun(Poly(field, data["A_num"]), Poly(field, data["A_den"]))
    return Certificate(
        p=data["p"],
        level=data["level"],
        A=A,
        verified_to=data["verified_to"],
        height=data["height"],
        bound=data["bound"],
        bound_kind=data["bound_kind"],
        series=data.get("series", ""),
    )


# -- height-class evidence --------------------------------------------------------------


def classify_evidence(certs):
    """Evidence report on the L vs L^2 height dichotomy across primes.

    For each certificate the ratios height/p^l and height/p^(2l) are listed;
    the verdict compares the growth of height/p^l against linear growth in p:
    bounded ratios are consistent with an L-type uniform constant, ratios
    growing like p (with height/p^(2l) bounded) only with the L^2 class.
    Evidence, not proof; at least two primes are required.
    """
    rows = []
    for cert in sorted(certs, key=lambda c: c.p):
        rows.append(
            {
                "p": cert.p,
                "level": cert.level,
                "height": cert.height,
                "ratio_l": Fraction(cert.height, cert.p**cert.level),
                "ratio_l2": Fraction(cert.height, cert.p ** (2 * cert.level)),
            }
        )
    if len(rows) < 2:
        return {"rows": rows, "verdict": "insufficient data"}
    p_lo, p_hi = rows[0]["p"], rows[-1]["p"]
    growth_allowed = Fraction(1 + Fraction(p_hi, p_lo), 2)

    def bounded(ratios):
        # decreasing or mildly growing across primes; ~linear growth in p fails
        if all(r == 0 for r in ratios):
            return True
        if ratios[0] == 0:
            return False
        return Fraction(ratios[-1], ratios[0]) <= growth_allowed

    verdict = "inconclusive"
    if bounded([row["ratio_l"] for row in rows]):
        verdict = "L(S)-consistent"
    elif bounded([row["ratio_l2"] for row in rows]):
        verdict = "L2-only-consistent"
    return {"rows": rows, "verdict": verdict}


# -- weak Frobenius shadow ---------------------------------------------------------------


def frobenius_shadow(L, p, T, solution=None):
    """Uniform part and weak Frobenius matrix of a MOM operator, over Q.

    The delta-companion G = M/den is the shift J (ones on the superdiagonal)
    plus a last row, which a MOM-at-zero operator has zero at 0: G(0) = J.
    Y (Y(0) = I) solves delta Y = G Y - Y J; Y z^J is the Frobenius log-basis of L = z^v sum_j
    z^j q_j(delta), the q_j those of `recurrence_from` on integers, q_0 = c x^n.  Row 0 of Y_m is
    a_m(eps) mod eps^n by the Frobenius method (Ince, Ordinary Differential Equations, 1926): a_0 = 1,
    sum_j q_j(m - j + eps) a_(m-j) = 0, so a_m = -R W_m / (c m^(2n-1)) with
    R = sum_{j>=1} q_j(m - j + eps) a_(m-j) (q_j(x + eps) by Taylor polynomials) and
    W_m = m^(2n-1) (m + eps)^(-n), an integer polynomial.  Row i + 1 of Y is
    delta(row i) + (row i) J: at z^m, m (row i) plus row i moved one column right.
    With LY = Lambda_p Y (LY(0) = I), the weak Frobenius matrix

        F = [delta(LY) + (1/p) LY J] LY^(-1)

    needs no inverse.  As Lambda_p delta = p delta Lambda_p, row i + 1 of LY is
    p delta(row i) + (row i) J, so F's first n - 1 rows are those of J/p, and its last
    row f solves f LY = delta(y) + (1/p) y J, y the last row of LY:

        f_m = m y_m + (1/p) y_m J - sum_{k<m} f_k LY_(m-k).

    Both run on integers over one denominator > 0 per m, cut by one gcd (Y_m's rows
    are integer combinations of its row 0, so that row's gcd serves).

    Raises BadPrime for a p that is not prime.  Checks p F(0) = G(0) exactly; given the
    series solution f (f(0) = 1), also that the last row of F annihilates
    (Lambda_p f, Lambda_p delta f, ..., delta(Lambda_p delta^(n-1) f)).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not is_prime(p):
        raise BadPrime(f"{p} is not prime")
    Ld = to_delta(L)
    if Ld.field != QQ:
        raise TypeError("the Frobenius shadow is computed over Q")
    n = Ld.order
    den, M = companion(Ld)
    # G(0)'s last row from one series term (a pole at 0 raises NotSeriesExpandable here)
    if any(ratfun_series(RatFun(m, den), 1)[0] for m in M[n - 1]):
        raise SylvesterSingular("operator is not MOM at zero: G(0) has a nonzero last row")

    # G(0) = J makes q_0 = c x^n, so the operator has a recurrence
    _, (q0, *Q) = _cleared([P.coeffs for P in recurrence_from(Ld).polys])
    c = q0[n]
    taylor = [[[comb(k, i) * q[k] for k in range(i, len(q))] for i in range(n)] for q in Q]  # q_j(x + eps)
    W = [(-1) ** i * comb(n + i - 1, i) for i in range(n)]  # W_m = sum_i W[i] m^(n-1-i) eps^i
    Ycs = [[[] for _ in range(n)] for _ in range(n)]
    window, LY = deque(maxlen=len(Q)), []  # window[j - 1] = row 0 of Y_(m-j), as (numerators, denominator)
    for m in range(T):
        a, d = [int(j == 0) for j in range(n)], 1  # a_0 = 1
        if m:
            e, R = lcm(*(d for _, d in window)), [0] * n  # R holds e times the sum, e its denominator
            for j, ((b, db), Tj) in enumerate(zip(window, taylor), start=1):  # b / db = a_(m-j)
                for i, t in enumerate(Tj):
                    t = e // db * _horner(t, m - j)
                    for k in range(n - i):
                        R[i + k] += t * b[k]
            row = [-sum(R[i] * W[k - i] * m ** (n - 1 - k + i) for i in range(k + 1)) for k in range(n)]  # -R W_m
            a, d = _reduced(row, c * m ** (2 * n - 1) * e)
        window.appendleft((a, d))
        rows = [a]
        for _ in range(n - 1):
            rows.append([m * x + y for x, y in zip(rows[-1], (0, *rows[-1]))])
        for crow, row in zip(Ycs, rows):
            for cs, x in zip(crow, row):
                cs.append(Fraction(x, d))
        if m % p == 0:
            LY.append((rows, d))

    fs = []  # F's last row, f_m as (numerators, denominator)
    for m, (LYm, l) in enumerate(LY):
        # over E = lcm(p l_m, fd_k l_(m-k)) every term's scale factor E / its denominator is exact
        dens = [fd * LY[m - k][1] for k, (_, fd) in enumerate(fs)]
        E = lcm(p * l, *dens)
        y, a = LYm[-1], E // (p * l)
        f = [a * (m * p * x + w) for x, w in zip(y, (0, *y))]
        for k, ((fk, _), d) in enumerate(zip(fs, dens)):
            f = [t - E // d * sum(map(mul, fk, col)) for t, col in zip(f, zip(*LY[m - k][0]))]
        fs.append(_reduced(f, E))
    tail = [Fraction(0)] * (len(LY) - 1)
    Fcs = [[[Fraction(int(j == i + 1), p), *tail] for j in range(n)] for i in range(n - 1)]
    Fcs.append([[Fraction(f[j], d) for f, d in fs] for j in range(n)])
    del window, LY, fs  # free the integer forms before the residual check; Ycs and Fcs hold the result
    if any(p * Fcs[i][j][0] != int(j == i + 1) for i in range(n) for j in range(n)):
        raise SylvesterSingular("p F(0) != G(0); shadow construction failed")

    F, Y = (tuple(tuple(TruncSeries(QQ, c) for c in row) for row in cs) for cs in (Fcs, Ycs))
    shadow = FrobShadow(F=F, Y=Y, p=p, T=T)
    if solution is not None:
        residual = cartier_row_residual(shadow, solution).coeffs
        if any(residual):
            m = next(i for i, c in enumerate(residual) if c)
            raise SylvesterSingular(f"last-row relation fails at order {m}")
    return shadow


def cartier_row_residual(shadow, f, order=None):
    """Residual of the last-row relation on the Cartier image of the solution vector.

    residual = sum_j F[n-1][j] * Lambda_p(delta^j f)  -  delta(Lambda_p(delta^(n-1) f)),
    computed to `order` (default: what the shadow and f jointly determine, minus one for the delta
    loss).  As Lambda_p(delta^j f) = p^j delta^j Lambda_p(f), that is one `DiffOp.apply` on Lambda_p(f):
    sum_j p^j F[n-1][j] delta^j - p^(n-1) delta^n, its coefficients cut below `order`.
    """
    n, p, row = len(shadow.F), shadow.p, shadow.F[-1]
    g = f.cartier(p, 0)
    avail = min(len(g), *map(len, row))
    if order is None:
        order = avail - 1
    if order > avail:
        raise ValueError(f"cannot certify to order {order}, only {avail} known")
    polys = [[p**j * c for c in F.coeffs[:order]] for j, F in enumerate(row)]
    return diffop_from_polys(QQ, "delta", [*polys, [-(p ** (n - 1))]]).apply(g.truncate(order))


def _reduced(v, d):
    """v / d cut by one gcd to a denominator > 0, as (numerators, denominator)."""
    g = gcd(d, *v) * (-1 if d < 0 else 1)
    return [x // g for x in v], d // g
