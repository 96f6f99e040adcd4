"""Lucas-type algebraicity certificates for reductions of MOM series.

Pipeline, for a series f with f(0) = 1 annihilated mod p by a MOM-at-zero
operator of order n with at most r finite singular points:

  1. split: f|_p(z) = P(z) c(z^p) with deg P <= p*d - 1, d the recurrence
     span (two independent construction routes: section-ratio rational
     reconstruction, and the kernel/gap elimination argument);
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
     formula collapses to A_{0,l} with height <= C p^l.

All series identities are certified to an explicit truncation order by an
independent multiply-and-compare pass; the rational functions themselves are
exact finite objects.  A companion construction computes the uniform part
Y of the delta-companion system and the weak Frobenius matrix
F = [delta(Lambda_p Y) + (1/p) Lambda_p(Y) G(0)] (Lambda_p Y)^(-1)
entirely over Q, whose last row annihilates the Cartier image of the
solution vector.
"""

from dataclasses import dataclass
from fractions import Fraction

from .catalog import series_mod_p
from .diffop import companion, good_primes, is_mom, recurrence_from, singularities, to_delta
from .errors import (
    BadPrime,
    HeightBoundViolated,
    NoCycleFound,
    ReconstructionFailed,
    SylvesterSingular,
)
from .fields import QQ, PrimeField
from .linalg import kernel_basis, mat_add, mat_mul
from .poly import Poly
from .ratfun import RatFun
from .series import TruncSeries, ratfun_series

L_BOUND = "L_bound"
L2_BOUND = "L2_bound"
PROP62_BOUND = "prop62_bound"


@dataclass(frozen=True)
class SplitWitness:
    """Polynomial split f = P(z) c(z^p): P with deg P <= p*d - 1."""

    P: Poly
    p: int
    degree_bound: int
    verified_to: int


@dataclass(frozen=True)
class Certificate:
    """Verified identity f|_p(z) = A(z) f|_p(z^(p^level)) to order verified_to."""

    p: int
    level: int
    A: RatFun
    verified_to: int
    height: int
    bound: int
    bound_kind: str
    series: str = ""

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


@dataclass(frozen=True)
class OrbitReport:
    """Cartier orbit data: Lambda^a f = Lambda^(a+b) f certified to order verified_to."""

    preperiod: int
    period: int
    level: int
    verified_to: int


@dataclass(frozen=True)
class FrobShadow:
    """Uniform part Y and weak Frobenius matrix F of a MOM companion system."""

    F: tuple
    Y: tuple
    p: int
    T: int


# -- splitting -----------------------------------------------------------------


def split_pade(f_p, d, p, normalize=True):
    """Split via rational reconstruction of the section ratios.

    Each section cartier(f, p, r) equals P_r(z) c(z) where
    P = sum_r z^r P_r(z^p) with deg P_r <= d - 1, so the ratio of section r
    to section 0 is the rational function P_r / P_0.  The P_r are recovered
    by a linear Pade solve and put over their least common denominator,
    then P is normalized to P(0) = 1 and the split is verified by checking
    that f / P is supported on multiples of p.
    """
    field = f_p.field
    if not isinstance(field, PrimeField) or field.p != p:
        raise ValueError("series must live over F_p")
    if d < 1:
        raise ValueError("recurrence span must be >= 1")
    if f_p.field.is_zero(f_p[0]):
        raise ReconstructionFailed("split requires f(0) != 0")
    sections = [f_p.cartier(p, r) for r in range(p)]
    s0 = sections[0]
    if len(s0) < 2 * d:
        raise ReconstructionFailed(
            f"need at least {2 * d * p} series coefficients for span {d}"
        )
    ratios = []
    for r in range(1, p):
        ratios.append(pade_ratio(sections[r], s0, d - 1))
    common = Poly.one(field)
    for _, v in ratios:
        common = common.lcm(v)
    if common.degree() > d - 1:
        raise ReconstructionFailed("section denominators exceed the span bound")
    parts = [common]
    for u, v in ratios:
        parts.append(u * common.exact_div(v))
    if any(q.degree() > d - 1 for q in parts):
        raise ReconstructionFailed("section numerators exceed the span bound")
    P = Poly.zero(field)
    for r, q in enumerate(parts):
        P = P + q.compose_power(p).shift(r)
    witness = _finish_split(f_p, P, d, p, normalize)
    return witness


def pade_ratio(num_series, den_series, deg_bound):
    """Minimal (u, v), deg <= deg_bound, with u*den = v*num to the working order.

    Returns the gcd-reduced pair with v monic; all solutions of the linear
    system are polynomial multiples of it once the order exceeds twice the
    bound, so the output is canonical up to that normalization.
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
            row.append(field.neg(c))
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
    g = u.gcd(v)
    if g.degree() > 0:
        u, v = u.exact_div(g), v.exact_div(g)
    lc = field.inv(v.leading())
    return u.scale(lc), v.scale(lc)


def split_elimination(f_p, d, p, normalize=True):
    """Split via the kernel/gap argument, an independent oracle for split_pade.

    The d+1 windows v_i = (f_{ip}, ..., f_{ip+d-1}) are linearly dependent;
    a kernel combination u(z) = sum alpha_i z^(ip) makes g = u*f vanish on a
    length-d window starting at pd, the recurrence propagates the gap to
    p(d+1), and the first pd coefficients of g give the split polynomial.
    A series with f(0) = 0 is first stripped of whole z^p blocks.
    """
    field = f_p.field
    if not isinstance(field, PrimeField) or field.p != p:
        raise ValueError("series must live over F_p")
    while not f_p.coeffs or field.is_zero(f_p[0]):
        if len(f_p) < p:
            raise ReconstructionFailed("series vanished under z^p stripping")
        if any(not field.is_zero(c) for c in f_p.coeffs[:p]):
            raise ReconstructionFailed("f(0) = 0 but the first p coefficients are not all zero")
        f_p = TruncSeries(field, f_p.coeffs[p:])
        if f_p.is_zero():
            raise ReconstructionFailed("zero series cannot be split")
    need = p * (d + 1) + p * d
    if len(f_p) < need:
        raise ReconstructionFailed(f"need {need} coefficients, have {len(f_p)}")
    windows = []
    for i in range(d + 1):
        windows.append([f_p[i * p + t] for t in range(d)])
    # u = sum_i beta_i z^(ip) kills the window when sum_i beta_i v_{d-i} = 0
    rows = [[windows[d - i][t] for i in range(d + 1)] for t in range(d)]
    basis = kernel_basis(field, rows, d + 1)
    if not basis:
        raise ReconstructionFailed("window vectors are linearly independent")
    beta = basis[0]
    for cand in basis:
        if not field.is_zero(cand[0]):  # prefer u(0) != 0 so that P(0) != 0
            beta = cand
            break
    u = Poly.zero(field)
    for i, b in enumerate(beta):
        if not field.is_zero(b):
            u = u + Poly.constant(field, b).shift(i * p)
    g = f_p.mul_poly(u)
    gap = [g[m] for m in range(p * d, min(p * (d + 1), len(g)))]
    if any(not field.is_zero(c) for c in gap):
        raise ReconstructionFailed("gap argument failed: window not annihilated")
    P = Poly(field, g.coeffs[: p * d])
    if P.is_zero():
        raise ReconstructionFailed("gap elimination produced the zero polynomial")
    return _finish_split(f_p, P, d, p, normalize)


def _finish_split(f_p, P, d, p, normalize):
    field = f_p.field
    if normalize:
        c0 = P.eval(field.zero)
        if not field.is_zero(c0):
            P = P.scale(field.inv(c0))
        else:
            P = P.scale(field.inv(P.coeffs[P.valuation()]))
    v = P.valuation()
    if v % p != 0:
        raise ReconstructionFailed("split polynomial valuation not divisible by p")
    P_hat = Poly(field, P.coeffs[v:])
    quotient = f_p.div_poly(P_hat)
    for m, c in enumerate(quotient.coeffs):
        if m % p != 0 and not field.is_zero(c):
            raise ReconstructionFailed(
                f"f / P is not a series in z^p (index {m})"
            )
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
    d = span if span is not None else n * r
    if d > n * r:
        raise ValueError("span exceeds the Fuchsian degree bound n*r")
    witness = split_pade(f_p, d, p)
    A = _prop62_ratfun(witness.P, p)
    bound = n * r * p - 1
    if A.height > bound:
        raise HeightBoundViolated(A.height, bound, what="one-step certificate")
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


def _prop62_ratfun(P, p):
    field = P.field
    lam = Poly(field, P.coeffs[::p])  # Lambda_p(P)
    return RatFun(P, lam.compose_power(p))


def _verify_power_identity(f, A, g, p, m):
    """Check f = A * g(z^(p^m)) to the full order of f by multiply-and-compare."""
    T = len(f)
    composed = g.compose_power(p, m, out_len=min(T, len(g) * p**m))
    T = min(T, len(composed))
    lhs = f.truncate(T).mul_poly(A.den)
    rhs = composed.truncate(T).mul_poly(A.num)
    if not lhs.eq_to_order(rhs, T):
        idx = lhs.first_difference(rhs)
        raise ReconstructionFailed(f"certificate identity fails at order {idx}")
    return T


def iterate_certificates(f_p, i, m, p, n, r, span=None):
    """The rational function A_{i,m} with Lambda^i f = A_{i,m} (Lambda^(i+m) f)^(p^m).

    Built by the telescoping product A_{i,m+1} = A_{i,m} * (step)^(p^m) over
    the one-step certificates of the successive Cartier iterates; the base
    case A_{i,0} = 1.  Heights obey height(A_{i,m}) <= 2nr p^m.
    """
    field = f_p.field
    iterates = [f_p]
    for _ in range(i + m):
        iterates.append(iterates[-1].cartier(p, 0))
    A = RatFun.one(field)
    for k in range(m):
        step = certificate_prop62(iterates[i + k], n, r, p, span=span)
        A = A * step.A ** (p**k)
        partial_bound = 2 * n * r * p ** (k + 1)
        if A.height > partial_bound:
            raise HeightBoundViolated(A.height, partial_bound, what="iterated certificate")
    if m > 0:
        _verify_power_identity(iterates[i], A, iterates[i + m], p, m)
    return A


# -- orbit detection -----------------------------------------------------------------


def orbit_detect(f_p, p, max_steps=6, min_length=32):
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


def assemble_certificate(seqgen, p, T=None, max_steps=6, min_length=32):
    """End-to-end certificate f|_p(z) = A_p(z) f|_p(z^(p^l)) for a catalog entry.

    Requires the entry's operator to be MOM at zero and p to be one of its
    good primes.  The level comes from orbit detection; the certificate is
    assembled as A_{0,l} (A_{l,l}/A_{0,l})^(p^l) and carries the L^2-type
    bound 2C p^(2l) with C = 2nr, or collapses to A_{0,l} with the L-type
    bound C p^l when the orbit has no preperiod.
    """
    L = seqgen.operator
    if L is None:
        raise BadPrime(f"series {seqgen.name!r} has no operator in the catalog")
    if not is_mom(L):
        raise BadPrime(f"operator of {seqgen.name!r} is not MOM at zero")
    if p not in good_primes(L, p):
        raise BadPrime(f"{p} is not a good prime for {seqgen.name!r}")
    n = L.order
    r = singularities(L).count_r
    span = recurrence_from(L).span
    C = 2 * n * r

    if T is None:
        # probe until the orbit is visible (iterate lengths shrink by p per
        # step), then size T from the certified height bound
        probe = 512
        for attempt in range(5):
            f_p = series_mod_p(seqgen, p, probe)
            try:
                orbit = orbit_detect(f_p, p, max_steps=max_steps, min_length=min_length)
                break
            except NoCycleFound:
                if attempt == 4:
                    raise
                probe *= p
        if orbit.preperiod == 0:
            bound_guess = C * p**orbit.level
        else:
            bound_guess = 2 * C * p ** (2 * orbit.level)
        T = max(2 * bound_guess + 16, 512, probe)
    f_p = series_mod_p(seqgen, p, T)
    orbit = orbit_detect(f_p, p, max_steps=max_steps, min_length=min_length)
    level = orbit.level

    A0l = iterate_certificates(f_p, 0, level, p, n, r, span=span)
    All = iterate_certificates(f_p, level, level, p, n, r, span=span)
    if orbit.preperiod == 0:
        A = A0l
        bound = C * p**level
        kind = L_BOUND
        if All != A0l:
            raise ReconstructionFailed("orbit has no preperiod but A_{l,l} != A_{0,l}")
    else:
        A = A0l * (All / A0l) ** (p**level)
        bound = 2 * C * p ** (2 * level)
        kind = L2_BOUND
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


def verify_certificate(cert, f_p):
    """Re-check a certificate against a freshly expanded reduction."""
    try:
        _verify_power_identity(f_p, cert.A, f_p, cert.p, cert.level)
    except ReconstructionFailed:
        return False
    return True


def certificate_from_json(data, p=None):
    field = PrimeField(p if p is not None else data["p"])
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

    Solves delta Y = G Y - Y G(0) (Y(0) = I) for the delta-companion G = M/den
    by the coefficient recurrence of den delta Y = M Y - den Y G(0), in which
    Y_m needs only the s previous terms (s the degree span of den and M); G(0)
    is nilpotent, so every m >= 1 gives an invertible Sylvester step.  Then forms

        F = [delta(Lambda_p Y) + (1/p) Lambda_p(Y) G(0)] (Lambda_p Y)^(-1)

    on truncations.  Checks p F(0) = G(0) exactly.  When the distinguished
    series solution f (f(0) = 1) is supplied, the construction additionally
    verifies that the last row of F annihilates
    (Lambda_p f, Lambda_p delta f, ..., delta(Lambda_p delta^(n-1) f)).
    """
    Ld = to_delta(L)
    if Ld.field != QQ:
        raise TypeError("the Frobenius shadow is computed over Q")
    n = Ld.order
    den, M = companion(Ld)
    # G = M/den: G(0) is ones on the superdiagonal over one series term of the
    # last row (a pole at 0 raises NotSeriesExpandable here)
    G0 = [[Fraction(int(j == i + 1)) for j in range(n)] for i in range(n - 1)]
    G0.append([ratfun_series(RatFun(m, den), 1)[0] for m in M[n - 1]])
    if any(G0[n - 1]):
        raise SylvesterSingular("operator is not MOM at zero: G(0) has a nonzero last row")

    # uniform part from den dY = M Y - den Y G0, the common power of z divided
    # out so that M_0 = den_0 G0; the coefficient of z^m is
    # den_0 (m - ad_G0) Y_m = sum_{i=1..s} M_i Y_{m-i} - den_i ((m-i) Y_{m-i} + Y_{m-i} G0)
    v = min(P.valuation() for P in (den, *M[n - 1]) if P)
    s = max(P.degree() for P in (den, *M[n - 1])) - v
    Ms = [[[P[i + v] for P in row] for row in M] for i in range(s + 1)]
    Y = [_eye(n)]
    for m in range(1, T):
        rhs = _zero_mat(n)
        for i in range(1, min(m, s) + 1):
            Yk, d = Y[m - i], den[i + v]
            rhs = mat_add(rhs, mat_mul(Ms[i], Yk))
            if d:
                YG = mat_mul(Yk, G0)
                rhs = [[r - d * ((m - i) * y + g) for r, y, g in zip(*rows)] for rows in zip(rhs, Yk, YG)]
        Y.append(_sylvester_solve([[r / den[v] for r in row] for row in rhs], G0, m, n))

    Tp = (T + p - 1) // p
    LY = [[TruncSeries(QQ, [Y[m][i][j] for m in range(T)]).cartier(p, 0).truncate(Tp)
           for j in range(n)] for i in range(n)]
    LY_inv = _mat_series_inverse(LY, Tp)
    dLY = [[LY[i][j].delta() for j in range(n)] for i in range(n)]
    scaled = [
        [
            TruncSeries(
                QQ,
                [
                    sum(LY[i][k][m] * G0[k][j] for k in range(n)) / p
                    for m in range(Tp)
                ],
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    numer = [[dLY[i][j] + scaled[i][j] for j in range(n)] for i in range(n)]
    F = mat_mul(numer, LY_inv)

    F0 = [[F[i][j][0] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if p * F0[i][j] != G0[i][j]:
                raise SylvesterSingular("p F(0) != G(0); shadow construction failed")

    shadow = FrobShadow(
        F=tuple(tuple(row) for row in F),
        Y=tuple(tuple(TruncSeries(QQ, [Y[m][i][j] for m in range(T)]) for j in range(n)) for i in range(n)),
        p=p,
        T=T,
    )
    if solution is not None:
        residual = cartier_row_residual(shadow, solution)
        if not residual.is_zero():
            raise SylvesterSingular(
                f"last-row relation fails at order {residual.first_difference(TruncSeries.zero(QQ, len(residual)))}"
            )
    return shadow


def cartier_row_residual(shadow, f, order=None):
    """Residual of the last-row relation on the Cartier image of the solution vector.

    residual = sum_j F[n-1][j] * Lambda_p(delta^j f)  -  delta(Lambda_p(delta^(n-1) f)),
    computed to `order` (default: what the shadow and f jointly determine,
    minus one for the delta loss).
    """
    n = len(shadow.F)
    p = shadow.p
    vec = []
    g = f
    for _ in range(n):
        vec.append(g.cartier(p, 0))
        g = g.delta()
    avail = min(min(len(v) for v in vec), min(len(shadow.F[n - 1][j]) for j in range(n)))
    if order is None:
        order = avail - 1
    if order > avail:
        raise ValueError(f"cannot certify to order {order}, only {avail} known")
    acc = TruncSeries.zero(QQ, order)
    for j in range(n):
        acc = acc + (shadow.F[n - 1][j].truncate(order) * vec[j].truncate(order))
    acc = acc - vec[n - 1].delta().truncate(order)
    return acc


def _zero_mat(n):
    return [[Fraction(0) for _ in range(n)] for _ in range(n)]


def _eye(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _sylvester_solve(rhs, G0, m, n):
    """Solve (m - ad_{G0}) Y = rhs by the finite Neumann series of the nilpotent ad."""
    term = rhs
    acc = _zero_mat(n)
    power = 1
    for _ in range(2 * n + 1):
        if all(all(v == 0 for v in row) for row in term):
            break
        power_m = Fraction(1, m**power)
        acc = mat_add(acc, [[v * power_m for v in row] for row in term])
        term = mat_add(mat_mul(G0, term), [[-v for v in row] for row in mat_mul(term, G0)])
        power += 1
    else:
        raise SylvesterSingular("adjoint of G(0) is not nilpotent")
    return acc


def _mat_series_inverse(M, T):
    """Inverse of a series matrix with M(0) = I, coefficientwise."""
    n = len(M)
    Mk = [[[M[i][j][m] for j in range(n)] for i in range(n)] for m in range(T)]
    inv = [_eye(n)]
    for m in range(1, T):
        acc = _zero_mat(n)
        for k in range(1, m + 1):
            acc = mat_add(acc, mat_mul(inv[m - k], Mk[k]))
        inv.append([[-v for v in row] for row in acc])
    return [
        [TruncSeries(QQ, [inv[m][i][j] for m in range(T)]) for j in range(n)]
        for i in range(n)
    ]
