"""Linear differential operators over K(z), K = Q or F_p.

An operator is a coefficient vector in one of two bases:

  * D-basis:      L = a_0(z) d^n/dz^n + ... + a_n(z), derivations d/dz
  * Delta-basis:  L = b_0(z) delta^n + ... + b_n(z), delta = z d/dz

coefficients are reduced rational functions, stored by decreasing
derivative order with an explicit (not necessarily monic) leading term.

The module covers the local anatomy of an operator: basis conversion via
falling factorials / Stirling numbers, the singular locus as exact
irreducible factors, Fuchs regularity, indicial polynomial and exponents
at zero, the z -> 1/z transform, reduction mod p, p-curvature, the set of
good primes of a Fuchsian operator, and the coefficient recurrence of a
MOM-at-zero operator.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, lcm

from .errors import BadPrime, LeadingZero, NotMomAtZero, NotSeriesExpandable, ParseError
from .fields import QQ, PrimeField, is_prime, primes_upto
from .linalg import mat_add, mat_mul
from .poly import Poly, format_poly
from .ratfun import RatFun
from .series import TruncSeries

D_BASIS = "d"
DELTA_BASIS = "delta"


class DiffOp:
    """Differential operator; coeffs[0] is the leading (order-n) coefficient."""

    __slots__ = ("field", "basis", "coeffs")

    def __init__(self, field, basis, coeffs):
        if basis not in (D_BASIS, DELTA_BASIS):
            raise ValueError(f"unknown basis {basis!r}")
        coeffs = tuple(
            c if isinstance(c, RatFun) else RatFun.from_poly(c) for c in coeffs
        )
        if not coeffs or coeffs[0].is_zero():
            raise ValueError("leading coefficient must be nonzero")
        if any(c.field != field for c in coeffs):
            raise TypeError("coefficient fields do not match operator field")
        self.field = field
        self.basis = basis
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, derivative_order):
        """Coefficient of d^k (or delta^k) for k = derivative_order."""
        return self.coeffs[self.order - derivative_order]

    def monic_tail(self):
        """The normalized a_1..a_n with a_i the coefficient of the (n-i)-th power."""
        lead = self.coeffs[0]
        return [c / lead for c in self.coeffs[1:]]

    def scale(self, a):
        """Multiply every coefficient by a nonzero rational function."""
        if not isinstance(a, RatFun):
            a = RatFun.constant(self.field, a)
        if a.is_zero():
            raise ValueError("cannot scale an operator by zero")
        return DiffOp(self.field, self.basis, [c * a for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, DiffOp)
            and other.field == self.field
            and other.basis == self.basis
            and other.coeffs == self.coeffs
        )

    def equals_up_to_factor(self, other):
        """True when the operators differ by a nonzero rational-function factor."""
        if self.basis != other.basis or self.order != other.order:
            return False
        ratio = self.coeffs[0] / other.coeffs[0]
        return all(
            (a - b * ratio).is_zero() for a, b in zip(self.coeffs[1:], other.coeffs[1:])
        )

    def apply(self, f):
        """Apply the operator to a truncated series.

        Uses the denominator-cleared delta form, so the residual is exact to
        the full truncation order of f.
        """
        _, polys = cleared(to_delta(self))
        n = len(polys) - 1
        out = TruncSeries.zero(f.field, len(f))
        for k, pk in enumerate(polys):
            power = n - k
            g = f
            for _ in range(power):
                g = g.delta()
            out = out + g.mul_poly(pk)
        return out

    def __repr__(self):
        sym = "d/dz" if self.basis == D_BASIS else "delta"
        parts = []
        for k, c in enumerate(self.coeffs):
            power = self.order - k
            if c.is_zero():
                continue
            if power == 0:
                parts.append(f"({c.num}/{c.den})" if not c.is_polynomial() else f"({c.num})")
            else:
                base = f"({c.num})" if c.is_polynomial() else f"({c.num}/{c.den})"
                parts.append(f"{base}*{sym}^{power}")
        return " + ".join(parts) or "0"


def diffop_from_polys(field, basis, ascending_polys):
    """Operator from polynomial coefficients listed by ascending derivative order."""
    coeffs = [RatFun.from_poly(Poly(field, cs)) for cs in ascending_polys]
    return DiffOp(field, basis, list(reversed(coeffs)))


# -- Stirling numbers ----------------------------------------------------------


@lru_cache(maxsize=None)
def stirling_first(n, k):
    """Signed Stirling numbers of the first kind: z^n d^n = sum_k s(n,k) delta^k."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k > n:
        return 0
    return stirling_first(n - 1, k - 1) - (n - 1) * stirling_first(n - 1, k)


@lru_cache(maxsize=None)
def stirling_second(n, k):
    """Stirling numbers of the second kind: delta^n = sum_k S(n,k) z^k d^k."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k > n:
        return 0
    return stirling_second(n - 1, k - 1) + k * stirling_second(n - 1, k)


def _strip_common_z(coeffs):
    """Divide all coefficients by the largest common power of z."""
    vals = [c.valuation() for c in coeffs if not c.is_zero()]
    v = min(vals)
    if v == 0:
        return list(coeffs)
    field = coeffs[0].field
    shift = RatFun(Poly.one(field), Poly.x(field) ** v) if v > 0 else RatFun.from_poly(
        Poly.x(field) ** (-v)
    )
    return [c * shift for c in coeffs]


def to_delta(L):
    """Rewrite z^n L in the Euler basis delta = z d/dz, common z powers stripped.

    The result annihilates exactly the same series as L.  Delta-basis input
    is returned unchanged.
    """
    if L.basis == DELTA_BASIS:
        return L
    field = L.field
    n = L.order
    out = [RatFun.zero(field) for _ in range(n + 1)]  # index = delta power
    zpow = [RatFun.from_poly(Poly.x(field) ** j) for j in range(n + 1)]
    for i in range(n + 1):  # derivative order
        a = L.coeff(i)
        if a.is_zero():
            continue
        base = a * zpow[n - i]  # a * z^(n-i), to be multiplied by z^i d^i
        for k in range(i + 1):
            s = stirling_first(i, k)
            if s:
                out[k] = out[k] + base.scale(s)
    coeffs = list(reversed(out))
    return DiffOp(field, DELTA_BASIS, _strip_common_z(coeffs))


def to_d(L):
    """Rewrite a delta-basis operator in d/dz, common z powers stripped."""
    if L.basis == D_BASIS:
        return L
    field = L.field
    n = L.order
    out = [RatFun.zero(field) for _ in range(n + 1)]  # index = derivative order
    zpow = [RatFun.from_poly(Poly.x(field) ** j) for j in range(n + 1)]
    for j in range(n + 1):  # delta power
        b = L.coeff(j)
        if b.is_zero():
            continue
        for k in range(j + 1):
            s = stirling_second(j, k)
            if s:
                out[k] = out[k] + (b * zpow[k]).scale(s)
    coeffs = list(reversed(out))
    return DiffOp(field, D_BASIS, _strip_common_z(coeffs))


# -- singular locus --------------------------------------------------------------


@dataclass(frozen=True)
class SingularityReport:
    """Finite singular factors with regularity tags, plus the point at infinity.

    finite_points: list of (monic irreducible Poly, is_regular).
    infinity: one of "regular", "irregular", "nonsingular".
    count_r: number of distinct finite singular points in the algebraic
    closure = sum of the factor degrees.
    """

    finite_points: tuple
    infinity: str
    count_r: int

    def is_fuchsian(self):
        return self.infinity != "irregular" and all(reg for _, reg in self.finite_points)


def singularities(L):
    """Exact singularity analysis of the monic normalization of L."""
    Ld = to_d(L)
    tail = Ld.monic_tail()
    field = Ld.field

    lcm_den = Poly.one(field)
    for a in tail:
        lcm_den = lcm_den.lcm(a.den)
    _, factors = lcm_den.factor()

    finite = []
    count_r = 0
    for fac, _ in factors:
        regular = True
        for i, a in enumerate(tail, start=1):
            mult = _multiplicity(a.den, fac)
            if mult > i:
                regular = False
                break
        finite.append((fac, regular))
        count_r += fac.degree()

    infinity = _infinity_tag(Ld, tail)
    return SingularityReport(tuple(finite), infinity, count_r)


def _multiplicity(den, fac):
    mult = 0
    while True:
        q, r = den.divmod(fac)
        if not r.is_zero():
            return mult
        den = q
        mult += 1


def _infinity_tag(Ld, tail):
    """Classify infinity: ordinary, regular singular, or irregular."""
    # regular-vs-irregular by the degree criterion on the monic coefficients
    degree_ok = all(
        a.is_zero() or a.num.degree() <= a.den.degree() - i
        for i, a in enumerate(tail, start=1)
    )
    # singular at all? equivalent to 0 being a singular point of L(1/z)
    Linf = infinity_transform(Ld)
    singular = any(a.has_pole_at_zero() for a in Linf.monic_tail())
    if not singular:
        return "nonsingular"
    return "regular" if degree_ok else "irregular"


def infinity_transform(L):
    """The operator L_inf with L_inf(g)(z) = 0 iff L(g(1/z))(1/z) = 0.

    Realized by substituting z -> 1/z in the coefficients and replacing the
    derivation by -z^2 d/dz, then stripping common z powers.  Applying the
    transform twice returns L up to a nonzero rational-function factor.
    """
    Ld = to_d(L)
    field = Ld.field
    n = Ld.order
    z2 = Poly(field, (field.zero, field.zero, field.neg(field.one)))  # -z^2
    # powers[i] = (-z^2 d/dz)^i expanded as sum_j c_j(z) d^j, c_j polynomial
    powers = [[Poly.one(field)]]
    for _ in range(n):
        prev = powers[-1]
        nxt = [Poly.zero(field) for _ in range(len(prev) + 1)]
        for j, c in enumerate(prev):
            nxt[j] = nxt[j] + z2 * c.derivative()
            nxt[j + 1] = nxt[j + 1] + z2 * c
        powers.append(nxt)
    out = [RatFun.zero(field) for _ in range(n + 1)]
    for i in range(n + 1):
        a = Ld.coeff(i)
        if a.is_zero():
            continue
        a_inv = a.substitute_inverse()
        for j, c in enumerate(powers[i]):
            if not c.is_zero():
                out[j] = out[j] + a_inv * c
    coeffs = list(reversed(out))
    while len(coeffs) > 1 and coeffs[0].is_zero():
        coeffs = coeffs[1:]
    return DiffOp(field, D_BASIS, _strip_common_z(coeffs))


# -- indicial polynomial and MOM ----------------------------------------------------


def indicial_at_zero(L):
    """The monic indicial polynomial x^n + b_1(0) x^(n-1) + ... + b_n(0).

    Requires every normalized delta-basis coefficient b_i to be expandable
    at 0 (zero ordinary or regular singular); raises NotSeriesExpandable
    otherwise.  The roots are the exponents of L at zero.
    """
    Ld = to_delta(L)
    field = Ld.field
    tail = Ld.monic_tail()
    coeffs = [field.one]
    for b in tail:
        if b.has_pole_at_zero():
            raise NotSeriesExpandable("delta coefficient has a pole at 0")
        coeffs.append(b.eval0())
    return Poly(field, list(reversed(coeffs)))


def is_mom(L):
    """Maximal-order-multiplicity test at zero.

    True iff L is Fuchsian and its indicial polynomial at zero is x^n.
    An order-n operator with an ordinary point at 0 qualifies only when the
    indicial polynomial still collapses to x^n (for n = 1 this means an
    exponent-0 ordinary point, a harmless extension of the usual definition
    that requires 0 to be singular).
    """
    try:
        ind = indicial_at_zero(L)
    except NotSeriesExpandable:
        return False
    n = L.order
    if ind != Poly.x(L.field) ** n:
        return False
    return singularities(L).is_fuchsian()


def exponents_at_zero(L):
    """Roots (with multiplicity) of the indicial polynomial that lie in the field."""
    ind = indicial_at_zero(L)
    _, factors = ind.factor()
    roots = []
    for fac, mult in factors:
        if fac.degree() == 1:
            root = L.field.neg(fac.coeffs[0])
            roots.extend([root] * mult)
    return roots


# -- reduction mod p ------------------------------------------------------------


def cleared(L):
    """Common-denominator form (D, [N_0..N_n]) of L, in L's own basis.

    D is the monic lcm of the coefficient denominators and N_k is the
    polynomial D * coeffs[k], so that L = (1/D) sum_k N_k * d^(n-k) (or
    delta^(n-k)).
    """
    D = Poly.one(L.field)
    for c in L.coeffs:
        D = D.lcm(c.den)
    return D, [c.num * D.exact_div(c.den) for c in L.coeffs]


def reduce_op_mod_p(L, p):
    """Reduce a Q(z)-operator mod p after clearing to primitive integer form.

    Raises BadPrime when p kills the leading coefficient or the leading
    coefficient of the denominator lcm (either would change the operator's
    order or singular structure mod p).
    """
    if not is_prime(p):
        raise BadPrime(f"{p} is not prime")
    if L.field != QQ:
        raise TypeError("operator must be over Q")
    D, polys = cleared(L)
    # primitive integer form: the content of a set of reduced fractions is
    # gcd(numerators) / lcm(denominators)
    values = [c for N in polys for c in N.coeffs]
    content = Fraction(int_gcd(*(c.numerator for c in values)),
                       lcm(*(c.denominator for c in values)))
    Fp = PrimeField(p)
    coeffs = [Poly(Fp, [int(c / content) for c in N.coeffs]) for N in polys]
    if coeffs[0].is_zero():
        raise BadPrime(f"leading coefficient vanishes mod {p}")
    if int(D.content_primitive()[1].leading()) % p == 0:
        raise BadPrime(f"denominator lcm leading coefficient vanishes mod {p}")
    return DiffOp(Fp, L.basis, [RatFun.from_poly(c) for c in coeffs])


# -- p-curvature ----------------------------------------------------------------


def companion(L):
    """Companion system (den, M) of L in its own basis; M/den is the companion matrix.

    From `cleared(L)`'s N_0..N_n: den = N_0, M has den on the superdiagonal
    and last row (-N_n, ..., -N_1).  No gcd is taken.
    """
    _, N = cleared(L)
    n = len(N) - 1
    den, zero = N[0], Poly.zero(L.field)
    M = [[den if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
    M.append([-N[n - j] for j in range(n)])
    return den, M


def p_curvature(Lp):
    """p-th iterate of A -> A' + A*A_1 on the d/dz companion matrix over F_p.

    With A_1 = B_1/D from `companion`, A_k = B_k/D^k where
    B_(k+1) = D*B_k' - k*D'*B_k + B_k*B_1: polynomial matrices, no gcd per
    step.  Returns (A_p, is_nilpotent), nilpotency tested as B_p^n = 0.
    Delta-basis input is converted to d/dz first.
    """
    field = Lp.field
    if not isinstance(field, PrimeField):
        raise TypeError("p-curvature requires an operator over a prime field")
    D, B1 = companion(to_d(Lp))
    dD, B = D.derivative(), B1
    for k in range(1, field.p):
        kdD = dD.scale(k)
        B = mat_add([[D * b.derivative() - kdD * b for b in row] for row in B], mat_mul(B, B1))
    power = B
    for _ in range(len(B) - 1):
        power = mat_mul(power, B)
    nilpotent = all(entry.is_zero() for row in power for entry in row)
    Dp = D**field.p
    return [[RatFun(b, Dp) for b in row] for row in B], nilpotent


# -- good primes ------------------------------------------------------------------


def good_primes(L, bound):
    """Primes <= bound where reduction keeps the full singular geometry.

    Excludes primes dividing (i) any denominator appearing in the Gauss-norm
    normalization of the monic coefficients, (ii) the constant or leading
    coefficient of a finite singular factor with nonzero roots (so that the
    singular points are p-adic units), (iii) the numerator or denominator of
    the product of all pairwise differences of the finite singular points,
    realized through discriminants and resultants of the singular factors.
    """
    if L.field != QQ:
        raise TypeError("good primes are defined for operators over Q")
    Ld = to_d(L)
    bad = []  # integers whose prime divisors are bad primes

    for a in Ld.monic_tail():
        if a.is_zero():
            continue
        _, den_prim = a.den.content_primitive()
        lam = den_prim.leading() / a.den.leading() if a.den.leading() != 0 else Fraction(1)
        bad += [c.denominator for c in a.num.scale(lam).coeffs]

    report = singularities(Ld)
    prim_factors = []
    for fac, _ in report.finite_points:
        _, prim = fac.content_primitive()
        prim_factors.append(prim)
        if not QQ.is_zero(prim.eval(Fraction(0))):  # factor with nonzero roots
            bad += [int(prim.eval(Fraction(0))), int(prim.leading())]

    pairwise = Fraction(1)
    for i, F in enumerate(prim_factors):
        dF = F.degree()
        if dF >= 2:
            pairwise *= F.discriminant() / F.leading() ** (2 * dF - 2)
        for G in prim_factors[i + 1 :]:
            res = F.resultant(G)
            pairwise *= Fraction(res) ** 2 / (
                F.leading() ** (2 * G.degree()) * G.leading() ** (2 * dF)
            )
    if pairwise != 0:
        bad += [pairwise.numerator, pairwise.denominator]

    # only primes up to bound matter, so test them by division; 0 marks nothing
    bad = [v for v in bad if v]
    return [p for p in primes_upto(bound) if all(v % p for v in bad)]


# -- recurrence extraction ----------------------------------------------------------


@dataclass(frozen=True)
class Recurrence:
    """Coefficient recurrence of a MOM-at-zero operator.

    polys = (Q_0, ..., Q_d) over Q in the index variable, with Q_0(x) = x^n:
    a series sum a_m z^m is annihilated iff for all m
        Q_0(m) a_m = -sum_{j=1..d} Q_j(m - j) a_{m-j}.
    """

    polys: tuple
    span: int

    @property
    def order(self):
        return self.polys[0].degree()


def recurrence_from(L):
    """Extract the recurrence by collecting z^n L = sum_j z^j Q_j(delta).

    Requires polynomial delta-basis coefficients after clearing denominators
    and Q_0 proportional to x^n; raises NotMomAtZero otherwise.
    """
    Ld = to_delta(L)
    field = Ld.field
    n = Ld.order
    _, polys = cleared(Ld)  # decreasing delta order
    span = max(p.degree() for p in polys if not p.is_zero())
    Q = []
    for j in range(span + 1):
        Q.append(Poly(field, [polys[n - i][j] for i in range(n + 1)]))
    expected = Poly.x(field) ** n
    if Q[0].is_zero() or Q[0].monic() != expected:
        raise NotMomAtZero(f"Q_0 = {format_poly(Q[0], var='x')} is not proportional to x^{n}")
    lead = Q[0].leading()
    inv = field.inv(lead)
    Q = [q.scale(inv) for q in Q]
    return Recurrence(tuple(Q), span)


def expand(rec, initial, T):
    """Forward-solve the recurrence over Q to a series of order T.

    initial seeds the indices the recurrence leaves free (one value, a(0),
    for a MOM recurrence).  Raises LeadingZero if Q_0 vanishes at an index
    that must be solved.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    field = rec.polys[0].field
    coeffs = [field.coerce(v) for v in initial][:T]
    for m in range(len(coeffs), T):
        q0 = rec.polys[0].eval(field.coerce(m))
        if field.is_zero(q0):
            raise LeadingZero(m)
        acc = field.zero
        for j in range(1, rec.span + 1):
            if m - j < 0:
                break
            qj = rec.polys[j].eval(field.coerce(m - j))
            if not field.is_zero(qj):
                acc = field.add(acc, field.mul(qj, coeffs[m - j]))
        coeffs.append(field.div(field.neg(acc), q0))
    return TruncSeries(field, coeffs)


# -- JSON interchange ------------------------------------------------------------


def diffop_to_json(L):
    """Operator as a JSON-able dict; coeffs listed by ascending derivative order."""
    coeffs = []
    for k in range(L.order + 1):
        c = L.coeff(k)
        num, den = _int_poly_pair(c)
        coeffs.append({"num": num, "den": den})
    return {"basis": L.basis, "coeffs": coeffs}


def _int_poly_pair(c):
    field = c.field
    if isinstance(field, PrimeField):
        return [int(v) for v in c.num.coeffs], [int(v) for v in c.den.coeffs]
    den_lcm = 1
    for v in list(c.num.coeffs) + list(c.den.coeffs):
        den_lcm = den_lcm * v.denominator // int_gcd(den_lcm, v.denominator)
    return (
        [int(v * den_lcm) for v in c.num.coeffs],
        [int(v * den_lcm) for v in c.den.coeffs],
    )


def json_value(data):
    """`data`, parsed first when it is JSON text; bad text is a ParseError."""
    if not isinstance(data, str):
        return data
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", location=f"char {exc.pos}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def diffop_from_json(data, field=QQ):
    """Parse the operator JSON schema; raises ParseError with a location."""
    data = json_value(data)
    if not isinstance(data, dict):
        raise ParseError("operator JSON must be an object")
    basis = data.get("basis")
    if basis not in (D_BASIS, DELTA_BASIS):
        raise ParseError(f"basis must be 'd' or 'delta', got {basis!r}", location="basis")
    raw = data.get("coeffs")
    if not isinstance(raw, list) or not raw:
        raise ParseError("coeffs must be a nonempty array", location="coeffs")
    coeffs = []
    for k, entry in enumerate(raw):
        loc = f"coeffs[{k}]"
        if not isinstance(entry, dict) or "num" not in entry:
            raise ParseError("coefficient must be an object with num/den", location=loc)
        num = entry["num"]
        den = entry.get("den", [1])
        if not isinstance(num, list) or not isinstance(den, list):
            raise ParseError("num/den must be integer arrays", location=loc)
        if any(isinstance(v, (bool, float)) for v in num + den):
            raise ParseError("coefficients must be integers, not floats or booleans", location=loc)
        try:
            npoly = Poly(field, [field.coerce(int(v)) for v in num])
            dpoly = Poly(field, [field.coerce(int(v)) for v in den])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad coefficient: {exc}", location=loc) from exc
        if dpoly.is_zero():
            raise ParseError("zero denominator", location=loc)
        coeffs.append(RatFun(npoly, dpoly))
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    if coeffs[-1].is_zero():
        raise ParseError("operator is zero", location="coeffs")
    return DiffOp(field, basis, list(reversed(coeffs)))
