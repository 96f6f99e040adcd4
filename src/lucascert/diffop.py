"""Linear differential operators over K(z), K = Q or F_p.

An operator is stored in its cleared polynomial form, in one of two bases:

  * D-basis:      L = (1/D) (N_0(z) d^n/dz^n + ... + N_n(z)), derivations d/dz
  * Delta-basis:  L = (1/D) (N_0(z) delta^n + ... + N_n(z)), delta = z d/dz

with polynomials D (`den`, monic) and N_0..N_n (`nums`, by decreasing
derivative order, N_0 nonzero) and gcd(D, N_0, ..., N_n) = 1, so the form
is unique.  `coeffs` views the reduced rational coefficients N_k / D.

The module covers the local anatomy of an operator: the change of
derivation between d/dz and delta and the z -> 1/z transform, all three
by one rewriting of the polynomial form, the indicial polynomial
and exponents at zero, reduction mod p, p-curvature, and the coefficient
recurrence of a MOM-at-zero operator.  `singularities` is the
one analysis of the singular locus: exact irreducible factors, Fuchs
regularity and, over Q, the integers whose prime divisors are the bad
primes.  It factors once per operator and keeps its report on the
operator, so MOM tests, good primes and certificates share it.
"""

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import BadPrime, LeadingZero, NotMomAtZero, NotSeriesExpandable, ParseError
from .fields import QQ, PrimeField, is_prime, primes_upto
from .poly import Poly, _cleared, content, format_poly
from .ratfun import RatFun, common_denominator
from .series import TruncSeries

D_BASIS = "d"
DELTA_BASIS = "delta"


class DiffOp:
    """The operator (1/den) sum_k nums[k] X^(n-k), X = d/dz or delta, in its stored form."""

    __slots__ = ("field", "basis", "den", "nums", "_singularities")

    def __init__(self, field, basis, coeffs):
        """The operator sum_k coeffs[k] X^(n-k) from RatFun or Poly coefficients."""
        coeffs = [c if isinstance(c, RatFun) else RatFun.from_poly(c) for c in coeffs]
        if any(c.field != field for c in coeffs):
            raise TypeError("coefficient fields do not match operator field")
        self._store(field, basis, *common_denominator(field, [(c.num, c.den) for c in coeffs]))

    @classmethod
    def _from_cleared(cls, field, basis, den, nums):
        """The operator (1/den) sum_k nums[k] X^(n-k) from polynomials, with no RatFun."""
        L = cls.__new__(cls)
        L._store(field, basis, den, nums)
        return L

    def _store(self, field, basis, den, nums):
        """Keep (1/den) sum_k nums[k] X^(n-k) reduced by one gcd chain, den made monic."""
        if basis not in (D_BASIS, DELTA_BASIS):
            raise ValueError(f"unknown basis {basis!r}")
        if not nums or nums[0].is_zero():
            raise ValueError("leading coefficient must be nonzero")
        g = _common_gcd(den, nums)
        if g.degree() > 0:
            den, nums = den.exact_div(g), [N.exact_div(g) for N in nums]
        lc_inv = field.inv(den.leading())
        self.field = field
        self.basis = basis
        self.den = den.scale(lc_inv)
        self.nums = tuple(N.scale(lc_inv) for N in nums)
        self._singularities = None  # filled in by the first singularities(self)

    @property
    def order(self):
        return len(self.nums) - 1

    @property
    def coeffs(self):
        """The reduced coefficients N_k / den, leading first; built on every access."""
        return tuple(RatFun(N, self.den) for N in self.nums)

    def monic_tail(self):
        """The normalized a_1..a_n with a_i the coefficient of the (n-i)-th power."""
        # a_i = N_i / N_0: den cancels, so no coefficient is reduced on its own
        lead, *tail = map(RatFun.from_poly, self.nums)
        return [c / lead for c in tail]

    def __eq__(self, other):
        return (
            isinstance(other, DiffOp)
            and other.field == self.field
            and other.basis == self.basis
            and other.den == self.den
            and other.nums == self.nums
        )

    def apply(self, f):
        """Apply the numerators of the delta form (`to_delta`) to f, exact to its truncation order.

        Coefficient m is sum_j Q_j(m - j) f_(m-j), with the Q_j of `_index_polys`, summed
        on integers (`poly._cleared`) into one Fraction, or one residue mod p, per coefficient.
        """
        if f.field != self.field:
            raise TypeError("series/operator fields do not match")
        fden, (fs,) = _cleared([f.coeffs])
        qden, Q = _cleared([P.coeffs for P in _index_polys(to_delta(self))])
        out = [sum(_horner(q, m - j) * fs[m - j] for j, q in enumerate(Q[: m + 1])) for m in range(len(fs))]
        p, den = self.field.char, fden * qden
        return TruncSeries._canonical(self.field, [c % p for c in out] if p else [Fraction(c, den) for c in out])

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


def _common_gcd(P, others):
    """A gcd of the nonzero P and others; no gcd is taken once it is a constant."""
    for Q in others:
        if P.degree() > 0:
            P = P.gcd(Q)
    return P


def diffop_from_polys(field, basis, ascending_polys):
    """Operator from polynomial coefficients listed by ascending derivative order."""
    nums = [Poly(field, cs) for cs in reversed(ascending_polys)]
    return DiffOp._from_cleared(field, basis, Poly.one(field), nums)


# -- change of derivation --------------------------------------------------------


def _rewrite(field, basis, D, N, table):
    """The operator (1/D) sum_i N_i X_i with each X_i = sum_j table[i][j] Y^j.

    N lists numerators by ascending power i of the source derivation X;
    the result is in the target basis of Y, with the common power of z
    stripped from its coefficients.
    """
    M = [Poly.zero(field)] * len(N)
    for Ni, row in zip(N, table):
        for j, c in enumerate(row):
            M[j] = M[j] + c * Ni
    w = min(P.valuation() for P in M if P)
    D = Poly(field, D.coeffs[D.valuation():])
    return DiffOp._from_cleared(field, basis, D, [Poly(field, P.coeffs[w:]) for P in reversed(M)])


def _powers(g, n):
    """(g d/dz)^i for i = 0..n, each as its polynomial coefficients of d^0..d^i."""
    field = g.field
    powers = [[Poly.one(field)]]
    for _ in range(n):
        prev = powers[-1]
        nxt = [Poly.zero(field)] * (len(prev) + 1)
        for j, c in enumerate(prev):
            nxt[j] = nxt[j] + g * c.derivative()
            nxt[j + 1] = nxt[j + 1] + g * c
        powers.append(nxt)
    return powers


def to_delta(L):
    """Rewrite z^n L in the Euler basis delta = z d/dz, common z powers stripped.

    The result annihilates exactly the same series as L.  Delta-basis input
    is returned unchanged.
    """
    if L.basis == DELTA_BASIS:
        return L
    field = L.field
    n = L.order
    # z^n d^i = z^(n-i) delta (delta - 1) ... (delta - i + 1)
    table, falling = [], Poly.one(field)
    for i in range(n + 1):
        table.append([Poly.constant(field, c).shift(n - i) for c in falling.coeffs])
        falling = falling * Poly(field, (field.coerce(-i), field.one))
    return _rewrite(field, DELTA_BASIS, L.den, L.nums[::-1], table)


def to_d(L):
    """Rewrite a delta-basis operator in d/dz, common z powers stripped."""
    if L.basis == D_BASIS:
        return L
    return _rewrite(L.field, D_BASIS, L.den, L.nums[::-1], _powers(Poly.x(L.field), L.order))


# -- singular locus --------------------------------------------------------------


class SingularityReport(namedtuple("SingularityReport", "finite_points infinity count_r bad_integers")):
    """Finite singular factors with regularity tags, plus the point at infinity.

    finite_points: list of (monic irreducible Poly, is_regular).
    infinity: one of "regular", "irregular", "nonsingular".
    count_r: number of distinct finite singular points in the algebraic
    closure = sum of the factor degrees.
    bad_integers: over Q, nonzero integers such that a prime is bad for the
    operator exactly when it divides one of them; None over F_p.
    """

    __slots__ = ()

    def is_fuchsian(self):
        return self.infinity != "irregular" and all(reg for _, reg in self.finite_points)


def singularities(L):
    """Exact singularity analysis of the monic normalization of L.

    From the d-form numerators: the singular factors f divide N_0 / gcd(N_0, ..., N_n),
    and f is regular when mult_f(N_0) - mult_f(N_i) <= i for every nonzero N_i.
    Computed on the first call and kept on L, which is immutable.
    """
    if L._singularities is not None:
        return L._singularities
    Ld = to_d(L)
    lead, *tail = Ld.nums
    _, factors = lead.exact_div(_common_gcd(lead, tail)).factor()

    finite = []
    count_r = 0
    for fac, _ in factors:
        mult = _multiplicity(lead, fac)
        regular = all(not P or mult - _multiplicity(P, fac) <= i for i, P in enumerate(tail, start=1))
        finite.append((fac, regular))
        count_r += fac.degree()

    infinity = _infinity_tag(Ld)
    bad = _good_prime_obstructions(Ld.monic_tail(), finite) if Ld.field == QQ else None
    L._singularities = SingularityReport(tuple(finite), infinity, count_r, bad)
    return L._singularities


def _good_prime_obstructions(tail, finite):
    """The bad integers of a Q-operator from its monic tail and singular factors.

    A prime is bad when it divides (i) a denominator of the Gauss-norm
    normalization of a monic coefficient, (ii) the constant or leading
    coefficient of a primitive singular factor with nonzero roots, so that
    the singular points are p-adic units, or (iii) the numerator or
    denominator of the product of the squared pairwise differences of all
    finite singular points: disc(S) / lc(S)^(2 deg S - 2) for the product S
    of the primitive singular factors.
    """
    bad = []
    for a in tail:
        if not a.is_zero():
            # a.den is monic: dividing it by its content makes it primitive
            c = content([a.den])
            bad += [(v / c).denominator for v in a.num.coeffs]

    S = Poly.one(QQ)
    for fac, _ in finite:
        _, prim = fac.content_primitive()
        S = S * prim
        if prim[0]:  # a factor with nonzero roots
            bad += [int(prim[0]), int(prim.leading())]

    pairwise = S.discriminant() / S.leading() ** (2 * S.degree() - 2)
    bad += [pairwise.numerator, pairwise.denominator]
    # primes are tested against these by division; 0 marks nothing
    return tuple(v for v in bad if v)


def _multiplicity(P, fac):
    """The multiplicity of the irreducible fac in the nonzero P."""
    mult = 0
    while True:
        q, r = P.divmod(fac)
        if not r.is_zero():
            return mult
        P = q
        mult += 1


def _infinity_tag(Ld):
    """Classify infinity: ordinary, regular singular, or irregular."""
    # singular at all? equivalent to 0 being a singular point of L(1/z)
    if not _pole_at_zero(infinity_transform(Ld).nums):
        return "nonsingular"
    # regular-vs-irregular by the degree criterion on the monic coefficients N_i / N_0
    N = Ld.nums
    regular = all(not P or P.degree() <= N[0].degree() - i for i, P in enumerate(N))
    return "regular" if regular else "irregular"


def _pole_at_zero(N):
    """True when some N_i / N_0 has a pole at z = 0."""
    v = N[0].valuation()
    return any(P and P.valuation() < v for P in N[1:])


def infinity_transform(L):
    """The operator L_inf with L_inf(g)(z) = 0 iff L(g(1/z))(1/z) = 0.

    Realized by substituting z -> 1/z in the coefficients and replacing the
    derivation by -z^2 d/dz, then stripping common z powers.  Applying the
    transform twice returns L up to a nonzero rational-function factor.
    """
    Ld = to_d(L)
    field = Ld.field
    D, N = Ld.den, Ld.nums
    # z^e P(1/z) for every coefficient: one common factor z^e keeps the quotients N_i / D
    e = max(P.degree() for P in (D, *N))
    D, *N = [P.reverse().shift(e - P.degree()) for P in (D, *N[::-1])]
    minus_z2 = Poly(field, (0, 0, -1))
    return _rewrite(field, D_BASIS, D, N, _powers(minus_z2, Ld.order))


# -- indicial polynomial and MOM ----------------------------------------------------


def indicial_at_zero(L):
    """The monic indicial polynomial x^n + b_1(0) x^(n-1) + ... + b_n(0).

    Requires every normalized delta-basis coefficient b_i to be expandable
    at 0 (zero ordinary or regular singular); raises NotSeriesExpandable
    otherwise.  The roots are the exponents of L at zero.
    """
    Ld = to_delta(L)
    if _pole_at_zero(Ld.nums):
        raise NotSeriesExpandable("delta coefficient has a pole at 0")
    return _index_polys(Ld)[Ld.nums[0].valuation()].monic()


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
            root = L.field.coerce(-fac.coeffs[0])
            roots.extend([root] * mult)
    return roots


# -- reduction mod p ------------------------------------------------------------


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
    Fp = PrimeField(p)
    _, ints = _cleared([N.coeffs for N in L.nums])
    g = gcd(*(v for s in ints for v in s))
    coeffs = [Poly(Fp, [v // g for v in s]) for s in ints]
    if coeffs[0].is_zero():
        raise BadPrime(f"leading coefficient vanishes mod {p}")
    if int(L.den.content_primitive()[1].leading()) % p == 0:
        raise BadPrime(f"denominator lcm leading coefficient vanishes mod {p}")
    return DiffOp._from_cleared(Fp, L.basis, Poly.one(Fp), coeffs)


# -- p-curvature ----------------------------------------------------------------


def companion(L):
    """Companion system (den, M) of L in its own basis; M/den is the companion matrix.

    From L's numerators N_0..N_n: den = N_0, M has den on the superdiagonal
    and last row (-N_n, ..., -N_1).  No gcd is taken.
    """
    N = L.nums
    n = len(N) - 1
    den, zero = N[0], Poly.zero(L.field)
    M = [[den if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
    M.append([-N[n - j] for j in range(n)])
    return den, M


def p_curvature(Lp):
    """p-curvature of Lp over F_p: the p-th iterate of A -> A' + A*A_1 on the d/dz companion matrix.

    With A_1 = B_1/D from `companion`, A_k = B_k/D^k, and row i of A_k is
    row 0 of A_(k+i): the expression of d^(k+i) mod L in y, ..., y^(n-1).
    So one row is iterated, r_0 = (1, 0, ..., 0) and
    r_(k+1) = D*r_k' - k*D'*r_k + r_k*B_1, for p + n - 1 steps, and row i
    of B_p is r_(p+i)/D^i (an exact division, which raises if it is not).
    Returns ((D^p, B_p), is_nilpotent): A_p = B_p/D^p in the (den,
    polynomial matrix) shape of `companion`, unreduced.  A_p is the matrix of
    psi = d^p on K[d]/K[d]L, and psi commutes with d, so
    psi^n(d^i) = d^i*psi^n(1): A_p^n = 0 exactly when its first row,
    d^(pn) mod L, is zero.  Delta-basis input is converted to d/dz first.
    """
    field = Lp.field
    if not isinstance(field, PrimeField):
        raise TypeError("p-curvature requires an operator over a prime field")
    D, B1 = companion(to_d(Lp))
    p, dD, zero = field.p, D.derivative(), Poly.zero(field)
    r, B = [Poly.one(field)] + [zero] * (len(B1) - 1), []
    for k in range(p + len(B1) - 1):
        kdD = dD.scale(k)  # r*B_1 below: D*r_(j-1) from the superdiagonal, r_(n-1) times the last row
        r = [D * (a.derivative() + b) - kdD * a + r[-1] * c for a, b, c in zip(r, [zero] + r[:-1], B1[-1])]
        if k + 1 >= p:
            B.append([e.exact_div(D ** len(B)) for e in r])
    v = B[0]
    for _ in range(len(B) - 1):
        v = [sum((a * b for a, b in zip(v, col)), zero) for col in zip(*B)]
    return (D**p, B), not any(v)


# -- good primes ------------------------------------------------------------------


def good_primes(L, bound):
    """Primes <= bound where reduction keeps the full singular geometry.

    A prime is good when it divides none of `singularities(L).bad_integers`.
    """
    if L.field != QQ:
        raise TypeError("good primes are defined for operators over Q")
    bad = singularities(L).bad_integers
    return [p for p in primes_upto(bound) if all(v % p for v in bad)]


# -- recurrence extraction ----------------------------------------------------------


class Recurrence(namedtuple("Recurrence", "polys span")):
    """Coefficient recurrence of a MOM-at-zero operator.

    polys = (Q_0, ..., Q_d) over Q in the index variable, with Q_0(x) = x^n:
    a series sum a_m z^m is annihilated iff for all m
        Q_0(m) a_m = -sum_{j=1..d} Q_j(m - j) a_{m-j}.
    """

    __slots__ = ()

    @property
    def order(self):
        return self.polys[0].degree()


def recurrence_from(L):
    """Extract the recurrence by collecting z^n L = sum_j z^j Q_j(delta).

    Requires polynomial delta-basis coefficients after clearing denominators
    and Q_0 proportional to x^n; raises NotMomAtZero otherwise.
    """
    Ld = to_delta(L)
    field, n = Ld.field, Ld.order
    Q = _index_polys(Ld)
    if Q[0].monic() != Poly.x(field) ** n:  # the zero Q_0 included
        raise NotMomAtZero(f"Q_0 = {format_poly(Q[0], var='x')} is not proportional to x^{n}")
    inv = field.inv(Q[0].leading())
    return Recurrence(tuple(q.scale(inv) for q in Q), len(Q) - 1)


def _index_polys(Ld):
    """Q_0, ..., Q_s of the delta-basis Ld = sum_j z^j Q_j(delta), s the largest coefficient degree."""
    n, N = Ld.order, Ld.nums  # N by decreasing delta order
    span = max(P.degree() for P in N)
    return [Poly(Ld.field, [N[n - i][j] for i in range(n + 1)]) for j in range(span + 1)]


def expand(rec, initial, T):
    """Forward-solve the recurrence over Q to a series of order T.

    initial seeds the indices the recurrence leaves free (one value, a(0),
    for a MOM recurrence).  Raises LeadingZero if Q_0 vanishes at an index
    that must be solved.  The Q_j are scaled once to integer polynomials,
    so a term stays an int while Q_0(m) divides exactly; only a nonzero
    remainder makes a Fraction.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if rec.polys[0].field != QQ:
        raise TypeError("expand solves recurrences over Q")
    # a_m = sum_j Q_j(m - j) a_(m-j) / -Q_0(m), every Q_j times the lcm of the denominators
    _, (q0, *rest) = _cleared([P.coeffs for P in rec.polys])
    coeffs = [int(v) if v.denominator == 1 else v for v in map(QQ.coerce, initial[:T])]
    for m in range(len(coeffs), T):
        d = -_horner(q0, m)
        if not d:
            raise LeadingZero(m)
        num = 0
        for j, cs in enumerate(rest[:m], start=1):
            t = _horner(cs, m - j) * coeffs[m - j]
            num = num + t if num else t  # 0 + t would copy a big t
        a, r = divmod(num, d)  # also for a Fraction num: a is then the int floor
        coeffs.append(a if not r else Fraction(num, d))
    return TruncSeries(QQ, coeffs)


def _horner(cs, x):
    """The integer polynomial with coefficients cs, lowest first, at the int x."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


# -- JSON interchange ------------------------------------------------------------


def diffop_to_json(L):
    """Operator as a JSON-able dict; coeffs listed by ascending derivative order.

    Each coefficient is its num/den pair `_cleared`: residues over F_p; over Q a primitive integer
    pair, as den is monic, so the pair's numerators have gcd 1 and its `content` is 1 / the denominator.
    """
    pairs = (_cleared([c.num.coeffs, c.den.coeffs])[1] for c in reversed(L.coeffs))
    return {"basis": L.basis, "coeffs": [{"num": num, "den": den} for num, den in pairs]}


def json_value(data):
    """`data`, parsed first when it is JSON text; bad text, or an int literal too long for int(), is a ParseError."""
    if not isinstance(data, str):
        return data
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", location=f"char {exc.pos}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError:  # an int literal past sys.get_int_max_str_digits(): locate the first outside a string
        limit = sys.get_int_max_str_digits()
        ints = re.finditer(r'"(?:[^"\\]|\\.)*"|(?<![\d.eE+-])-?(\d+)(?![\d.eE])', data)
        at = next((m.start() for m in ints if len(m[1] or "") > limit), None)
        raise ParseError(f"integer literal of more than {limit} digits",
                         location=None if at is None else f"char {at}") from None


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
    pairs = []
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
        pairs.append((npoly, dpoly))
    while len(pairs) > 1 and pairs[-1][0].is_zero():
        pairs.pop()
    if pairs[-1][0].is_zero():
        raise ParseError("operator is zero", location="coeffs")
    # straight into the stored form; _from_cleared divides out what den and the N_k share
    return DiffOp._from_cleared(field, basis, *common_denominator(field, pairs[::-1]))
