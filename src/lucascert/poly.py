"""Dense univariate polynomials over Q or F_p.

Coefficients are stored lowest degree first in a tuple with no trailing
zeros; the zero polynomial is the empty tuple.  Every stored coefficient
is canonical (see `fields`): the constructor coerces what it is given, and
is the one place results are reduced.  The arithmetic below therefore runs
on Python's `+ - *` and hands unreduced lists to the constructor; only a
loop that reads back an intermediate value (the leading remainder term in
`divmod`, the Horner accumulator in `eval`, the running product in
`resultant`) coerces it, once, where it is read.  Multiplication over a
prime field packs coefficients into a single big integer (Kronecker
substitution) so that products of the large polynomial powers showing up
in certificate heights stay cheap.

Irreducible factorization splits off squarefree parts here and factors
each one with the algorithms of `factoring`, which run on this class;
everything else is implemented here directly: division, and the
Euclidean remainder sequence behind gcd, resultant and discriminant.
"""

from fractions import Fraction
from math import gcd as int_gcd, lcm

from .fields import QQ, PrimeField

# Kronecker packing costs about one conversion per operand coefficient,
# schoolbook one field multiply per coefficient pair: pack once the pairs
# outnumber the coefficients this many times over
_KRONECKER_CUTOFF = 2


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        cs = list(map(field.coerce, coeffs))
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def valuation(self):
        """Order of vanishing at 0; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise TypeError("polynomial fields do not match")

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(self.field, out)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return Poly(self.field, convolve(self.field, a, b, len(a) + len(b) - 1))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        if not c:
            return Poly.zero(f)
        return Poly(f, [c * a for a in self.coeffs])

    def shift(self, k):
        """Multiply by z^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (self.field.zero,) * k + self.coeffs)

    def __pow__(self, e, modulus=None):
        """self^e; pow(self, e, m) is self^e mod m, reduced after every product."""
        if e < 0:
            raise ValueError("negative polynomial power")
        reduce = (lambda a: a) if modulus is None else (lambda a: a % modulus)
        result, base = reduce(Poly.one(self.field)), reduce(self)
        while e:
            if e & 1:
                result = reduce(result * base)
            base = reduce(base * base) if e > 1 else base
            e >>= 1
        return result

    def divmod(self, other):
        self._check(other)
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lb = other.degree(), other.leading()
        inv_lb = f.inv(lb)
        if len(rem) - 1 < db:
            return Poly.zero(f), Poly(f, rem)
        quot = [f.zero] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            q = f.coerce(rem[i] * inv_lb)
            if not q:
                continue
            quot[i - db] = q
            for j, bc in enumerate(other.coeffs):
                rem[i - db + j] -= q * bc
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def derivative(self):
        return Poly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        f = self.field
        x = f.coerce(x)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.coerce(acc * x + c)
        return acc

    def compose_power(self, k):
        """Substitute z -> z^k."""
        if k < 1:
            raise ValueError("power must be >= 1")
        if k == 1 or self.is_zero():
            return self
        f = self.field
        out = [f.zero] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(f, out)

    def reverse(self):
        """Coefficient reversal z^deg * p(1/z); drops any root at 0."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    # -- Q <-> Z normalizations ----------------------------------------

    def content_primitive(self):
        """Over Q: scalar c and primitive integer-coefficient poly P with self = c*P.

        c is `content([self])` with the sign of the leading coefficient, so the
        primitive part has integer coefficients with gcd 1 and positive
        leading coefficient.
        """
        if self.field != QQ:
            raise TypeError("content/primitive only defined over Q")
        if self.is_zero():
            return Fraction(0), self
        c = content([self])
        if self.coeffs[-1] < 0:
            c = -c
        return c, Poly(QQ, [v / c for v in self.coeffs])

    # -- gcd, resultant -------------------------------------------------

    def gcd(self, other):
        """Monic gcd; gcd(0, 0) = 0, and 1 at once when either operand is a nonzero constant.

        Over Q both inputs are cleared to primitive integer polynomials and
        a primitive PRS is used, which keeps intermediate coefficients small.
        """
        self._check(other)
        a, b = self, other
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
        if a.degree() == 0 or b.degree() == 0:
            return Poly.one(self.field)
        if self.field == QQ:
            _, a = a.content_primitive()
            _, b = b.content_primitive()
            while not b.is_zero():
                r = a % b
                if r.is_zero():
                    b_next = Poly.zero(QQ)
                else:
                    _, b_next = r.content_primitive()
                a, b = b, b_next
            return a.monic()
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        g = self.gcd(other)
        return (self * other).exact_div(g).monic()

    def resultant(self, other):
        """Res(self, other) by the Euclidean remainder sequence; 0 when either is zero.

        With r = a mod b, Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r),
        and Res(a, c) = c^(deg a) for a nonzero constant c (von zur Gathen and
        Gerhard, Modern Computer Algebra, ch. 6).
        """
        self._check(other)
        f = self.field
        a, b, out = self, other, f.one
        while b.degree() > 0:
            r = a % b
            sign = -1 if a.degree() * b.degree() % 2 else 1
            e = a.degree() - r.degree()
            out = f.coerce(out * sign * b.leading() ** e)
            a, b = b, r
        if a.is_zero() or b.is_zero():
            return f.zero
        return f.coerce(out * b.leading() ** a.degree())

    def discriminant(self):
        """disc = (-1)^(d(d-1)/2) Res(p, p') / lc(p); 1 for degree <= 1."""
        d = self.degree()
        if d <= 1:
            return self.field.one
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        res = self.resultant(self.derivative())
        return self.field.coerce(sign * res * self.field.inv(self.leading()))

    # -- factorization ------------------------------------------------

    def factor(self):
        """Irreducible factorization: (unit, [(monic irreducible Poly, mult), ...]).

        The factors are sorted by (degree, coeffs) and the unit is the
        leading coefficient.
        """
        if self.is_zero():
            return self.field.zero, []
        if self.degree() == 0:
            return self.coeffs[0], []
        # imported here because factoring imports Poly: the package's one import cycle
        from .factoring import factor_squarefree_mod_p, factor_squarefree_z

        out = []
        for part, mult in self._squarefree():
            if self.field == QQ:
                factors = factor_squarefree_z(part.content_primitive()[1])
            else:
                factors = factor_squarefree_mod_p(part)
            out.extend((g.monic(), mult) for g in factors)
        out.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs))
        return self.leading(), out

    def _squarefree(self):
        """[(monic squarefree part, multiplicity), ...] of a nonconstant polynomial.

        The parts are pairwise coprime and their powers multiply to the
        monic form of self.  Over F_p a derivative can vanish on p-th
        powers: what is left after Musser's gcd loop is a p-th power, whose
        p-th root (a^p = a on coefficients) is decomposed in turn.
        """
        out = []
        scale, f = 1, self.monic()
        while f.degree() > 0:
            df = f.derivative()
            if df.is_zero():
                c = f
            else:
                c = f.gcd(df)
                w = f.exact_div(c)
                i = 1
                while w.degree() > 0:
                    y = w.gcd(c)
                    z = w.exact_div(y)
                    if z.degree() > 0:
                        out.append((z, i * scale))
                    w, c, i = y, c.exact_div(y), i + 1
            if c.degree() <= 0:
                break
            p = self.field.char
            f, scale = Poly(self.field, c.coeffs[::p]), scale * p
        return out

    # -- display --------------------------------------------------------

    def __repr__(self):
        return f"Poly({self.field!r}, {format_poly(self)})"

    def __str__(self):
        return format_poly(self)


def format_poly(p, var="z"):
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}" if c != 1 else var)
        else:
            parts.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(parts)


def content(polys):
    """The content of Q-polynomials: gcd of all coefficient numerators / lcm of all denominators.

    Every Fraction is in lowest terms, so dividing by it leaves integer
    coefficients with gcd 1.  0 when every polynomial is zero.
    """
    cs = [c for P in polys for c in P.coeffs]
    return Fraction(int_gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))


def convolve(field, a, b, n):
    """The first n coefficients of the product of coefficient sequences a and b.

    The one product loop of the library, shared by Poly and TruncSeries.
    a and b hold canonical coefficients.  Over F_p, operands that are long
    enough go through Kronecker substitution; everything else is
    schoolbook, skipping zero terms and adding up the products unreduced:
    its output is for a Poly or TruncSeries constructor to reduce.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [field.zero] * n
    if isinstance(field, PrimeField) and len(a) * len(b) >= _KRONECKER_CUTOFF * (len(a) + len(b)):
        out = _kronecker_mul(a, b, field.p, n)
        return out + [0] * (n - len(out))
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [field.zero] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in terms:
            if i + j >= n:
                break
            out[i + j] += x * y
    return out


def _kronecker_mul(a, b, p, n):
    """First n product coefficients over F_p, by packing each operand into one big integer."""
    cell_bits = (min(len(a), len(b)) * (p - 1) * (p - 1)).bit_length() + 1
    width = (cell_bits + 7) // 8
    ia = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    ib = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    n = min(n, len(a) + len(b) - 1)
    raw = (ia * ib).to_bytes(width * (len(a) + len(b)), "little")
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") % p for i in range(n)]
