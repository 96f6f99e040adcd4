"""Dense univariate polynomials over Q or F_p.

Coefficients are stored lowest degree first in a tuple with no trailing
zeros; the zero polynomial is the empty tuple.  Multiplication over a
prime field packs coefficients into a single big integer (Kronecker
substitution) so that products of the large polynomial powers showing up
in certificate heights stay cheap.

Irreducible factorization splits off squarefree parts here and factors
each one with the integer-list kernels of `factoring`; everything else
(Euclid, division, resultants) is implemented here directly.
"""

from fractions import Fraction
from math import gcd as int_gcd

from .factoring import factor_squarefree_mod_p, factor_squarefree_z
from .fields import QQ, PrimeField

# Kronecker packing costs about one conversion per operand coefficient,
# schoolbook one field multiply per coefficient pair: pack once the pairs
# outnumber the coefficients this many times over
_KRONECKER_CUTOFF = 2


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=(), normalize=True):
        self.field = field
        cs = [field.coerce(c) for c in coeffs]
        if normalize:
            while cs and field.is_zero(cs[-1]):
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
            if not self.field.is_zero(c):
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
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __neg__(self):
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs], normalize=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return Poly(self.field, convolve(self.field, a, b, len(a) + len(b) - 1))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        if f.is_zero(c):
            return Poly.zero(f)
        return Poly(f, [f.mul(c, a) for a in self.coeffs], normalize=False)

    def shift(self, k):
        """Multiply by z^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (self.field.zero,) * k + self.coeffs, normalize=False)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
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
            c = rem[i]
            if f.is_zero(c):
                continue
            q = f.mul(c, inv_lb)
            quot[i - db] = q
            for j, bc in enumerate(other.coeffs):
                rem[i - db + j] = f.sub(rem[i - db + j], f.mul(q, bc))
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
        f = self.field
        return Poly(f, [f.mul(f.coerce(i), c) for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        f = self.field
        x = f.coerce(x)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
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
        return Poly(f, out, normalize=False)

    def reverse(self):
        """Coefficient reversal z^deg * p(1/z); drops any root at 0."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    # -- Q <-> Z normalizations ----------------------------------------

    def content_primitive(self):
        """Over Q: scalar c and primitive integer-coefficient poly P with self = c*P.

        The primitive part has integer coefficients with gcd 1 and positive
        leading coefficient.
        """
        if self.field != QQ:
            raise TypeError("content/primitive only defined over Q")
        if self.is_zero():
            return Fraction(0), self
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = int_gcd(g, abs(v))
        if ints[-1] < 0:
            g = -g
        prim = Poly(QQ, [Fraction(v // g) for v in ints], normalize=False)
        return Fraction(g, den_lcm), prim

    # -- gcd, resultant -------------------------------------------------

    def gcd(self, other):
        """Monic gcd; gcd(0, 0) = 0.

        Over Q both inputs are cleared to primitive integer polynomials and
        a primitive PRS is used, which keeps intermediate coefficients small.
        """
        self._check(other)
        a, b = self, other
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
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
        """Res(self, other) via the Sylvester determinant (exact field arithmetic)."""
        self._check(other)
        m, n = self.degree(), other.degree()
        if m < 0 or n < 0:
            return self.field.zero
        if m == 0:
            return _field_pow(self.field, self.coeffs[0], n)
        if n == 0:
            return _field_pow(self.field, other.coeffs[0], m)
        f = self.field
        size = m + n
        rows = []
        ac = list(reversed(self.coeffs))
        bc = list(reversed(other.coeffs))
        for i in range(n):
            rows.append([f.zero] * i + ac + [f.zero] * (size - i - m - 1))
        for i in range(m):
            rows.append([f.zero] * i + bc + [f.zero] * (size - i - n - 1))
        return _det(f, rows)

    def discriminant(self):
        """disc = (-1)^(d(d-1)/2) Res(p, p') / lc(p); 1 for degree <= 1."""
        d = self.degree()
        if d <= 1:
            return self.field.one
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        res = self.resultant(self.derivative())
        out = self.field.div(res, self.leading())
        return self.field.neg(out) if sign < 0 else out

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
        out = []
        for part, mult in self._squarefree():
            if self.field == QQ:
                _, prim = part.content_primitive()
                factors = factor_squarefree_z([int(c) for c in prim.coeffs])
            else:
                factors = factor_squarefree_mod_p(list(part.coeffs), self.field.p)
            out.extend((Poly(self.field, g).monic(), mult) for g in factors)
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
        if p.field.is_zero(c):
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}" if c != 1 else var)
        else:
            parts.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(parts)


def _field_pow(field, a, e):
    out = field.one
    for _ in range(e):
        out = field.mul(out, a)
    return out


def _det(field, rows):
    """Determinant by fraction-free-ish Gaussian elimination over a field."""
    n = len(rows)
    det = field.one
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not field.is_zero(rows[r][col]):
                pivot = r
                break
        if pivot is None:
            return field.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = field.neg(det)
        pv = rows[col][col]
        det = field.mul(det, pv)
        inv = field.inv(pv)
        for r in range(col + 1, n):
            factor = rows[r][col]
            if field.is_zero(factor):
                continue
            factor = field.mul(factor, inv)
            rows[r] = [
                field.sub(rc, field.mul(factor, cc))
                for rc, cc in zip(rows[r], rows[col])
            ]
    return det


def convolve(field, a, b, n):
    """The first n coefficients of the product of coefficient sequences a and b.

    The one product loop of the library, shared by Poly and TruncSeries.
    Over F_p, operands that are long enough go through Kronecker
    substitution; everything else is schoolbook, skipping zero terms.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [field.zero] * n
    if isinstance(field, PrimeField) and len(a) * len(b) >= _KRONECKER_CUTOFF * (len(a) + len(b)):
        out = _kronecker_mul(a, b, field.p, n)
        return out + [0] * (n - len(out))
    add, mul = field.add, field.mul
    terms = [(j, y) for j, y in enumerate(b) if not field.is_zero(y)]
    out = [field.zero] * n
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in terms:
            if i + j >= n:
                break
            out[i + j] = add(out[i + j], mul(x, y))
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
