"""Reduced rational functions num/den with monic denominator and height.

Normal form: gcd(num, den) = 1 with den monic, so equality of rational
functions is structural equality of the pair.  The height is
max(deg num, deg den), the size measure used by all certificate bounds.
`common_denominator` puts a list of num/den pairs over one monic
denominator, the cleared form of operators.
"""

from .errors import ZeroDenominator
from .poly import Poly


class RatFun:
    __slots__ = ("num", "den", "height")

    def __init__(self, num, den, _reduced=False):
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.field != den.field:
            raise TypeError("numerator/denominator fields do not match")
        if not _reduced:
            if num.is_zero():
                num, den = num, Poly.one(den.field)
            else:
                g = num.gcd(den)
                num, den = _cancel(num, g), _cancel(den, g)
                lc_inv = den.field.inv(den.leading())
                num = num.scale(lc_inv)
                den = den.scale(lc_inv)
        self.num = num
        self.den = den
        self.height = max(num.degree(), den.degree(), 0)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_poly(cls, p):
        return cls(p, Poly.one(p.field), _reduced=True)

    @classmethod
    def constant(cls, field, c):
        return cls.from_poly(Poly.constant(field, c))

    @classmethod
    def zero(cls, field):
        return cls.from_poly(Poly.zero(field))

    @classmethod
    def one(cls, field):
        return cls.from_poly(Poly.one(field))

    # -- queries ---------------------------------------------------------

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree() == 0

    def __eq__(self, other):
        return (
            isinstance(other, RatFun)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def has_pole_at_zero(self):
        return not self.den[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFun(-self.num, self.den, _reduced=True)

    def __mul__(self, other):
        """Henrici's product of reduced fractions (Knuth, TAOCP 2, 4.5.1).

        (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d) and
        g2 = gcd(c, b) is reduced, so no gcd runs on the products.
        """
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return RatFun.zero(self.field)
        g1, g2 = self.num.gcd(other.den), other.num.gcd(self.den)
        return RatFun(
            _cancel(self.num, g1) * _cancel(other.num, g2),
            _cancel(self.den, g2) * _cancel(other.den, g1),
            _reduced=True,
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * other._inverse()

    def __pow__(self, e):
        if e < 0:
            return self._inverse() ** (-e)
        return RatFun(self.num**e, self.den**e, _reduced=True)

    def _inverse(self):
        """den/num with the leading coefficient of num moved over: reduced, no gcd."""
        if self.is_zero():
            raise ZeroDenominator("inverse of the zero rational function")
        lc_inv = self.field.inv(self.num.leading())
        return RatFun(self.den.scale(lc_inv), self.num.scale(lc_inv), _reduced=True)

    def _coerce(self, other):
        if isinstance(other, RatFun):
            if other.field != self.field:
                raise TypeError("rational function fields do not match")
            return other
        if isinstance(other, Poly):
            return RatFun.from_poly(other)
        return RatFun.constant(self.field, other)

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFun({self.num})"
        return f"RatFun(({self.num}) / ({self.den}))"


def common_denominator(field, pairs):
    """(D, [n_k (D / d_k)]) for polynomial pairs (n_k, d_k) over field, with d_k nonzero.

    D is the monic lcm of the nonconstant d_k, so N_k / D = n_k / d_k; a
    constant d_k takes no lcm, and D = 1 when there is none.
    """
    D = Poly.one(field)
    for _, d in pairs:
        if d.degree() > 0:
            D = D.lcm(d)
    return D, [n * D.exact_div(d) for n, d in pairs]


def _cancel(a, g):
    """a / g for a monic divisor g of a; g = 1 costs nothing."""
    return a if g.degree() == 0 else a.exact_div(g)
