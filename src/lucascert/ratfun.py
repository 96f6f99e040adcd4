"""Reduced rational functions num/den with monic denominator and height.

Normal form: gcd(num, den) = 1 with den monic, so equality of rational
functions is structural equality of the pair.  The height is
max(deg num, deg den), the size measure used by all certificate bounds.
"""

from .errors import NotSeriesExpandable, ZeroDenominator
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
                if g.degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
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

    def eval0(self):
        """Value at z = 0; raises NotSeriesExpandable on a pole."""
        d0 = self.den.eval(self.field.zero)
        if self.field.is_zero(d0):
            raise NotSeriesExpandable("pole at z = 0")
        return self.field.div(self.num.eval(self.field.zero), d0)

    def has_pole_at_zero(self):
        return self.field.is_zero(self.den.eval(self.field.zero))

    def valuation(self):
        """z-adic valuation val(num) - val(den); raises on zero."""
        if self.is_zero():
            raise ValueError("valuation of the zero rational function")
        return self.num.valuation() - self.den.valuation()

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
        other = self._coerce(other)
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __pow__(self, e):
        if e < 0:
            return RatFun(self.den ** (-e), self.num ** (-e))
        return RatFun(self.num**e, self.den**e, _reduced=True)

    def _coerce(self, other):
        if isinstance(other, RatFun):
            if other.field != self.field:
                raise TypeError("rational function fields do not match")
            return other
        if isinstance(other, Poly):
            return RatFun.from_poly(other)
        return RatFun.constant(self.field, other)

    def derivative(self):
        """d/dz via the quotient rule, reduced."""
        n, d = self.num, self.den
        return RatFun(n.derivative() * d - n * d.derivative(), d * d)

    def substitute_inverse(self):
        """The rational function a(1/z), as a reduced RatFun."""
        if self.is_zero():
            return self
        dn, dd = self.num.degree(), self.den.degree()
        rn, rd = self.num.reverse(), self.den.reverse()
        if dd >= dn:
            return RatFun(rn.shift(dd - dn), rd)
        return RatFun(rn, rd.shift(dn - dd))

    def scale(self, c):
        return RatFun(self.num.scale(c), self.den, _reduced=False)

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFun({self.num})"
        return f"RatFun(({self.num}) / ({self.den}))"
