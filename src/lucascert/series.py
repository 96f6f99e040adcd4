"""Truncated power series, the carrier of every mod-p computation.

A TruncSeries stores exactly T coefficients (orders 0..T-1) over Q or F_p,
each canonical (see `fields`): the constructor coerces what it is given and
is the one place results are reduced, so the arithmetic runs on Python's
`+ - *`, and comparing canonical coefficients is comparing values.  Only
`div_poly`, whose recurrence reads back its own output, coerces each term
where it is produced.  Arithmetic between two series truncates to the
shorter operand; the library never extends a series silently.  Equality is
always "to order T" and the comparison helpers make the certified order
explicit.

Includes the section/Cartier operator family: cartier(f, p, r) extracts the
coefficients of index r mod p, compose_power substitutes z -> z^(p^k), and
delta applies the Euler operator z d/dz.
"""

from fractions import Fraction

from .errors import NotPLocal, NotSeriesExpandable
from .fields import QQ, PrimeField, reduce_rat_mod_p
from .poly import Poly, convolve


class TruncSeries:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(map(field.coerce, coeffs))

    @classmethod
    def zero(cls, field, T):
        return cls(field, [field.zero] * T)

    @classmethod
    def one(cls, field, T):
        return cls(field, [field.one] + [field.zero] * (T - 1))

    @classmethod
    def from_poly(cls, p, T):
        cs = list(p.coeffs[:T])
        cs += [p.field.zero] * (T - len(cs))
        return cls(p.field, cs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __len__(self):
        return len(self.coeffs)

    def truncate(self, T):
        if T > len(self.coeffs):
            raise ValueError("cannot extend a truncated series")
        if T == len(self.coeffs):
            return self  # series are immutable
        return TruncSeries(self.field, self.coeffs[:T])

    def is_zero(self):
        return not any(self.coeffs)

    def poly(self):
        """The coefficients as a polynomial (trailing zeros dropped)."""
        return Poly(self.field, self.coeffs)

    def _check(self, other):
        if not isinstance(other, TruncSeries) or other.field != self.field:
            raise TypeError("series fields do not match")

    # -- ring operations (result T = min of operand T's) -----------------

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return TruncSeries(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        f = self.field
        T = min(len(self.coeffs), len(other.coeffs))
        return TruncSeries(f, convolve(f, self.coeffs, other.coeffs, T))

    def mul_poly(self, p):
        """Multiply by an exact polynomial; keeps this series' truncation order."""
        if p.field != self.field:
            raise TypeError("series/polynomial fields do not match")
        f = self.field
        return TruncSeries(f, convolve(f, self.coeffs, p.coeffs, len(self.coeffs)))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        return TruncSeries(f, [c * a for a in self.coeffs])

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative series power")
        result = TruncSeries.one(self.field, len(self.coeffs))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def div_poly(self, p):
        """Divide by a polynomial with unit constant term, to the same order.

        O(T * deg p) via the linear recurrence, much cheaper than a generic
        series inverse when the divisor is short.
        """
        if p.field != self.field:
            raise TypeError("series/polynomial fields do not match")
        f = self.field
        if not p[0]:
            raise ZeroDivisionError("divisor constant term is zero")
        inv0 = f.inv(p.coeffs[0])
        T = len(self.coeffs)
        out = []
        for m in range(T):
            acc = self.coeffs[m]
            for j in range(1, min(len(p.coeffs), m + 1)):
                pj = p.coeffs[j]
                if pj:
                    acc -= pj * out[m - j]
            out.append(f.coerce(inv0 * acc))
        return TruncSeries(f, out)

    # -- section operators -------------------------------------------------

    def cartier(self, p, r=0):
        """Section operator: coefficient n of the output is coefficient np+r.

        r = 0 is the Cartier operator Lambda_p.  Output order is
        ceil((T - r) / p).
        """
        if not 0 <= r < p:
            raise ValueError("need 0 <= r < p")
        return TruncSeries(self.field, self.coeffs[r::p])

    def compose_power(self, p, k, out_len=None):
        """Substitute z -> z^(p^k).

        Sound for any out_len <= T * p^k: every requested coefficient is
        either an input coefficient (index divisible by p^k) or exactly 0.
        Defaults to the input truncation order.
        """
        q = p**k
        T = len(self.coeffs)
        if out_len is None:
            out_len = T
        if out_len > T * q:
            raise ValueError("requested order exceeds what the input determines")
        f = self.field
        out = [f.zero] * out_len
        for i, c in enumerate(self.coeffs):
            if i * q >= out_len:
                break
            out[i * q] = c
        return TruncSeries(f, out)

    def delta(self):
        """Euler operator z d/dz: coefficient n maps to n * a(n)."""
        return TruncSeries(self.field, [n * c for n, c in enumerate(self.coeffs)])

    # -- comparisons ---------------------------------------------------------

    def eq_to_order(self, other, T=None):
        """Equality of the first T coefficients (default: shorter length)."""
        self._check(other)
        limit = min(len(self.coeffs), len(other.coeffs))
        if T is not None:
            if T > limit:
                raise ValueError(f"cannot compare to order {T}, only {limit} known")
            limit = T
        return self.coeffs[:limit] == other.coeffs[:limit]

    def first_difference(self, other):
        """Index of the first differing coefficient, or None up to min length."""
        self._check(other)
        for i, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                return i
        return None

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"TruncSeries[T={len(self.coeffs)}]({head}{tail})"


def reduce_series_mod_p(f, p):
    """Coefficientwise reduction of a Q-series into F_p.

    Raises NotPLocal with the offending index if some coefficient has p in
    its denominator.
    """
    if f.field != QQ:
        raise TypeError("input must be a series over Q")
    out = []
    for i, c in enumerate(f.coeffs):
        if c.denominator % p == 0:
            raise NotPLocal(p, value=c, index=i)
        out.append(reduce_rat_mod_p(c, p))
    return TruncSeries(PrimeField(p), out)


def ratfun_series(a, T):
    """Expand a rational function with no pole at 0 to order T."""
    if a.has_pole_at_zero():
        raise NotSeriesExpandable(f"{a!r} has a pole at 0")
    return TruncSeries.from_poly(a.num, T).div_poly(a.den)


def section_decomposition(f, p):
    """The p sections f_r = cartier(f, p, r); satisfies f = sum z^r f_r(z^p)."""
    return [f.cartier(p, r) for r in range(p)]


def q_series(coeffs):
    return TruncSeries(QQ, [Fraction(c) for c in coeffs])
