"""Truncated power series, the carrier of every mod-p computation.

A TruncSeries stores exactly T coefficients (orders 0..T-1) over Q or F_p,
each canonical (see `fields`).  The public constructor coerces its input,
so sums run on Python's `+ - *`; results that are canonical by construction
(`convolve`'s products, slices, scatters, `div_poly`, whose recurrence
coerces each term it reads back, and `/`) go through the private `_canonical`
constructor.  Arithmetic between two series truncates to the shorter
operand; the library never extends a series silently.  Equality is always
"to order T" and the comparison helpers make the certified order explicit.
A series divides a series (`/`) by Newton's iteration on `convolve`;
`div_poly` keeps the O(T * deg) recurrence for short polynomial divisors.

Includes the section/Cartier operator family: cartier(f, p, r) extracts the
coefficients of index r mod p, compose_power substitutes z -> z^(p^k), and
delta applies the Euler operator z d/dz.  The library applies delta to a series
only through `DiffOp.apply`; `delta` is the acceptance contract's reference.
"""

from fractions import Fraction
from operator import mul

from .errors import NotPLocal, NotSeriesExpandable
from .fields import QQ, PrimeField, reduce_rat_mod_p
from .poly import Poly, convolve


class TruncSeries:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(map(field.coerce, coeffs))

    @classmethod
    def _canonical(cls, field, coeffs):
        """A series of coefficients that are already canonical, stored as given."""
        S = object.__new__(cls)
        S.field, S.coeffs = field, tuple(coeffs)
        return S

    @classmethod
    def zero(cls, field, T):
        return cls._canonical(field, [field.zero] * T)

    @classmethod
    def one(cls, field, T):
        return cls._canonical(field, [field.one] + [field.zero] * (T - 1))

    @classmethod
    def from_poly(cls, p, T):
        cs = list(p.coeffs[:T])
        cs += [p.field.zero] * (T - len(cs))
        return cls._canonical(p.field, cs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __len__(self):
        return len(self.coeffs)

    def truncate(self, T):
        if not 0 <= T <= len(self.coeffs):
            raise ValueError(f"cannot truncate a series of order {len(self.coeffs)} to {T}")
        if T == len(self.coeffs):
            return self  # series are immutable
        return TruncSeries._canonical(self.field, self.coeffs[:T])

    def is_zero(self):
        return not any(self.coeffs)

    def poly(self):
        """The coefficients as a polynomial (trailing zeros dropped)."""
        return Poly._canonical(self.field, self.coeffs)

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
        return TruncSeries._canonical(f, convolve(f, self.coeffs, other.coeffs, T))

    def mul_poly(self, p):
        """Multiply by an exact polynomial; keeps this series' truncation order."""
        if p.field != self.field:
            raise TypeError("series/polynomial fields do not match")
        f = self.field
        return TruncSeries._canonical(f, convolve(f, self.coeffs, p.coeffs, len(self.coeffs)))

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
        series inverse when the divisor is short; one scaling (none by 1) for a constant.
        """
        if p.field != self.field:
            raise TypeError("series/polynomial fields do not match")
        f = self.field
        if not p[0]:
            raise ZeroDivisionError("divisor constant term is zero")
        inv0, tail, out = f.inv(p.coeffs[0]), p.coeffs[1:], []
        if not tail:
            return self if inv0 == 1 else self.scale(inv0)
        for c in self.coeffs:
            out.append(f.coerce(inv0 * (c - sum(map(mul, tail, reversed(out))))))
        return TruncSeries._canonical(f, out)

    def __truediv__(self, other):
        """Divide by a series with unit constant term, to the shorter order T.

        Newton's iteration g <- g(2 - other g) doubles the known terms of 1/other
        a pass (von zur Gathen-Gerhard, Modern Computer Algebra, 9.1), two
        `convolve` calls each, where `div_poly` takes O(T * deg).
        """
        self._check(other)
        f, T, b = self.field, min(len(self.coeffs), len(other.coeffs)), other.coeffs
        g = [f.inv(b[0])] if T else []  # ZeroDivisionError on a zero constant term
        while len(g) < T:  # b g = 1 + z^k e mod z^n with k known terms, so g - z^k g e has n
            k, n = len(g), min(2 * len(g), T)
            g += [f.coerce(-c) for c in convolve(f, g, convolve(f, b, g, n)[k:], n - k)]
        return TruncSeries._canonical(f, convolve(f, self.coeffs, g, T))

    # -- section operators -------------------------------------------------

    def cartier(self, p, r=0):
        """Section operator: coefficient n of the output is coefficient np+r.

        r = 0 is the Cartier operator Lambda_p.  Output order is
        ceil((T - r) / p).
        """
        if not 0 <= r < p:
            raise ValueError("need 0 <= r < p")
        return TruncSeries._canonical(self.field, self.coeffs[r::p])

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
        if not 0 <= out_len <= T * q:
            raise ValueError(f"requested order {out_len} is negative or exceeds what the input determines")
        out = [self.field.zero] * out_len
        out[::q] = self.coeffs[: -(-out_len // q)]
        return TruncSeries._canonical(self.field, out)

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
        """Index of the first differing coefficient, or None up to min length.

        The common prefix is compared as tuples first; the loop runs only on a mismatch.
        """
        self._check(other)
        n = min(len(self.coeffs), len(other.coeffs))
        if self.coeffs[:n] == other.coeffs[:n]:
            return None
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
    try:
        out = [reduce_rat_mod_p(c, p) for c in f.coeffs]
    except NotPLocal:  # the index is looked up only on failure
        i = next(i for i, c in enumerate(f.coeffs) if c.denominator % p == 0)
        raise NotPLocal(p, value=f.coeffs[i], index=i) from None
    return TruncSeries._canonical(PrimeField(p), out)


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
