"""Exact coefficient fields: the rationals and prime fields F_p.

Elements are plain Python objects in canonical form: a `fractions.Fraction`
over Q, an int residue in [0, p) over F_p.  Arithmetic on them is Python's
own `+ - *`; a zero test is truthiness, and equality of canonical elements
is equality of values.  A field object keeps only what the elements cannot
say for themselves: `zero`, `one`, `char`, `coerce` (any int or Fraction
into canonical form, for the public Poly and TruncSeries constructors) and
`inv`.  It is attached to every Poly / TruncSeries so that mixed-field
operations fail loudly.  Field objects are stateless and hashable.
"""

from fractions import Fraction
from itertools import compress
from math import isqrt

from .errors import NotPLocal

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin with the first 12 primes as witnesses, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(bound):
    """The primes <= bound, by a bytearray sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, bound + 1, q)))
    return list(compress(range(bound + 1), sieve))


class RationalField:
    """The field Q with Fraction elements.  Use the QQ singleton."""

    zero = Fraction(0)
    one = Fraction(1)
    char = 0

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """F_p with int residues in [0, p).  Instances are cached per prime."""

    _cache = {}
    char = None  # set per instance

    def __new__(cls, p):
        field = cls._cache.get(p)
        if field is None:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            field = super().__new__(cls)
            field.p = p
            field.char = p
            field.zero = 0
            field.one = 1 % p
            cls._cache[p] = field
        return field

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return reduce_rat_mod_p(value, self.p)
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def GF(p):
    return PrimeField(p)


def reduce_rat_mod_p(q, p):
    """Reduce a p-local rational to its residue in [0, p).

    Raises NotPLocal when p divides the denominator, i.e. q is not in Z_(p).
    """
    q = q if isinstance(q, (int, Fraction)) else Fraction(q)
    den = q.denominator
    if den % p == 0:
        raise NotPLocal(p, value=q)
    return q.numerator % p if den == 1 else q.numerator * pow(den, -1, p) % p
