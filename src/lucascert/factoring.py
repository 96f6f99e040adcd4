"""Exact factorization over F_p and Z, as algorithms on `Poly`.

`Poly.factor` splits its input into squarefree parts and hands each one
to `factor_squarefree_mod_p` or `factor_squarefree_z`:

- over F_p: distinct-degree factorization, then equal-degree splitting by
  Cantor-Zassenhaus (odd p) or the trace map (p = 2);
- over Z: factor modulo the smallest prime that keeps the input
  squarefree, Hensel-lift to p^k above twice the leading coefficient
  times the Landau-Mignotte bound, and recombine by subsets of increasing
  size with exact trial division, at most MAX_RECOMBINE_SUBSETS of them.

Polynomials over Z and Z/p^k are `Poly` over QQ with integer
coefficients, the modular ones reduced into [0, m) by `_mod`.  Every
product, remainder, gcd and power is `Poly` arithmetic.

See von zur Gathen and Gerhard, *Modern Computer Algebra*, chapters 14
and 15.  Splitting draws its random polynomials from a `random.Random`
seeded per call, so results never depend on the global generator.
"""

from itertools import combinations
from math import isqrt
from random import Random

from .errors import BudgetExceeded
from .fields import QQ, GF, is_prime
from .poly import Poly

_MAX_PRIME = 2**31  # keeps the modular prime inside is_prime's deterministic range
# Zassenhaus recombination tries at most this many candidate subsets, about 2^(r-1) for r modular
# factors.  Each costs one product mod m and one trial division: the degree-32 Swinnerton-Dyer
# polynomial (r = 16) reaches recombination 0.45 s into `opinfo`, and 512 candidates take 0.37 s
# more (2 cores, CPython 3.11.7).  No factorization in the tests tries more than 17; the
# degree-16 Swinnerton-Dyer polynomial (r = 8) tries 162.
MAX_RECOMBINE_SUBSETS = 512


# -- F_p ----------------------------------------------------------------------------


def factor_squarefree_mod_p(f):
    """Monic irreducible factors of a monic squarefree f over F_p."""
    p, out = f.field.p, []
    for g, d in _distinct_degree(f):
        _equal_degree(g, d, Random((g.degree() + 1) * p + d), out)
    return out


def _distinct_degree(f):
    """[(g_d, d)]: g_d is the product of the irreducible factors of degree d."""
    out = []
    x = Poly.x(f.field)
    h, d = x, 0
    while f.degree() >= 2 * (d + 1):
        d += 1
        h = pow(h, f.field.p, f)
        g = f.gcd(h - x)
        if g.degree() > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree() > 0:
        out.append((f, f.degree()))
    return out


def _equal_degree(f, d, rng, out):
    """Append to out the irreducible factors, all of degree d, of monic squarefree f."""
    n, field = f.degree(), f.field
    if n == d:
        out.append(f)
        return
    while True:
        a = Poly(field, [rng.randrange(field.p) for _ in range(n)])
        if a.degree() < 1:
            continue
        if field.p == 2:
            # trace map a + a^2 + ... + a^(2^(d-1)) into F_2
            t = b = a % f
            for _ in range(d - 1):
                b = b * b % f
                t = t - b
        else:
            t = pow(a, (field.p**d - 1) // 2, f) - Poly.one(field)
        g = f.gcd(t)
        if 0 < g.degree() < n:
            _equal_degree(g, d, rng, out)
            _equal_degree(f // g, d, rng, out)
            return


# -- Z --------------------------------------------------------------------------------


def factor_squarefree_z(f):
    """Primitive irreducible factors, positive leading coefficients, of a squarefree
    primitive f in Z[x] with positive leading coefficient."""
    n = f.degree()
    if n <= 1:
        return [f]
    p = _good_prime(f)
    modular = factor_squarefree_mod_p(Poly(GF(p), f.coeffs).monic())
    if len(modular) == 1:
        return [f]
    bound = 2 * int(f.leading()) * 2**n * (isqrt(int(sum(c * c for c in f.coeffs))) + 1)
    m = p
    while m <= bound:
        m *= m
    return _recombine(f, _hensel_lift(f, modular, p, m), m)


def _mod(a, m):
    """The integer polynomial a with its coefficients reduced into [0, m)."""
    return Poly(QQ, [c % m for c in a.coeffs])


def _good_prime(f):
    """The smallest prime p not dividing lc(f) with f still squarefree mod p."""
    for p in range(2, _MAX_PRIME):
        if f.leading() % p == 0 or not is_prime(p):
            continue
        fp = Poly(GF(p), f.coeffs)
        if fp.gcd(fp.derivative()).degree() == 0:
            return p
    raise ValueError("no prime below 2^31 keeps the polynomial squarefree")


def _xgcd(a, b):
    """(s, t) with s a + t b = 1 over F_p, for coprime a and b."""
    zero, one = Poly.zero(a.field), Poly.one(a.field)
    (r0, s0, t0), (r1, s1, t1) = (a, one, zero), (b, zero, one)
    while r1:
        q, r = r0.divmod(r1)
        (r0, s0, t0), (r1, s1, t1) = (r1, s1, t1), (r, s0 - q * s1, t0 - q * t1)
    if r0.degree() != 0:
        raise ValueError("polynomials are not coprime")
    inv = a.field.inv(r0.leading())
    return s0.scale(inv), t0.scale(inv)


def _hensel_lift(f, modular, p, m):
    """Monic lifts modulo m = p^(2^j) of the monic factors of f mod p.

    Peels one factor at a time off f: the pair (rest, factor) with
    rest * factor = f mod p is lifted by quadratic Hensel steps
    (von zur Gathen-Gerhard, Algorithm 15.10), and the lifted rest, which
    keeps lc(f), carries the remaining factors into the next round.
    """
    lifted = []
    rest_mod_p = Poly(GF(p), f.coeffs).monic()
    F = _mod(f, m)
    for h in modular[:-1]:
        rest_mod_p = rest_mod_p // h
        g = rest_mod_p.scale(F.leading())
        g, h, s, t = (Poly(QQ, a.coeffs) for a in (g, h, *_xgcd(g, h)))
        q = p
        while q < m:
            q *= q
            g, h, s, t = _hensel_step(F, g, h, s, t, q)
        lifted.append(h)
        F = g
    lifted.append(_mod(F.scale(pow(int(F.leading()), -1, m)), m))
    return lifted


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g h, s g + t h = 1 from modulus sqrt(m) to m; h stays monic.

    h is monic over Z, so division by h stays in Z[x] and commutes with
    reduction mod m.
    """
    e = _mod(f - g * h, m)
    q, r = (_mod(a, m) for a in _mod(s * e, m).divmod(h))
    g = _mod(g + t * e + q * g, m)
    h = _mod(h + r, m)
    b = _mod(s * g + t * h - Poly.one(QQ), m)
    c, d = (_mod(a, m) for a in _mod(s * b, m).divmod(h))
    s = _mod(s - d, m)
    t = _mod(t - t * b - c * g, m)
    return g, h, s, t


def _recombine(f, lifted, m):
    """Zassenhaus recombination: true factors over Z from the lifted modular ones.

    A candidate and f are both primitive, so by Gauss's lemma a zero
    remainder over Q means the quotient is exact over Z.  Past
    MAX_RECOMBINE_SUBSETS candidate subsets it raises BudgetExceeded.
    """
    out, n, r, tried = [], f.degree(), len(lifted), 0
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            tried += 1
            if tried > MAX_RECOMBINE_SUBSETS:
                raise BudgetExceeded(f"factoring a degree-{n} polynomial over Z recombines r = {r} modular factors, "
                                     f"past the budget MAX_RECOMBINE_SUBSETS = {MAX_RECOMBINE_SUBSETS} candidates")
            g = Poly.constant(QQ, f.leading())
            for i in subset:
                g = _mod(g * lifted[i], m)
            _, g = Poly(QQ, [c - m if c > m // 2 else c for c in g.coeffs]).content_primitive()
            q, rem = f.divmod(g)
            if not rem:
                out.append(g)
                f = q
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    out.append(f)
    return out
