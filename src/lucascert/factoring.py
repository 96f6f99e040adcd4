"""Exact factorization kernels over F_p and Z, on plain integer coefficient lists.

Polynomials here are lists of ints, lowest degree first, with no trailing
zeros; modular ones hold residues in [0, m).  `Poly.factor` splits its
input into squarefree parts and hands each one to
`factor_squarefree_mod_p` or `factor_squarefree_z`:

- over F_p: distinct-degree factorization, then equal-degree splitting by
  Cantor-Zassenhaus (odd p) or the trace map (p = 2);
- over Z: factor modulo the smallest prime that keeps the input
  squarefree, Hensel-lift to p^k above twice the leading coefficient
  times the Landau-Mignotte bound, and recombine by subsets of increasing
  size with exact trial division.

See von zur Gathen and Gerhard, *Modern Computer Algebra*, chapters 14
and 15.  Splitting draws its random polynomials from a `random.Random`
seeded per call, so results never depend on the global generator.
"""

from itertools import combinations
from math import gcd, isqrt
from random import Random

from .fields import is_prime

_MAX_PRIME = 2**31  # keeps the modular prime inside is_prime's deterministic range


# -- arithmetic modulo m ----------------------------------------------------------


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim([c % m for c in out])


def _sub(a, b, m):
    return _add(a, [-c for c in b], m)


def _divmod(a, b, m):
    """Quotient and remainder of a by b modulo m; lc(b) must be a unit mod m."""
    a = list(a)
    db = len(b) - 1
    if len(a) <= db:
        return [], _trim(a)
    inv = pow(b[-1], -1, m)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db] * inv % m
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % m
    return _trim(q), _trim(a[:db])


def _monic(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd(a, b, p):
    """Monic gcd over F_p."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else a


def _xgcd(a, b, p):
    """(s, t) with s a + t b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("polynomials are not coprime")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a, e, f, p):
    """a^e mod (f, p)."""
    out, a = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a, p), f, p)[1]
    return out


def _derivative(a, m):
    return _trim([i * c % m for i, c in enumerate(a)][1:])


# -- F_p ----------------------------------------------------------------------------


def factor_squarefree_mod_p(f, p):
    """Monic irreducible factors of a monic squarefree f over F_p."""
    out = []
    for g, d in _distinct_degree(f, p):
        _equal_degree(g, d, p, Random(len(g) * p + d), out)
    return out


def _distinct_degree(f, p):
    """[(g_d, d)]: g_d is the product of the irreducible factors of degree d."""
    out = []
    x = [0, 1]
    h, d = x, 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng, out):
    """Append to out the irreducible factors, all of degree d, of monic squarefree f."""
    n = len(f) - 1
    if n == d:
        out.append(f)
        return
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        if p == 2:
            # trace map a + a^2 + ... + a^(2^(d-1)) into F_2
            t = b = _divmod(a, f, p)[1]
            for _ in range(d - 1):
                b = _divmod(_mul(b, b, p), f, p)[1]
                t = _sub(t, b, p)
        else:
            t = _sub(_powmod(a, (p**d - 1) // 2, f, p), [1], p)
        g = _gcd(f, t, p)
        if 1 < len(g) < len(f):
            _equal_degree(g, d, p, rng, out)
            _equal_degree(_divmod(f, g, p)[0], d, p, rng, out)
            return


# -- Z --------------------------------------------------------------------------------


def factor_squarefree_z(f):
    """Primitive irreducible factors, positive leading coefficients, of a squarefree
    primitive f in Z[x] with positive leading coefficient."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    p = _good_prime(f)
    lc = f[-1]
    modular = factor_squarefree_mod_p(_monic([c % p for c in f], p), p)
    if len(modular) == 1:
        return [f]
    bound = 2 * lc * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    m = p
    while m <= bound:
        m *= m
    return _recombine(f, _hensel_lift(f, modular, p, m), m)


def _good_prime(f):
    """The smallest prime p not dividing lc(f) with f still squarefree mod p."""
    for p in range(2, _MAX_PRIME):
        if f[-1] % p == 0 or not is_prime(p):
            continue
        fp = [c % p for c in f]
        if len(_gcd(fp, _derivative(fp, p), p)) == 1:
            return p
    raise ValueError("no prime below 2^31 keeps the polynomial squarefree")


def _hensel_lift(f, modular, p, m):
    """Monic lifts modulo m = p^(2^j) of the monic factors of f mod p.

    Peels one factor at a time off f: the pair (rest, factor) with
    rest * factor = f mod p is lifted by quadratic Hensel steps
    (von zur Gathen-Gerhard, Algorithm 15.10), and the lifted rest, which
    keeps lc(f), carries the remaining factors into the next round.
    """
    lifted = []
    rest_mod_p = _monic([c % p for c in f], p)
    F = [c % m for c in f]
    for h in modular[:-1]:
        rest_mod_p = _divmod(rest_mod_p, h, p)[0]
        g = [c * F[-1] % p for c in rest_mod_p]
        s, t = _xgcd(g, h, p)
        q = p
        while q < m:
            q *= q
            g, h, s, t = _hensel_step(F, g, h, s, t, q)
        lifted.append(h)
        F = g
    lifted.append(_monic(F, m))
    return lifted


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g h, s g + t h = 1 from modulus sqrt(m) to m; h stays monic."""
    e = _sub(f, _mul(g, h, m), m)
    q, r = _divmod(_mul(s, e, m), h, m)
    g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
    h = _add(h, r, m)
    b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
    c, d = _divmod(_mul(s, b, m), h, m)
    s = _sub(s, d, m)
    t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return g, h, s, t


def _recombine(f, lifted, m):
    """Zassenhaus recombination: true factors over Z from the lifted modular ones."""
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], m)
            g = _primitive([c - m if c > m // 2 else c for c in g])
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    out.append(f)
    return out


def _primitive(a):
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _exact_quotient(f, g):
    """f / g over Z when g divides f exactly, else None."""
    f = list(f)
    dg = len(g) - 1
    if len(f) <= dg:
        return None
    q = [0] * (len(f) - dg)
    for i in range(len(f) - 1 - dg, -1, -1):
        c, r = divmod(f[i + dg], g[-1])
        if r:
            return None
        q[i] = c
        if c:
            for j, y in enumerate(g):
                f[i + j] -= c * y
    return q if not any(f[:dg]) else None
