"""Named sequence catalog and congruence checks.

Every generator produces exact rational coefficients a(n) with a(0) = 1.
Shipped entries:

  g1, g2, g3     binomial powers  sum C(2n,n)^r z^n   (r = 1, 2, 3)
  f1             alias of g2 (the 2F1(1/2,1/2;1;16z) square of central binomials)
  f2, f3         sum -C(2n,n)^r/(2n-1) z^n            (r = 2, 3)
  apery / t      Apery numbers sum_k C(n,k)^2 C(n+k,k)^2
  cy210          C(2j,j) * sum_k (-1)^k C(2j,k)^4
  cy26           C(2j,j) * sum_k C(j,k)^2 C(j+k,k) C(2k,j)

Over Q, the Apery numbers and `operator` entries are expanded from their
operator and a(0) by `diffop.expand`, the one exact recurrence solver (it
stays on integers while the terms are integral; the double binomial sum is
the Apery test oracle), and everything else is a big-integer binomial
sum, its binomials walked along their rows by exact updates.  An `apery`
entry carries the built-in Apery operator (given it when it has none; any
other operator is refused).  `cy210_term` and `cy26_term` also take a
modulus: the binomials are still walked exactly, each reduced before its
powers and products, so the residue costs no big powers and no Lucas digits.
`series_mod_p` computes f|_p of the binomial kinds (binom_power, f_r, cy210,
cy26) from base-p digits by Lucas' theorem with no big integers (C(2n,n)^r a
digit level per list pass, times a row in n mod p for f_r; the cy210 sum a
product over the digits of 2n; the cy26 sum from k = ceil(n/2), where
C(2k, n) stops being 0), and reduces the Q expansion of the others; the Q
route is their test oracle and the one `p_lucas_check` keeps.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb

from .diffop import (
    diffop_from_json, diffop_from_polys, diffop_to_json, expand, json_value, recurrence_from,
)
from .errors import BudgetExceeded, ParseError, UnknownSeries
from .fields import QQ, PrimeField, is_prime, reduce_rat_mod_p
from .poly import Poly
from .series import TruncSeries, reduce_series_mod_p

KINDS = ("binom_power", "f_r", "apery", "cy26", "cy210", "operator")
_POWER_KINDS = ("binom_power", "f_r")  # the kinds that take r
# budget of series_mod_p's route over Q, in terms: the n-th Apery number has about 1.53 n
# digits, so memory grows as T^2; through `expand`, apery at T = 55000 peaks at 1000 MB in
# 10-13 s and at T = 51712 at 886 MB in about 11 s (2 cores, CPython 3.11.7, in-process)
MAX_Q_T = 55000
# the Apery operator z^2(z^2 - 34z + 1) d^3 + ... + (z - 5), polynomials by ascending
# derivative order; every `apery` entry expands its recurrence from a(0) = 1
APERY_OPERATOR = diffop_from_polys(QQ, "d", ((-5, 1), (1, -112, 7), (0, 3, -153, 6), (0, 0, 1, -34, 1)))


class _EntryRefused(ValueError):
    """A broken entry rule; `field` names the entry field at fault, None for the entry as a whole."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class SeqGen(namedtuple("SeqGen", "name kind r operator initial")):
    """Catalog entry: a named exact coefficient sequence with a(0) = 1; every entry rule is checked here."""

    __slots__ = ()

    def __new__(cls, name, kind, r=0, operator=None, initial=(Fraction(1),)):
        if kind not in KINDS:
            raise _EntryRefused(f"unknown generator kind {kind!r}")
        if kind == "operator" and operator is None:
            raise _EntryRefused(f"operator entry {name!r} has no operator")
        if len(initial) != 1:  # a MOM recurrence leaves only a(0) free
            raise _EntryRefused(f"entry {name!r} needs exactly one initial value, a(0)", "initial")
        if kind != "operator" and tuple(initial) != (1,):  # the closed forms all start at a(0) = 1
            raise _EntryRefused(f"{kind} entry {name!r} has a(0) = 1 and takes no other initial value", "initial")
        if kind == "apery" and operator not in (None, APERY_OPERATOR):
            raise _EntryRefused(f"apery entry {name!r} carries an operator other than the Apery operator", "operator")
        if kind in _POWER_KINDS and (type(r) is not int or r < 1):  # type() also rejects bool
            raise _EntryRefused(f"{kind} entry {name!r} needs an integer r >= 1, got {r!r}", "r")
        return super().__new__(cls, name, kind, r, APERY_OPERATOR if kind == "apery" else operator, initial)


def gen_terms(g, T):
    """First T exact coefficients of the generator, as Fractions.

    Every call expands afresh; nothing is cached between calls, so a caller
    that needs a series twice keeps it.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    return _generate(g, T)


def _generate(g, T):
    if g.kind == "binom_power":
        return [Fraction(b**g.r) for b in _central_binomials(T)]
    if g.kind == "f_r":
        return [Fraction(-(b**g.r), 2 * n - 1) for n, b in enumerate(_central_binomials(T))]
    if g.kind == "cy210":
        return [Fraction(cy210_term(j)) for j in range(T)]
    if g.kind == "cy26":
        return [Fraction(cy26_term(j)) for j in range(T)]
    if g.kind in ("apery", "operator"):  # an apery entry carries APERY_OPERATOR and a(0) = 1
        return list(expand(recurrence_from(g.operator), list(g.initial), T).coeffs)
    raise UnknownSeries(g.kind)


def _central_binomials(T):
    """C(0,0), C(2,1), C(4,2), ... by the exact multiplicative update."""
    out = [1]
    for n in range(1, T):
        out.append(out[-1] * (2 * (2 * n - 1)) // n)
    return out[:T]


def cy210_term(j, mod=None):
    """C(2j,j) sum_k (-1)^k C(2j,k)^4: by k <-> 2j - k, twice the sum over k < j plus the middle term.

    With `mod`, the term mod `mod`: each exact C(2j,k) is reduced before its fourth power
    (pow(c, e, None) is c**e, so one loop serves both forms).
    """
    c, s = 1, 0  # c = C(2j,k) along its row, ending at C(2j,j)
    for k in range(j):
        c4 = pow(c, 4, mod)
        s += -c4 if k & 1 else c4
        c = c * (2 * j - k) // (k + 1)
    return pow(c * (2 * s + (-1) ** j * pow(c, 4, mod)), 1, mod)


def cy26_term(j, mod=None):
    """C(2j,j) sum_k C(j,k)^2 C(j+k,k) C(2k,j), from k = ceil(j/2), below which C(2k,j) = 0.

    With `mod`, the term mod `mod`: each exact binomial is reduced before its powers and products.
    """
    k0 = (j + 1) // 2
    a, b, c, s = comb(j, k0), comb(j + k0, k0), comb(2 * k0, j), 0
    for k in range(k0, j + 1):  # a, b, c = C(j,k), C(j+k,k), C(2k,j); each // is exact
        s += pow(a, 2, mod) * pow(b, 1, mod) * pow(c, 1, mod)
        a = a * (j - k) // (k + 1)
        b = b * (j + k + 1) // (k + 1)
        c = c * (2 * k + 1) * (2 * k + 2) // ((2 * k + 1 - j) * (2 * k + 2 - j))
    return pow(comb(2 * j, j) * s, 1, mod)


def series_over_q(g, T):
    return TruncSeries(QQ, gen_terms(g, T))


def series_mod_p(g, p, T):
    """f|_p to order T: by Lucas digits for binomial kinds (see _digit_products), else from Q (T <= MAX_Q_T)."""
    field = PrimeField(p)  # rejects a non-prime p before any route
    route = _MOD_P_ROUTES.get(g.kind)
    if route is None:
        if T > MAX_Q_T:
            raise BudgetExceeded(f"series {g.name!r} needs T = {T} terms over Q, above the budget MAX_Q_T = {MAX_Q_T}")
        return reduce_series_mod_p(series_over_q(g, T), p)
    if T < 1:
        raise ValueError("T must be >= 1")
    return TruncSeries._canonical(field, route(g, p, T))


def _digit_products(row, p, T):
    """The product of row[d] over the base-p digits d of n, mod p, for n < T (row[0] = 1), one digit level a pass."""
    out = [1]
    while len(out) < T:
        out = [a * d % p for a in out[:-(-T // p)] for d in row]
    return out[:T]


def _central_row(p, r, T):
    """C(2d,d)^r mod p for d < min(p, T), by C(2d,d) = C(2d-2,d-1) 2(2d-1)/d: 0 from 2d - 1 = p on, as by Lucas."""
    row = [1]
    for d in range(1, min(p, T)):
        row.append(row[-1] * 2 * (2 * d - 1) * pow(d, -1, p) % p)
    return [pow(c, r, p) for c in row]


def _f_r_mod_p(g, p, T):
    # n = qp + d: -C(2n,n)^r / (2n-1) = C(2q,q)^r C(2d,d)^r (-(2d-1)^(-1)) mod p, but at d = (p+1)/2,
    # where p | 2n - 1, the term -2 Catalan(n-1) C(2n,n)^(r-1) is 0 for r >= 2 (C(2n,n) = 0 mod p) and,
    # by Lucas on Catalan(n-1) = C(2n-2,n-1) - C(2n-2,n), -4 (-1)^((p-1)/2) C(2q,q) for r = 1
    central = _central_row(p, g.r, T)
    catalan = -4 * (-1) ** ((p - 1) // 2) if g.r == 1 else 0
    last = [(-c * pow(2 * d - 1, -1, p) if (2 * d - 1) % p else catalan) % p for d, c in enumerate(central)]
    out = [h * e % p for h in _digit_products(central, p, -(-T // p)) for e in last]
    del out[T:]  # in place: a slice would hold a second list of T
    return out


_MOD_P_ROUTES = {
    "binom_power": lambda g, p, T: _digit_products(_central_row(p, g.r, T), p, T),
    "f_r": _f_r_mod_p,
    "cy210": lambda g, p, T: [cy210_mod(j, p) for j in range(T)],
    "cy26": lambda g, p, T: [cy26_mod(j, p) for j in range(T)],
}


# -- congruences ----------------------------------------------------------------


def lucas_binom(n, k, p):
    """C(n, k) mod p through base-p digits: the product of C(n_i, k_i)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _lucas(n, k, p)


def _lucas(n, k, p):
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        ni, n = n % p, n // p
        ki, k = k % p, k // p
        if ki > ni:
            return 0
        out = out * comb(ni, ki) % p  # nonzero: 0 <= ki <= ni < p
    return out


def cy210_mod(n, p):
    """cy210_term(n) mod p: by Lucas, the sum over k is the product of S_p(m) over the base-p digits m of 2n,
    since (-1)^k is the product of the (-1)^(k_i) (k = sum k_i mod 2 for odd p, and -1 = 1 mod 2)."""
    PrimeField(p)  # raises ValueError on a non-prime; a dict lookup once p has been checked
    s, m = 1, 2 * n
    while m:
        m, digit = divmod(m, p)
        s = s * _cy210_digit_sum(digit, p) % p
    return _lucas(2 * n, n, p) * s % p


@cache
def _cy210_digit_sum(m, p):
    """S_p(m) = sum_j (-1)^j C(m,j)^4 mod p for a base-p digit m, made once per digit met."""
    return sum((-1) ** j * comb(m, j) ** 4 for j in range(m + 1)) % p


def cy26_mod(n, p):
    """cy26_term(n) mod p, a Lucas walk per binomial: the carries in n + k and 2k keep the sum from factoring.

    The sum starts at k = ceil(n/2), since C(2k, n) = 0 for 2k < n, and a k where C(2k, n) or C(n, k)
    is 0 mod p skips the walks after it.
    """
    PrimeField(p)  # raises ValueError on a non-prime; a dict lookup once p has been checked
    s = 0
    for k in range((n + 1) // 2, n + 1):
        c = _lucas(2 * k, n, p)
        if c and (a := _lucas(n, k, p)):
            s += a * a * _lucas(n + k, k, p) * c
    return _lucas(2 * n, n, p) * s % p


def p_lucas_check(g, p, M):
    """Test a(r + mp) = a(r) a(m) mod p for all r in [0,p), m >= 1, r + mp <= M.

    g is a catalog entry, expanded over Q, or a Q series that the caller keeps,
    of at least M + 1 terms (ValueError if shorter); the exact terms are reduced
    either way.  Returns (True, None) or (False, (r, m)) with the first violation
    in lexicographic (m, r) order.  Coefficients must be p-local up to M.
    """
    terms = g.coeffs[: M + 1] if isinstance(g, TruncSeries) else gen_terms(g, M + 1)
    if len(terms) <= M:
        raise ValueError(f"p-Lucas test to index {M} needs {M + 1} terms, the series has {len(terms)}")
    if terms[0] != 1:
        raise ValueError("p-Lucas test requires a(0) = 1")
    residues = [reduce_rat_mod_p(t, p) for t in terms]
    for m in range(1, M // p + 1):
        am = residues[m]
        base = m * p
        for r in range(0, min(p, M - base + 1)):
            if residues[base + r] != residues[r] * am % p:
                return False, (r, m)
    return True, None


# -- built-in catalog --------------------------------------------------------------


def _op_d(ascending_polys):
    return diffop_from_polys(QQ, "d", ascending_polys)


def _op_delta(ascending_polys):
    return diffop_from_polys(QQ, "delta", ascending_polys)


@cache
def _build_default():
    # annihilators, in ascending derivative/delta order (constant term first)
    op_g1 = _op_d([[-2], [1, -4]])  # (1-4z) d/dz - 2
    op_g2 = _op_d([[-4], [1, -32], [0, 1, -16]])  # z(1-16z) d^2 + (1-32z) d - 4
    op_g3 = _op_delta([[0, -8], [0, -48], [0, -96], [1, -64]])  # (1-64z)delta^3 - 96z delta^2 - 48z delta - 8z
    op_f2 = _op_d([[4], [1, -16], [0, 1, -16]])  # z(1-16z) d^2 + (1-16z) d + 4
    op_f3 = _op_delta([[0, 8], [0, 16], [0, -32], [1, -64]])  # (1-64z)delta^3 - 32z delta^2 + 16z delta + 8z
    entries = [
        SeqGen("g1", "binom_power", r=1, operator=op_g1),
        SeqGen("g2", "binom_power", r=2, operator=op_g2),
        SeqGen("f1", "binom_power", r=2, operator=op_g2),
        SeqGen("g3", "binom_power", r=3, operator=op_g3),
        SeqGen("f2", "f_r", r=2, operator=op_f2),
        SeqGen("f3", "f_r", r=3, operator=op_f3),
        SeqGen("apery", "apery", operator=APERY_OPERATOR),
        SeqGen("t", "apery", operator=APERY_OPERATOR),
        SeqGen("cy210", "cy210"),
        SeqGen("cy26", "cy26"),
    ]
    return {e.name: e for e in entries}


def default_catalog():
    return dict(_build_default())


def lookup(name, catalog=None):
    catalog = catalog if catalog is not None else default_catalog()
    entry = catalog.get(name)
    if entry is None:
        raise UnknownSeries(f"no catalog entry named {name!r}")
    return entry


def hypergeometric_fr_operator(r):
    """The order-r annihilator delta^r - 4^r z (delta - 1/2)(delta + 1/2)^(r-1) of f_r."""
    half = Fraction(1, 2)
    pol = Poly(QQ, [-half, Fraction(1)]) * Poly(QQ, [half, Fraction(1)]) ** (r - 1)
    # the coefficient of delta^k is [k == r] - 4^r z pol_k
    return _op_delta([[Fraction(k == r), -(4**r) * pol[k]] for k in range(r + 1)])


# -- catalog JSON -----------------------------------------------------------------


def catalog_to_json(catalog):
    out = []
    for entry in catalog.values():
        item = {"name": entry.name, "kind": entry.kind}
        if entry.kind in _POWER_KINDS:
            item["r"] = entry.r
        if entry.operator is not None:
            item["operator"] = diffop_to_json(entry.operator)
        if entry.kind == "operator":
            item["initial"] = [str(v) for v in entry.initial]
        out.append(item)
    return out


def catalog_from_json(data):
    """Parse catalog JSON (a list of entries); a bad JSON type or a refused entry is a ParseError located in it."""
    data = json_value(data)
    if not isinstance(data, list):
        raise ParseError("catalog JSON must be an array of entries")
    catalog = {}
    for i, item in enumerate(data):
        loc = f"entry[{i}]"
        if not isinstance(item, dict) or "name" not in item or "kind" not in item:
            raise ParseError("entry must have name and kind", location=loc)
        if not isinstance(item["name"], str):
            raise ParseError("name must be a string", location=f"{loc}.name")
        kind, op = item["kind"], item.get("operator")
        try:
            op = None if op is None else diffop_from_json(op)
        except ParseError as exc:
            raise ParseError(exc.reason, location=".".join(filter(None, (loc, "operator", exc.location)))) from exc
        try:
            if any(isinstance(v, (bool, float)) for v in item.get("initial", ())):
                raise TypeError("initial values must be integers or rational strings, not floats or booleans")
            initial = tuple(Fraction(v) for v in item.get("initial", ["1"]))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ParseError(f"bad initial value: {exc}", location=f"{loc}.initial") from exc
        try:
            entry = SeqGen(item["name"], kind, item.get("r") if kind in _POWER_KINDS else 0, op, initial)
        except _EntryRefused as exc:
            raise ParseError(str(exc), location=".".join(filter(None, (loc, exc.field)))) from exc
        catalog[entry.name] = entry
    return catalog


def load_catalog(path):
    with open(path, "r", encoding="utf-8") as fh:
        return catalog_from_json(fh.read())
