import inspect
import random
from fractions import Fraction
from math import comb

import pytest

from lucascert import (
    GF,
    QQ,
    NotPLocal,
    Poly,
    TruncSeries,
    poly,
    q_series,
    reduce_series_mod_p,
    section_decomposition,
    series,
)


def series_inverse(f):
    """Multiplicative inverse of a series with unit constant term, by the schoolbook recurrence."""
    F, c = f.field, f.coeffs
    out = [F.inv(c[0])]
    for n in range(1, len(c)):
        acc = F.zero
        for k in range(1, n + 1):
            if c[k]:  # a polynomial divisor is mostly zeros
                acc = F.coerce(acc + c[k] * out[n - k])
        out.append(F.coerce(-out[0] * acc))
    return TruncSeries(F, out)


def central_binomials(T):
    return q_series([comb(2 * n, n) for n in range(T)])


def test_cartier_index_selection():
    f = q_series([1, 2, 6, 20, 70, 252, 924])
    assert f.cartier(3, 0).coeffs == (1, 20, 924)
    g = q_series([1, 2, 6, 20, 70, 252, 924, 3432])
    assert g.cartier(3, 1).coeffs == (2, 70, 3432)


def test_cartier_section_identity():
    f = q_series([1, 2, 3, 4, 5, 6, 7, 8, 9])
    lifted = f.compose_power(3, 1, out_len=27)
    assert lifted.cartier(3, 0).eq_to_order(f)


def test_compose_examples():
    f = q_series([1, 1])
    g = f.compose_power(3, 1, out_len=4)
    assert g.coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    assert f.compose_power(3, 0) == f


def test_compose_refuses_unknowable_orders():
    f = q_series([1, 1])
    with pytest.raises(ValueError):
        f.compose_power(3, 1, out_len=7)


def test_frobenius_over_fp():
    # f^p = f(z^p) over F_p, checked on the central binomial squares mod 3 to T=30
    T = 30
    f = reduce_series_mod_p(q_series([comb(2 * n, n) ** 2 for n in range(T)]), 3)
    assert (f**3).eq_to_order(f.compose_power(3, 1), T)


def test_delta_examples():
    f = q_series([1, 1, 1])
    assert f.delta().coeffs == (Fraction(0), Fraction(1), Fraction(2))
    assert q_series([5]).delta().coeffs == (Fraction(0),)


def test_cartier_delta_commutation_over_q():
    # Lambda_p(delta f) = p * delta(Lambda_p f) on the binomial squares to T=50
    T, p = 50, 3
    f = q_series([comb(2 * n, n) ** 2 for n in range(T)])
    lhs = f.delta().cartier(p, 0)
    rhs = f.cartier(p, 0).delta().scale(p)
    assert lhs.eq_to_order(rhs)


def test_section_decomposition_reassembles():
    rng = random.Random(321)
    for p in (2, 3, 5):
        F = GF(p)
        T = 40
        f = TruncSeries(F, [rng.randrange(p) for _ in range(T)])
        parts = section_decomposition(f, p)
        acc = TruncSeries.zero(F, T)
        for r, part in enumerate(parts):
            lifted = part.compose_power(p, 1, out_len=T - r)
            padded = TruncSeries(F, (0,) * r + lifted.coeffs)
            acc = acc + padded.truncate(T)
        assert acc.eq_to_order(f, T)


def test_cartier_multiplicativity_with_zp_factor():
    # Lambda_p(u * v(z^p)) = Lambda_p(u) * v
    rng = random.Random(77)
    p, T = 3, 60
    F = GF(p)
    u = TruncSeries(F, [rng.randrange(p) for _ in range(T)])
    v = TruncSeries(F, [rng.randrange(p) for _ in range(T // p)])
    prod = u * v.compose_power(p, 1, out_len=T)
    lhs = prod.cartier(p, 0)
    rhs = u.cartier(p, 0) * v
    assert lhs.eq_to_order(rhs)


def test_reduce_series_examples():
    # central binomial squares mod 3: 1, 4, 36, 400, 4900 -> 1, 1, 0, 1, 1
    f = q_series([comb(2 * n, n) ** 2 for n in range(5)])
    assert reduce_series_mod_p(f, 3).coeffs == (1, 1, 0, 1, 1)
    assert reduce_series_mod_p(q_series([0, 0, 0]), 5).coeffs == (0, 0, 0)
    with pytest.raises(NotPLocal) as err:
        reduce_series_mod_p(q_series([1, Fraction(1, 5)]), 5)
    assert err.value.index == 1


def test_reduce_series_solves_den_times_residue_eq_num():
    """Integral and p-local fractional coefficients, negative, zero and past 2^64."""
    rng = random.Random(29)
    for p in (2, 3, 37, 2**61 - 1):
        cs = [Fraction(rng.randrange(-(2**70), 2**70), rng.choice([1, 1, 3, 2**67 + 1, p + 2]))
              for _ in range(60)] + [Fraction(0), Fraction(-1)]
        cs = [c for c in cs if c.denominator % p]
        got = reduce_series_mod_p(TruncSeries(QQ, cs), p)
        assert got.field == GF(p) and len(got.coeffs) == len(cs)
        for r, c in zip(got.coeffs, cs):
            assert type(r) is int and 0 <= r < p and (r * c.denominator - c.numerator) % p == 0


def test_mul_truncates_to_min():
    a = q_series([1, 2, 3, 4])
    b = q_series([1, 1])
    assert len(a * b) == 2
    assert (a * b).coeffs == (Fraction(1), Fraction(3))


def test_mul_poly_keeps_order():
    a = q_series([1, 2, 3, 4])
    p = Poly(QQ, [Fraction(1), Fraction(1)])
    assert (a.mul_poly(p)).coeffs == (Fraction(1), Fraction(3), Fraction(5), Fraction(7))


def test_inverse():
    rng = random.Random(8)
    F = GF(11)
    f = TruncSeries(F, [1] + [rng.randrange(11) for _ in range(39)])
    g = f * series_inverse(f)
    assert g.eq_to_order(TruncSeries.one(F, 40))


# series lengths for `/`: the short ones, every 2^k - 1, 2^k and 2^k + 1 up to 300, and 300
DIV_LENGTHS = sorted({*range(1, 8), *(2**k + d for k in range(3, 9) for d in (-1, 0, 1)), 300})


@pytest.mark.parametrize("field", [GF(2), GF(31), GF(2**31 - 1), QQ], ids=repr)
def test_series_division_matches_div_poly(field):
    """Newton's division against the recurrence of `div_poly` by the divisor's polynomial."""
    rng = random.Random(41)
    if field == QQ:
        draw = lambda: Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 7]))
        unit = lambda: rng.choice([1, -2, Fraction(2, 3)])
    else:
        draw, unit = (lambda: rng.randrange(field.p)), (lambda: rng.randrange(1, field.p))
    for T in DIV_LENGTHS:
        a = TruncSeries(field, [draw() for _ in range(T)])
        b = TruncSeries(field, [unit()] + [draw() for _ in range(T - 1)])
        got = a / b
        assert got.field == field and len(got) == T
        assert got.coeffs == a.div_poly(b.poly()).coeffs, T
        assert all(type(c) is (Fraction if field == QQ else int) for c in got.coeffs)


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(101), QQ], ids=repr)
def test_div_poly_by_a_constant_is_the_recurrence(field):
    """A constant divisor 1, 2 or -1 (p - 1 mod p) against the recurrence, 1 returning the series itself.

    The recurrence runs on c + z^(T+1), whose tail lies past the order T of the series.
    """
    rng = random.Random(53)
    a = TruncSeries(field, [Fraction(rng.randrange(-50, 50), rng.choice([1, 3])) for _ in range(40)])
    for c in (1, 2, -1):
        P = Poly(field, [c])
        if not P:  # 2 over GF(2)
            with pytest.raises(ZeroDivisionError):
                a.div_poly(P)
            continue
        got = a.div_poly(P)
        assert got == a.div_poly(P + Poly.x(field) ** (len(a) + 1)) and got.scale(c) == a
        assert all(type(v) is (Fraction if field == QQ else int) for v in got.coeffs)
    assert a.div_poly(Poly.one(field)) is a
    with pytest.raises(ZeroDivisionError):
        a.div_poly(Poly.zero(field))


def test_series_division_truncates_to_the_shorter_and_checks_its_operands():
    F = GF(5)
    a, b = TruncSeries(F, [1, 2, 3, 4, 0, 1]), TruncSeries(F, [2, 1, 4])
    assert a / b == a.truncate(3).div_poly(b.poly())
    assert (b / a) * a.truncate(3) == b
    with pytest.raises(ZeroDivisionError):
        a / TruncSeries(F, [0, 1, 1])
    with pytest.raises(ZeroDivisionError):
        q_series([1, 2]) / q_series([0, 3])
    with pytest.raises(TypeError):
        a / TruncSeries(GF(7), [1, 1])
    with pytest.raises(TypeError):
        q_series([1, 2]) / TruncSeries(F, [1, 1])
    assert len(TruncSeries(F, []) / b) == 0


def test_reduce_series_reduces_each_coefficient_once(monkeypatch):
    """One `reduce_rat_mod_p` call a coefficient, and on failure the index of the first non-p-local one."""
    calls = []
    reduce_rat = series.reduce_rat_mod_p
    monkeypatch.setattr(series, "reduce_rat_mod_p", lambda c, p: calls.append(c) or reduce_rat(c, p))
    f = q_series([Fraction(n + 1, 2 * n + 1) for n in range(40)])
    assert reduce_series_mod_p(f, 101).coeffs == tuple((n + 1) * pow(2 * n + 1, -1, 101) % 101 for n in range(40))
    assert len(calls) == 40
    with pytest.raises(NotPLocal) as err:
        reduce_series_mod_p(f, 7)  # 2n + 1 = 7 at n = 3, then at n = 10, 17, ...
    assert (err.value.index, err.value.value) == (3, Fraction(4, 7))


def test_powers():
    f = TruncSeries(GF(5), [1, 2, 3])
    assert f**0 == TruncSeries.one(GF(5), 3)
    assert f**3 == f * f * f
    with pytest.raises(ValueError, match="negative series power"):
        f ** -1


def test_truncate():
    f = q_series([1, 2, 3, 4])
    assert f.truncate(2) == q_series([1, 2])
    assert f.truncate(4) is f  # series are immutable: no copy
    with pytest.raises(ValueError):
        f.truncate(5)


# denominators of the random Fractions over Q: small and mixed; past 2^64,
# two of them sharing a factor, beside a small one; 1 throughout; and a
# first operand of zeros only
Q_DENOMINATORS = {
    "mixed": lambda rng: rng.choice([1, 2, 3, 4, 6, 7, 9, 10, 12, 35]),
    "large": lambda rng: rng.choice([2**64 + 1, 2**64 + 13, 3 * (2**64 + 1), 5]),
    "integer": lambda rng: 1,
    "zero": lambda rng: 1,
}
# the field is GF(p) for an int, QQ with that denominator mix for a name
CONVOLVE_SHAPES = [
    (kind, field, la, lb)
    for kind in ("poly", "series", "mul_poly")
    for field in (5, 2**31 - 1, *Q_DENOMINATORS)
    for la, lb in [(1, 1), (1, 80), (2, 80), (3, 3), (4, 4), (3, 6), (6, 3), (23, 23),
                   (23, 25), (24, 24), (24, 80), (25, 25), (25, 1), (80, 80), (80, 23)]
]
Q_SHAPES = [shape for shape in CONVOLVE_SHAPES if shape[1] in Q_DENOMINATORS]


def convolve_case(kind, field, la, lb):
    """A product of the given shape, by the library and by a plain double loop.

    Poly keeps the full product; TruncSeries * TruncSeries truncates to the
    shorter operand and mul_poly to the series, both shorter than the product.
    Returns both coefficient tuples and the two operands cut to the
    product's length, as `convolve` sees them.
    """
    rng = random.Random(13 + la * 100 + lb)
    if field in Q_DENOMINATORS:
        F, p, pick = QQ, 0, Q_DENOMINATORS[field]
        coeff = lambda: Fraction(rng.randrange(-(2**70), 2**70), pick(rng))
        nonzero = lambda: Fraction(rng.choice([-1, 1]) * rng.randrange(1, 2**70), pick(rng))
    else:
        F, p = GF(field), field
        coeff, nonzero = lambda: rng.randrange(p), lambda: rng.randrange(1, p)

    def draw(n):  # about a fifth zeros, nonzero last coefficient
        cs = [coeff() if rng.random() > 0.2 else F.zero for _ in range(n)]
        return cs[:-1] + [nonzero()]

    a, b = draw(la), draw(lb)
    if field == "zero":
        a = [F.zero] * la
    n = {"poly": la + lb - 1, "series": min(la, lb), "mul_poly": la}[kind]
    out = [F.zero] * n
    for i in range(la):
        for j in range(lb):
            if i + j < n:
                out[i + j] += a[i] * b[j]
    want = tuple(c % p for c in out) if p else tuple(out)
    if kind == "poly":
        got, want = (Poly(F, a) * Poly(F, b)).coeffs, Poly(F, want).coeffs
    elif kind == "series":
        got = (TruncSeries(F, a) * TruncSeries(F, b)).coeffs
    else:
        got = TruncSeries(F, a).mul_poly(Poly(F, b)).coeffs
    return got, want, a[:n], b[:n]


@pytest.mark.parametrize(
    "kind,field,la,lb",
    CONVOLVE_SHAPES,
    ids=[f"{k}-QQ-{f}-{la}x{lb}" if f in Q_DENOMINATORS else f"{k}-p{f}-{la}x{lb}"
         for k, f, la, lb in CONVOLVE_SHAPES],
)
def test_kronecker_series_mul_matches_schoolbook(kind, field, la, lb):
    """Every product route against a plain double loop: Kronecker and
    schoolbook over F_p, integer numerators over one denominator over Q."""
    got, want, _, _ = convolve_case(kind, field, la, lb)
    assert got == want
    assert all(type(c) is (Fraction if field in Q_DENOMINATORS else int) for c in got)


@pytest.mark.parametrize("dropped", ["da", "db"])
def test_q_oracle_catches_a_dropped_denominator(monkeypatch, dropped):
    """A Q route that forgets one operand's denominator fails every product it changes.

    It leaves a product right only when that operand is integral or the
    product is zero; every other Q product check must fail.
    """
    source = inspect.getsource(poly.convolve)
    final = "[da * db]"
    assert source.count(final) == 1
    namespace = dict(vars(poly))
    exec(source.replace(final, "[db]" if dropped == "da" else "[da]"), namespace)
    for module in (poly, series):
        monkeypatch.setattr(module, "convolve", namespace["convolve"])
    caught = 0
    for shape in Q_SHAPES:
        got, want, a, b = convolve_case(*shape)
        lost = a if dropped == "da" else b
        unchanged = all(c.denominator == 1 for c in lost) or not any(want)
        assert (got == want) == unchanged, shape
        caught += not unchanged
    assert caught >= len(Q_SHAPES) // 3  # 82 (da) and 88 (db) of the 180 shapes
