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
    q_series,
    reduce_series_mod_p,
    section_decomposition,
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


CONVOLVE_SHAPES = [
    (kind, p, la, lb)
    for kind in ("poly", "series", "mul_poly")
    for p in (5, 2**31 - 1)
    for la, lb in [(1, 1), (1, 80), (2, 80), (3, 3), (4, 4), (3, 6), (6, 3), (23, 23),
                   (23, 25), (24, 24), (24, 80), (25, 25), (25, 1), (80, 80), (80, 23)]
]


@pytest.mark.parametrize(
    "kind,p,la,lb", CONVOLVE_SHAPES, ids=[f"{k}-p{p}-{la}x{lb}" for k, p, la, lb in CONVOLVE_SHAPES]
)
def test_kronecker_series_mul_matches_schoolbook(kind, p, la, lb):
    """Both product routes (Kronecker, schoolbook) against a plain double loop.

    Poly keeps the full product; TruncSeries * TruncSeries truncates to the
    shorter operand and mul_poly to the series, both shorter than the product.
    """
    rng = random.Random(13 + la * 100 + lb)
    F = GF(p)

    def draw(n):  # about a fifth zeros, nonzero last coefficient
        cs = [rng.randrange(p) if rng.random() > 0.2 else 0 for _ in range(n)]
        return cs[:-1] + [rng.randrange(1, p)]

    a, b = draw(la), draw(lb)
    n = {"poly": la + lb - 1, "series": min(la, lb), "mul_poly": la}[kind]
    out = [0] * n
    for i in range(la):
        for j in range(lb):
            if i + j < n:
                out[i + j] = (out[i + j] + a[i] * b[j]) % p
    if kind == "poly":
        got = (Poly(F, a) * Poly(F, b)).coeffs
    elif kind == "series":
        got = (TruncSeries(F, a) * TruncSeries(F, b)).coeffs
    else:
        got = TruncSeries(F, a).mul_poly(Poly(F, b)).coeffs
    assert got == tuple(out)
