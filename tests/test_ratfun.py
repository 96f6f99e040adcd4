import random
from fractions import Fraction

import pytest

from lucascert import GF, QQ, Poly, RatFun, ZeroDenominator


def to_poly(field, ints):
    return Poly(field, [field.coerce(v) for v in ints])


def test_common_factor_reduction():
    a = RatFun(to_poly(QQ, [0, 0, 1]), to_poly(QQ, [0, 1]))  # z^2 / z
    assert a.num == to_poly(QQ, [0, 1])
    assert a.den == Poly.one(QQ)
    assert a.height == 1


def test_constant_height_zero():
    a = RatFun(Poly.one(QQ), Poly.one(QQ))
    assert a.height == 0
    assert RatFun(Poly.zero(QQ), to_poly(QQ, [3, 1])).height == 0


def test_cube_over_square_mod_3():
    # (1+z)^3 / (1+2z)^2 over F_3: coprime by Euclid, height = 3
    F3 = GF(3)
    num = to_poly(F3, [1, 1]) ** 3
    den = to_poly(F3, [1, 2]) ** 2
    assert to_poly(F3, [1, 1]).gcd(to_poly(F3, [1, 2])) == Poly.one(F3)
    a = RatFun(num, den)
    assert a.height == 3
    assert a.den.leading() == 1  # monic denominator


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFun(Poly.one(QQ), Poly.zero(QQ))


def rand_ratfun(rng, field, max_deg=5):
    def rand_poly(allow_zero=True):
        deg = rng.randrange(max_deg + 1)
        if field == QQ:
            cs = [Fraction(rng.randrange(-6, 7)) for _ in range(deg + 1)]
        else:
            cs = [rng.randrange(field.p) for _ in range(deg + 1)]
        p = Poly(field, cs)
        if not allow_zero and p.is_zero():
            return Poly.one(field)
        return p
    return RatFun(rand_poly(), rand_poly(allow_zero=False))


def test_height_subadditive():
    rng = random.Random(12000)
    for field in (QQ, GF(5)):
        for _ in range(300):
            a = rand_ratfun(rng, field)
            b = rand_ratfun(rng, field)
            assert (a * b).height <= a.height + b.height


def test_height_exact_when_coprime():
    # no cancellation: height(AB) = max(deg nA + deg nB, deg dA + deg dB);
    # this meets hA + hB exactly when the dominant sides line up
    rng = random.Random(5150)
    F = GF(7)
    hits = aligned = 0
    for _ in range(400):
        a = rand_ratfun(rng, F)
        b = rand_ratfun(rng, F)
        if a.is_zero() or b.is_zero():
            continue
        pairwise_coprime = all(
            p.gcd(q).degree() == 0
            for p in (a.num, a.den)
            for q in (b.num, b.den)
        )
        if not pairwise_coprime:
            continue
        hits += 1
        prod = a * b
        assert prod.height == max(
            a.num.degree() + b.num.degree(), a.den.degree() + b.den.degree()
        )
        if (a.num.degree() - a.den.degree()) * (b.num.degree() - b.den.degree()) >= 0:
            aligned += 1
            assert prod.height == a.height + b.height
    assert hits > 50 and aligned > 20


def test_derivative_quotient_rule():
    # d/dz [ z / (1 - z) ] = 1 / (1-z)^2
    a = RatFun(to_poly(QQ, [0, 1]), to_poly(QQ, [1, -1]))
    d = a.derivative()
    assert d == RatFun(Poly.one(QQ), to_poly(QQ, [1, -1]) ** 2)


def test_substitute_inverse():
    # a(z) = z / (1 - 16 z) -> a(1/z) = 1 / (z - 16)
    a = RatFun(to_poly(QQ, [0, 1]), to_poly(QQ, [1, -16]))
    b = a.substitute_inverse()
    assert b == RatFun(Poly.one(QQ), to_poly(QQ, [-16, 1]))
    # involution
    assert b.substitute_inverse() == a


def test_power_and_division():
    F = GF(5)
    a = RatFun(to_poly(F, [1, 1]), to_poly(F, [1, 2]))
    assert a**3 / a == a * a
    assert a ** (-2) == RatFun.one(F) / (a * a)
