import random
from fractions import Fraction

import pytest

from lucascert import GF, QQ, Poly, RatFun, ZeroDenominator
from lucascert.ratfun import common_denominator


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


def test_power_and_division():
    F = GF(5)
    a = RatFun(to_poly(F, [1, 1]), to_poly(F, [1, 2]))
    assert a**3 / a == a * a
    assert a ** (-2) == RatFun.one(F) / (a * a)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(101)])
def test_henrici_products_match_naive(field):
    # random reduced fractions, including zero and constants, given cross
    # factors so that a.num shares with b.den and b.num with a.den
    rng = random.Random(4511)
    for _ in range(150):
        a, b = rand_ratfun(rng, field, max_deg=rng.choice((0, 3))), rand_ratfun(rng, field)
        shared = rand_ratfun(rng, field, max_deg=2).den
        a = RatFun(a.num * shared, a.den)
        b = RatFun(b.num, b.den * shared)
        if rng.random() < 0.5:
            a, b = b, a
        assert a * b == RatFun(a.num * b.num, a.den * b.den)
        if not b.is_zero():
            assert a / b == RatFun(a.num * b.den, a.den * b.num)
        if not a.is_zero():
            k = rng.randrange(1, 4)
            assert a ** (-k) == RatFun(a.den**k, a.num**k)
        assert a * b.num == RatFun(a.num * b.num, a.den)  # a Poly operand
        assert a * 3 == RatFun(a.num.scale(3), a.den)


def test_inverse_of_zero():
    zero = RatFun.zero(GF(5))
    with pytest.raises(ZeroDenominator):
        zero ** (-1)
    with pytest.raises(ZeroDivisionError):
        RatFun.one(GF(5)) / zero


def test_common_denominator(monkeypatch):
    rng = random.Random(16)
    for field in (QQ, GF(7)):
        z = Poly.x(field)
        pool = [z, z + Poly.one(field), z.scale(3) - Poly.constant(field, 2), z * z + Poly.one(field)]

        def rand_poly(max_degree):
            return Poly(field, [field.coerce(rng.randint(-9, 9)) for _ in range(rng.randint(1, max_degree + 1))])

        for _ in range(80):
            pairs = []
            for _ in range(rng.randint(1, 4)):
                # denominators: products of shared factors, not monic, sometimes constant
                d = Poly.constant(field, rng.choice((1, 2, -3, 5)))
                for _ in range(rng.randint(0, 3)):
                    d = d * rng.choice(pool)
                pairs.append((rand_poly(3), d))
            D, nums = common_denominator(field, pairs)
            lcm = Poly.one(field)
            for _, d in pairs:
                lcm = lcm.lcm(d)
            assert D == lcm and D.leading() == 1
            assert len(nums) == len(pairs)
            for (n, d), N in zip(pairs, nums):
                assert RatFun(N, D) == RatFun(n, d)

        assert common_denominator(field, []) == (Poly.one(field), [])
        # constant denominators: D = 1, and no gcd is taken
        gcds = []
        real_gcd = Poly.gcd
        monkeypatch.setattr(Poly, "gcd", lambda a, b: gcds.append(1) or real_gcd(a, b))
        n = Poly(field, [1, 2, 3])
        D, nums = common_denominator(field, [(n, Poly.constant(field, 2)), (n, Poly.one(field))])
        monkeypatch.undo()
        assert gcds == []
        assert D == Poly.one(field)
        assert nums == [n.scale(field.inv(field.coerce(2))), n]
