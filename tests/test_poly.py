import math
import random
from fractions import Fraction
from math import comb

import pytest

from lucascert import GF, QQ, Poly, default_catalog
from lucascert.diffop import to_d
from lucascert.poly import content


def to_poly(field, ints):
    return Poly(field, [field.coerce(v) for v in ints])


def rand_poly(rng, field, max_deg, scale=9):
    deg = rng.randrange(max_deg + 1)
    if field == QQ:
        cs = [Fraction(rng.randrange(-scale, scale + 1)) for _ in range(deg + 1)]
    else:
        cs = [rng.randrange(field.p) for _ in range(deg + 1)]
    return Poly(field, cs)


def test_gcd_factor_case():
    a = to_poly(QQ, [-1, 0, 1])  # z^2 - 1
    b = to_poly(QQ, [-1, 1])  # z - 1
    assert a.gcd(b) == b


def test_gcd_with_zero_is_monic():
    a = to_poly(QQ, [2, 4])
    assert a.gcd(Poly.zero(QQ)) == to_poly(QQ, [Fraction(1, 2), 1]).monic()
    assert Poly.zero(QQ).gcd(Poly.zero(QQ)).is_zero()


def _euclid_gcd(a, b):
    """Monic gcd by the plain Euclidean remainder sequence."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_gcd_with_a_constant_takes_no_division(field, monkeypatch):
    rng = random.Random(7)
    constants = [to_poly(field, [c]) for c in (1, 3, -2)]
    others = [rand_poly(rng, field, 6) for _ in range(12)] + [to_poly(field, [1, 2]) ** 30]
    pairs = [(a, c) for a in others for c in constants]
    pairs += [(c, a) for a, c in pairs]
    expected = [_euclid_gcd(a, b) for a, b in pairs]
    calls = []
    divmod_ = Poly.divmod
    monkeypatch.setattr(Poly, "divmod", lambda self, other: calls.append(1) or divmod_(self, other))
    got = [a.gcd(b) for a, b in pairs]
    assert got == expected == [Poly.one(field)] * len(pairs)
    assert calls == []


def test_gcd_truncation_of_f2_mod_3_is_separable():
    # oracle: P_{2,3} from the coefficient formula -C(2n,n)^2/(2n-1) reduced mod 3
    coeffs = []
    for n in range(3):
        val = Fraction(-(comb(2 * n, n) ** 2), 2 * n - 1)
        coeffs.append(val.numerator * pow(val.denominator, -1, 3) % 3)
    F3 = GF(3)
    P = Poly(F3, coeffs)
    assert P == to_poly(F3, [1, 2])  # 1 + 2z
    # Euclid by hand: gcd(1 + 2z, 2) = 1
    assert P.gcd(P.derivative()) == Poly.one(F3)


def test_divmod_roundtrip_randomized():
    rng = random.Random(99)
    for field in (QQ, GF(5), GF(13)):
        for _ in range(200):
            a = rand_poly(rng, field, 8)
            b = rand_poly(rng, field, 5)
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()


def test_gcd_divides_both_and_is_greatest():
    rng = random.Random(4242)
    for field in (QQ, GF(7)):
        for _ in range(200):
            a = rand_poly(rng, field, 6)
            b = rand_poly(rng, field, 6)
            c = rand_poly(rng, field, 3)
            a, b = a * c, b * c  # force a common divisor
            g = a.gcd(b)
            if a.is_zero() and b.is_zero():
                assert g.is_zero()
                continue
            assert (a % g).is_zero() if not a.is_zero() else True
            assert (b % g).is_zero() if not b.is_zero() else True
            if not c.is_zero():
                assert (g % c.monic()).is_zero()


def test_power_matches_repeated_multiplication():
    rng = random.Random(17)
    for field in (QQ, GF(3)):
        a = rand_poly(rng, field, 4)
        prod = Poly.one(field)
        for e in range(6):
            assert a**e == prod
            prod = prod * a


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=repr)
def test_pow_with_modulus_matches_power_then_remainder(field):
    rng = random.Random(31)
    for _ in range(150):
        a, m = rand_poly(rng, field, 6), rand_poly(rng, field, 4)
        if m.is_zero():
            continue
        e = rng.choice([0, 1, 2, rng.randrange(3, 40)])
        assert pow(a, e, m) == a**e % m, (a, e, m)
    # x^0 mod a constant: Poly.one % m = 0, as for ints pow(3, 0, 1) = 0
    assert pow(Poly.x(field), 0, Poly.constant(field, 1)) == Poly.one(field) % Poly.one(field) == Poly.zero(field)


def test_kronecker_matches_schoolbook():
    rng = random.Random(5)
    F = GF(7)
    for _ in range(50):
        a = Poly(F, [rng.randrange(7) for _ in range(rng.randrange(1, 120))])
        b = Poly(F, [rng.randrange(7) for _ in range(rng.randrange(1, 120))])
        out_len = len(a.coeffs) + len(b.coeffs) - 1
        if a.is_zero() or b.is_zero():
            continue
        school = [0] * out_len
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                school[i + j] = (school[i + j] + x * y) % 7
        assert list((a * b).coeffs) + [0] * (out_len - len((a * b).coeffs)) == school


def recursive_resultant(a, b):
    """Textbook recursion oracle: Res(a,b) = lc(b)^(m-r) (-1)^(mn) Res(b, a mod b)."""
    m, n = a.degree(), b.degree()
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return a.coeffs[0] ** n
    if n == 0:
        return b.coeffs[0] ** m
    if m < n:
        return Fraction(-1) ** (m * n) * recursive_resultant(b, a)
    r = a % b
    rd = r.degree()
    if rd < 0:
        return Fraction(0)
    return (
        Fraction(-1) ** (m * n)
        * b.leading() ** (m - rd)
        * recursive_resultant(b, r)
    )


def test_resultant_matches_recursion_and_sympy_abs():
    import sympy

    rng = random.Random(31)
    x = sympy.Symbol("x")
    checked = 0
    for _ in range(60):
        a = rand_poly(rng, QQ, 4)
        b = rand_poly(rng, QQ, 4)
        if a.is_zero() or b.is_zero() or a.degree() < 1 or b.degree() < 1:
            continue
        got = a.resultant(b)
        assert got == recursive_resultant(a, b)
        sa = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(a.coeffs))
        sb = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(b.coeffs))
        # sympy's PRS sign convention can differ from the Sylvester determinant
        assert abs(sympy.Rational(got.numerator, got.denominator)) == abs(
            sympy.resultant(sa, sb, x)
        )
        checked += 1
    assert checked > 20


def sylvester_resultant(a, b):
    """Oracle: Res(a, b) as the determinant of the Sylvester matrix, by Gaussian elimination."""
    f, m, n = a.field, a.degree(), b.degree()
    if m < 0 or n < 0:
        return f.zero
    if m == 0 or n == 0:  # the matrix is diagonal: the constant's diagonal
        return f.coerce(a.coeffs[0] ** n if m == 0 else b.coeffs[0] ** m)
    size = m + n
    ac, bc = list(reversed(a.coeffs)), list(reversed(b.coeffs))
    rows = [[f.zero] * i + ac + [f.zero] * (size - i - m - 1) for i in range(n)]
    rows += [[f.zero] * i + bc + [f.zero] * (size - i - n - 1) for i in range(m)]
    det = f.one
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return f.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = f.coerce(-det)
        det = f.coerce(det * rows[col][col])
        inv = f.inv(rows[col][col])
        for r in range(col + 1, size):
            factor = f.coerce(rows[r][col] * inv)
            rows[r] = [f.coerce(x - factor * y) for x, y in zip(rows[r], rows[col])]
    return det


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(101)], ids=repr)
def test_resultant_matches_sylvester_determinant(field):
    # degrees 0..6 with zero and constant operands; small fields make common roots frequent
    rng = random.Random(7 + getattr(field, "p", 0))
    zero_seen = constant_seen = common_root_seen = False
    for _ in range(400):
        a = rand_poly(rng, field, 6) if rng.random() < 0.9 else Poly.zero(field)
        b = rand_poly(rng, field, 6) if rng.random() < 0.9 else Poly.zero(field)
        want = sylvester_resultant(a, b)
        assert a.resultant(b) == want, (a, b)
        zero_seen |= a.is_zero() or b.is_zero()
        constant_seen |= 0 in (a.degree(), b.degree())
        common_root_seen |= min(a.degree(), b.degree()) > 0 and not want
    assert zero_seen and constant_seen and common_root_seen


def test_resultant_of_constants():
    c, z2 = Poly.constant(QQ, Fraction(3)), to_poly(QQ, [1, 0, 1])
    assert c.resultant(z2) == z2.resultant(c) == 9
    assert c.resultant(Poly.constant(QQ, Fraction(5))) == 1
    assert c.resultant(Poly.zero(QQ)) == Poly.zero(QQ).resultant(c) == 0


def test_discriminant_known_value():
    # z^2 - 34z + 1 has discriminant 34^2 - 4 = 1152
    a = to_poly(QQ, [1, -34, 1])
    assert a.discriminant() == 1152


def test_factor_over_q():
    a = to_poly(QQ, [0, 1]) * to_poly(QQ, [-1, 16])  # z(16z - 1)
    unit, factors = a.factor()
    monics = sorted(str(f) for f, _ in factors)
    assert monics == ["-1/16 + z", "z"]


def test_factor_over_fp():
    F5 = GF(5)
    a = to_poly(F5, [1, 0, 1])  # z^2 + 1 = (z-2)(z-3) over F_5
    _, factors = a.factor()
    assert [f.degree() for f, _ in factors] == [1, 1]
    prod = Poly.one(F5)
    for f, m in factors:
        prod = prod * f**m
    assert prod == a.monic()


def sympy_factor(P):
    """Oracle: sympy.factor_list in Poly.factor's form (unit, sorted monic factors)."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    if P.field == QQ:
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(P.coeffs)], z, domain="QQ")
        to_coeffs = lambda fac: [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
    else:
        sp = sympy.Poly([int(c) for c in reversed(P.coeffs)], z, modulus=P.field.p)
        to_coeffs = lambda fac: [int(c) for c in reversed(fac.all_coeffs())]
    factors = [(Poly(P.field, to_coeffs(fac)).monic(), mult) for fac, mult in sp.factor_list()[1]]
    return P.leading(), sorted(factors, key=lambda fm: (fm[0].degree(), fm[0].coeffs))


def check_factor(P):
    unit, factors = P.factor()
    assert (unit, factors) == sympy_factor(P)
    back = Poly.constant(P.field, unit)
    for f, m in factors:
        assert f == f.monic() and f.degree() >= 1
        back = back * f**m
    assert back == P


def cyclotomic_pq(p, q):
    """Phi_pq for distinct primes p, q: (z^pq - 1)(z - 1) / ((z^p - 1)(z^q - 1))."""
    z_minus_1 = lambda n: Poly(QQ, [-1] + [0] * (n - 1) + [1])
    return (z_minus_1(p * q) * z_minus_1(1)).exact_div(z_minus_1(p) * z_minus_1(q))


def catalog_lcm_dens():
    out = {}
    for name, entry in default_catalog().items():
        if entry.operator is not None:
            lcm = Poly.one(QQ)
            for a in to_d(entry.operator).monic_tail():
                lcm = lcm.lcm(a.den)
            out[name] = lcm
    return out


HARD_CASES = {
    "x^4 - 10x^2 + 1": to_poly(QQ, [1, 0, -10, 0, 1]),  # irreducible, yet split mod every prime
    "Phi_15": cyclotomic_pq(3, 5),
    "Phi_21": cyclotomic_pq(3, 7),
    "z(1 - 34z + z^2)^3": to_poly(QQ, [0, 1]) * to_poly(QQ, [1, -34, 1]) ** 3,
    **{f"(z^2 + 1)^{p} over GF({p})": to_poly(GF(p), [1, 0, 1]) ** p for p in (2, 3, 5, 7, 101)},
    "(z + 1)^6 (z^2 + z + 1)^4 over GF(2)": to_poly(GF(2), [1, 1]) ** 6 * to_poly(GF(2), [1, 1, 1]) ** 4,
    "(z - 1)...(z - 10)": math.prod((to_poly(QQ, [-k, 1]) for k in range(1, 11)), start=Poly.one(QQ)),
}


@pytest.mark.parametrize("name", sorted(HARD_CASES))
def test_factor_hard_cases_match_sympy(name):
    check_factor(HARD_CASES[name])


def test_factor_hard_cases_shapes():
    shape = lambda P: [(f.degree(), m) for f, m in P.factor()[1]]
    assert shape(HARD_CASES["x^4 - 10x^2 + 1"]) == [(4, 1)]
    assert shape(HARD_CASES["Phi_15"]) == [(8, 1)]
    assert shape(HARD_CASES["Phi_21"]) == [(12, 1)]
    assert shape(HARD_CASES["z(1 - 34z + z^2)^3"]) == [(1, 1), (2, 3)]
    assert shape(HARD_CASES["(z^2 + 1)^3 over GF(3)"]) == [(2, 3)]
    assert shape(HARD_CASES["(z^2 + 1)^5 over GF(5)"]) == [(1, 5), (1, 5)]


@pytest.mark.parametrize("name", sorted(catalog_lcm_dens()))
def test_factor_catalog_lcm_dens_match_sympy(name):
    check_factor(catalog_lcm_dens()[name])


def test_content_primitive():
    a = Poly(QQ, [Fraction(2, 3), Fraction(4, 3)])
    c, prim = a.content_primitive()
    assert prim == to_poly(QQ, [1, 2])
    assert prim.scale(c) == a
    # a negative leading coefficient moves its sign into the content
    a = Poly(QQ, [Fraction(4, 3), 0, Fraction(-2, 9)])
    c, prim = a.content_primitive()
    assert (c, prim) == (Fraction(-2, 9), to_poly(QQ, [-6, 0, 1]))
    assert prim.scale(c) == a
    assert Poly.zero(QQ).content_primitive() == (0, Poly.zero(QQ))
    with pytest.raises(TypeError):
        to_poly(GF(7), [1, 2]).content_primitive()


def _content_oracle(polys):
    """The content as first written: the lcm of the denominators, then the gcd of the cleared integers."""
    den_lcm = 1
    for P in polys:
        for c in P.coeffs:
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    g = 0
    for P in polys:
        for c in P.coeffs:
            g = math.gcd(g, abs(int(c * den_lcm)))
    return Fraction(g, den_lcm)


def test_content_matches_lcm_then_gcd_oracle():
    rng = random.Random(15)

    def rand_qpoly():
        cs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.7 else 0
              for _ in range(rng.randint(1, 6))]
        return Poly(QQ, cs).scale(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))

    cases = [[], [Poly.zero(QQ)], [Poly(QQ, [Fraction(-3, 4)])], [Poly(QQ, [Fraction(6, 5), 0, 0, Fraction(-9, 10)])]]
    cases += [[rand_qpoly() for _ in range(rng.randint(1, 4))] for _ in range(300)]
    seen = set()
    for polys in cases:
        c = content(polys)
        assert c == _content_oracle(polys), polys
        ints = [v / c for P in polys for v in P.coeffs] if c else []
        assert all(v.denominator == 1 for v in ints)
        assert math.gcd(*(int(v) for v in ints)) == (1 if c else 0)
        seen |= {"zero" if not c else len(polys)}
        seen |= {"interior zero" for P in polys if 0 in P.coeffs}
        seen |= {"negative lead" for P in polys if P and P.leading() < 0}
    assert seen >= {"zero", 1, 2, 3, 4, "interior zero", "negative lead"}
