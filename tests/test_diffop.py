import json
import math
import random
import re
import time
from fractions import Fraction
from functools import reduce
from math import comb
from operator import add, mul

import pytest

from lucascert import (
    GF,
    QQ,
    BadPrime,
    DiffOp,
    LeadingZero,
    NotMomAtZero,
    NotSeriesExpandable,
    Poly,
    RatFun,
    TruncSeries,
    assemble_certificate,
    companion,
    default_catalog,
    diffop_from_json,
    diffop_from_polys,
    diffop_to_json,
    expand,
    exponents_at_zero,
    frobenius_shadow,
    good_primes,
    hypergeometric_fr_operator,
    indicial_at_zero,
    infinity_transform,
    is_mom,
    p_curvature,
    q_series,
    recurrence_from,
    reduce_op_mod_p,
    singularities,
    to_d,
    to_delta,
)
from lucascert.cli import main as cli_main
from lucascert.diffop import _index_polys, _local_polys
from lucascert.poly import content

CAT = default_catalog()


def equals_up_to_factor(L, M):
    """True when the operators differ by a nonzero rational-function factor."""
    if L.basis != M.basis or L.order != M.order:
        return False
    ratio = L.coeffs[0] / M.coeffs[0]
    return all((a - b * ratio).is_zero() for a, b in zip(L.coeffs[1:], M.coeffs[1:]))
L_2F1 = CAT["f2"].operator  # z(1-16z) d^2 + (1-16z) d + 4
L_APERY = CAT["apery"].operator


def qpoly(ints):
    return Poly(QQ, [Fraction(v) for v in ints])


# -- basis conversions ---------------------------------------------------------


def test_to_delta_2f1():
    # by hand: z^2 L = (1-16z) delta^2 + 4z after stripping one z
    Ld = to_delta(L_2F1)
    expected = diffop_from_polys(QQ, "delta", [[0, 4], [], [1, -16]])
    assert equals_up_to_factor(Ld, expected)


def test_to_delta_order_one():
    # d/dz: z * L = delta
    L = diffop_from_polys(QQ, "d", [[], [1]])
    Ld = to_delta(L)
    expected = diffop_from_polys(QQ, "delta", [[], [1]])
    assert equals_up_to_factor(Ld, expected)


def test_to_delta_identity_on_delta_input():
    L = diffop_from_polys(QQ, "delta", [[1], [2, 3]])
    assert to_delta(L) is L


def test_to_d_2f1():
    Ld = diffop_from_polys(QQ, "delta", [[0, 4], [], [1, -16]])
    got = to_d(Ld)
    assert equals_up_to_factor(got, L_2F1)


def test_to_d_delta():
    L = diffop_from_polys(QQ, "delta", [[], [1]])
    expected = diffop_from_polys(QQ, "d", [[], [0, 1]])  # z d/dz
    assert equals_up_to_factor(to_d(L), expected)


def test_roundtrip_apery_up_to_factor():
    back = to_d(to_delta(L_APERY))
    assert equals_up_to_factor(back, L_APERY)


def test_roundtrip_preserves_annihilation():
    # both forms of each catalog operator kill the truncated series, T = 120
    for name in ("g1", "g2", "g3", "f2", "f3", "apery"):
        entry = CAT[name]
        f = q_series([Fraction(c) for c in __import__("lucascert").gen_terms(entry, 120)])
        L = entry.operator
        assert to_delta(L).apply(f).is_zero(), name
        assert to_d(to_delta(L)).apply(f).is_zero(), name


def apply_by_series(L, f):
    """L(f) as sum_k P_k delta^k f, P_k the delta-form numerators, by series products and delta."""
    out = TruncSeries.zero(f.field, len(f))
    for pk in reversed(to_delta(L).nums):
        out = out + f.mul_poly(pk)
        f = f.delta()
    return out


def _apply_cases():
    """(label, L, f): catalog operators on their series, exact and perturbed, and random operators."""
    cases = []
    for name in ("g1", "g2", "g3", "f2", "f3", "apery"):
        terms = __import__("lucascert").gen_terms(CAT[name], 60)
        cases.append((f"{name} kills its series", CAT[name].operator, q_series(terms)))
        terms[7] += Fraction(1, 3)
        cases.append((f"{name} on a changed term", CAT[name].operator, q_series(terms)))
    for r in (2, 3):
        f = q_series(__import__("lucascert").gen_terms(CAT[f"f{r}"], 60))
        cases.append((f"L_{r} over Q with rational coefficients", hypergeometric_fr_operator(r), f))
    rng = random.Random(23)
    for k in range(24):
        field = QQ if k % 3 == 0 else GF(rng.choice([2, 3, 7, 101]))
        basis = rng.choice(["d", "delta"])
        if field == QQ:
            draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        else:
            draw = lambda: rng.randrange(field.p)
        coeffs = [RatFun(Poly(field, [draw() for _ in range(rng.randint(1, 4))]),
                         Poly(field, [1] + [draw() for _ in range(rng.randint(0, 2))]))
                  for _ in range(rng.randint(1, 4))]
        if coeffs[0].is_zero():
            coeffs[0] = RatFun.one(field)
        f = TruncSeries(field, [draw() for _ in range(rng.randint(1, 40))])
        cases.append((f"random {k} over {field!r}, {basis} basis", DiffOp(field, basis, coeffs), f))
    return cases


@pytest.mark.parametrize("label, L, f", [pytest.param(*c, id=c[0]) for c in _apply_cases()])
def test_apply_matches_series_route(label, L, f):
    """The integer residual against the series route, coefficient by coefficient, zero or not."""
    got = L.apply(f)
    assert got.field == f.field and len(got) == len(f)
    assert got.coeffs == apply_by_series(L, f).coeffs
    assert all(type(c) is (Fraction if f.field == QQ else int) for c in got.coeffs)
    if "kills" in label or label.startswith("L_"):
        assert got.is_zero()
    if "changed term" in label:
        assert not got.is_zero()


def test_apply_on_non_mom_operators_and_mismatched_fields():
    # z d + 1 and delta^2 + 3 delta + 1 - z: no recurrence_from, but apply needs none
    f = q_series([1, Fraction(1, 2), Fraction(-2, 3), 5])
    for L in (diffop_from_polys(QQ, "d", [[1], [0, 1]]), diffop_from_polys(QQ, "delta", [[1, -1], [3], [1]])):
        with pytest.raises(NotMomAtZero):
            recurrence_from(L)
        assert L.apply(f).coeffs == apply_by_series(L, f).coeffs
    # delta - z on exp(z) = sum z^n / n!: zero, term by term
    exp_z = q_series([Fraction(1, math.factorial(n)) for n in range(30)])
    assert diffop_from_polys(QQ, "delta", [[0, -1], [1]]).apply(exp_z).is_zero()
    with pytest.raises(TypeError):
        L_2F1.apply(TruncSeries(GF(5), [1, 2, 3]))


# -- singularities ----------------------------------------------------------------


def test_singularities_2f1():
    rep = singularities(L_2F1)
    factors = sorted(str(f) for f, _ in rep.finite_points)
    assert factors == ["-1/16 + z", "z"]
    assert all(reg for _, reg in rep.finite_points)
    assert rep.infinity == "regular"
    assert rep.count_r == 2
    assert rep.is_fuchsian()


def test_singularities_d2():
    L = diffop_from_polys(QQ, "d", [[], [], [1]])  # d^2/dz^2
    rep = singularities(L)
    assert rep.finite_points == ()
    assert rep.count_r == 0
    # degree criterion reports infinity as regular (indeed 1, z are the solutions)
    assert rep.infinity == "regular"


def test_singularities_apery():
    rep = singularities(L_APERY)
    factors = sorted((str(f), f.degree()) for f, _ in rep.finite_points)
    assert factors == [("1 + -34*z + z^2", 2), ("z", 1)]
    assert rep.count_r == 3


def test_singularity_irregular_example():
    # z^2 d/dz + 1 has an irregular singular point at 0 (pole order 2 > 1)
    L = diffop_from_polys(QQ, "d", [[1], [0, 0, 1]])
    rep = singularities(L)
    assert [(str(f), reg) for f, reg in rep.finite_points] == [("z", False)]
    assert not rep.is_fuchsian()


# -- indicial polynomial, MOM -------------------------------------------------------


def test_indicial_2f1_is_x_squared():
    assert indicial_at_zero(L_2F1) == qpoly([0, 0, 1])


def test_indicial_delta_minus_c():
    L = diffop_from_polys(QQ, "delta", [[-7], [1]])
    assert indicial_at_zero(L) == qpoly([-7, 1])


def test_indicial_apery_is_x_cubed():
    assert indicial_at_zero(L_APERY) == qpoly([0, 0, 0, 1])


def test_indicial_raises_on_pole_at_zero():
    # delta + 1/z: the normalized delta coefficient has a pole at 0
    L = DiffOp(
        QQ,
        "delta",
        [RatFun.one(QQ), RatFun(Poly.one(QQ), Poly(QQ, [Fraction(0), Fraction(1)]))],
    )
    with pytest.raises(NotSeriesExpandable):
        indicial_at_zero(L)
    assert not is_mom(L)


@pytest.mark.parametrize(
    "L,exponents",
    [
        (diffop_from_polys(QQ, "delta", [[-1], [0], [4]]), [Fraction(1, 2), Fraction(-1, 2)]),
        (L_APERY, [0, 0, 0]),
        (diffop_from_polys(QQ, "delta", [[-2], [0], [1]]), []),  # roots +-sqrt(2) are not in Q
    ],
)
def test_exponents_at_zero(L, exponents):
    assert exponents_at_zero(L) == exponents


def test_is_mom():
    assert is_mom(L_2F1)
    assert is_mom(L_APERY)
    assert not is_mom(diffop_from_polys(QQ, "delta", [[-1], [1]]))  # indicial x - 1


def test_is_mom_order_one_ordinary_point():
    # (1-4z) d - 2: zero is an ordinary point with exponent 0; counted as MOM
    assert is_mom(CAT["g1"].operator)


def test_is_mom_survives_reduction_at_good_primes():
    for name in ("f2", "apery"):
        L = CAT[name].operator
        for p in good_primes(L, 7):
            assert is_mom(reduce_op_mod_p(L, p)), (name, p)


# -- infinity transform ---------------------------------------------------------------


def test_infinity_transform_delta_sign_flip():
    L = diffop_from_polys(QQ, "delta", [[], [1]])  # delta
    Linf = infinity_transform(L)
    expected = diffop_from_polys(QQ, "d", [[], [0, 1]])  # z d/dz up to sign
    assert equals_up_to_factor(to_delta(Linf), to_delta(expected))
    # delta maps to -delta, so the indicial root stays 0
    assert indicial_at_zero(Linf) == qpoly([0, 1])


def test_infinity_transform_2f1_exponents():
    # exponents at infinity of 2F1(-1/2, 1/2; 1) are {-1/2, 1/2}
    Linf = infinity_transform(L_2F1)
    ind = indicial_at_zero(Linf)
    assert ind == qpoly([Fraction(-1, 4), 0, 1])  # (x-1/2)(x+1/2)


def test_infinity_transform_involution():
    for L in (L_2F1, L_APERY, CAT["g1"].operator):
        twice = infinity_transform(infinity_transform(L))
        assert equals_up_to_factor(twice, to_d(L))


def test_exponent_duality_on_catalog():
    # indicial of the transform = indicial at infinity, consistent with the
    # degree criterion verdict on regularity
    for name in ("g1", "g2", "f2", "apery"):
        L = CAT[name].operator
        rep = singularities(L)
        Linf = infinity_transform(L)
        ind = indicial_at_zero(Linf)  # must exist when infinity is regular
        assert ind.degree() == L.order
        assert rep.infinity == "regular"


# -- the RatFun conversions, kept as the oracle of the cleared-form rewriting ---------


def _stirling_first(n, k):
    """Signed Stirling numbers of the first kind: z^n d^n = sum_k s(n,k) delta^k."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k > n:
        return 0
    return _stirling_first(n - 1, k - 1) - (n - 1) * _stirling_first(n - 1, k)


def _stirling_second(n, k):
    """Stirling numbers of the second kind: delta^n = sum_k S(n,k) z^k d^k."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k > n:
        return 0
    return _stirling_second(n - 1, k - 1) + k * _stirling_second(n - 1, k)


def _strip_common_z(coeffs):
    """Divide all coefficients by the largest common power of z."""
    v = min(c.num.valuation() - c.den.valuation() for c in coeffs if not c.is_zero())
    z = RatFun.from_poly(Poly.x(coeffs[0].field))
    return [c * z ** (-v) for c in coeffs]


def _to_delta_oracle(L):
    if L.basis == "delta":
        return L
    field, n = L.field, L.order
    out = [RatFun.zero(field) for _ in range(n + 1)]  # index = delta power
    for i in range(n + 1):  # derivative order
        base = L.coeffs[L.order - i] * Poly.x(field) ** (n - i)  # to be multiplied by z^i d^i
        for k in range(i + 1):
            out[k] = out[k] + base * _stirling_first(i, k)
    return DiffOp(field, "delta", _strip_common_z(out[::-1]))


def _to_d_oracle(L):
    if L.basis == "d":
        return L
    field, n = L.field, L.order
    out = [RatFun.zero(field) for _ in range(n + 1)]  # index = derivative order
    for j in range(n + 1):  # delta power
        for k in range(j + 1):
            out[k] = out[k] + L.coeffs[L.order - j] * Poly.x(field) ** k * _stirling_second(j, k)
    return DiffOp(field, "d", _strip_common_z(out[::-1]))


def _substitute_inverse(a):
    """The rational function a(1/z)."""
    if a.is_zero():
        return a
    dn, dd = a.num.degree(), a.den.degree()
    rn, rd = a.num.reverse(), a.den.reverse()
    if dd >= dn:
        return RatFun(rn.shift(dd - dn), rd)
    return RatFun(rn, rd.shift(dn - dd))


def _infinity_transform_oracle(L):
    Ld = _to_d_oracle(L)
    field, n = Ld.field, Ld.order
    z2 = Poly(field, (field.zero, field.zero, field.coerce(-1)))  # -z^2
    # powers[i] = (-z^2 d/dz)^i expanded as sum_j c_j(z) d^j, c_j polynomial
    powers = [[Poly.one(field)]]
    for _ in range(n):
        prev = powers[-1]
        nxt = [Poly.zero(field) for _ in range(len(prev) + 1)]
        for j, c in enumerate(prev):
            nxt[j] = nxt[j] + z2 * c.derivative()
            nxt[j + 1] = nxt[j + 1] + z2 * c
        powers.append(nxt)
    out = [RatFun.zero(field) for _ in range(n + 1)]
    for i in range(n + 1):
        a_inv = _substitute_inverse(Ld.coeffs[Ld.order - i])
        for j, c in enumerate(powers[i]):
            out[j] = out[j] + a_inv * c
    return DiffOp(field, "d", _strip_common_z(out[::-1]))


def _indicial_oracle(L):
    field = L.field
    coeffs = [field.one]
    for b in _to_delta_oracle(L).monic_tail():
        if b.has_pole_at_zero():
            raise NotSeriesExpandable("delta coefficient has a pole at 0")
        coeffs.append(field.coerce(b.num[0] * field.inv(b.den[0])))
    return Poly(field, coeffs[::-1])


def _infinity_tag_oracle(L):
    Ld = _to_d_oracle(L)
    degree_ok = all(
        a.is_zero() or a.num.degree() <= a.den.degree() - i
        for i, a in enumerate(Ld.monic_tail(), start=1)
    )
    if not any(a.has_pole_at_zero() for a in _infinity_transform_oracle(Ld).monic_tail()):
        return "nonsingular"
    return "regular" if degree_ok else "irregular"


def _random_operator(rng, field):
    """Order 1-3 in either basis; some coefficients zero, rational, or with a pole at 0."""
    def poly(max_degree):
        return Poly(field, [field.coerce(rng.randint(-5, 5)) for _ in range(rng.randint(1, max_degree + 1))])

    while True:
        coeffs = []
        for k in range(rng.randint(2, 4)):
            num = poly(3) if k == 0 or rng.random() < 0.75 else Poly.zero(field)
            den = poly(2) if rng.random() < 0.4 else Poly.one(field)
            if rng.random() < 0.3:
                den = den.shift(rng.randint(1, 2))
            coeffs.append(RatFun(num, den if den else Poly.one(field)))
        if coeffs[0]:
            return DiffOp(field, rng.choice(("d", "delta")), coeffs)


def test_conversions_match_ratfun_oracle():
    rng = random.Random(12)
    fields = (QQ, GF(2), GF(5), GF(101))
    ops = list(OPS.values()) + [_random_operator(rng, fields[i % 4]) for i in range(160)]
    seen = set()
    for L in ops:
        assert to_d(L) == _to_d_oracle(L), L
        assert to_delta(L) == _to_delta_oracle(L), L
        assert infinity_transform(L) == _infinity_transform_oracle(L), L
        try:
            expected = _indicial_oracle(L)
        except NotSeriesExpandable:
            with pytest.raises(NotSeriesExpandable):
                indicial_at_zero(L)
            seen.add("pole at 0")
        else:
            assert indicial_at_zero(L) == expected, L
        assert singularities(L).infinity == _infinity_tag_oracle(L), L
        seen |= {L.order, L.basis, L.field, singularities(L).infinity}
        seen |= {"zero" for c in L.coeffs if not c} | {"rational" for c in L.coeffs if not c.is_polynomial()}
    assert seen >= {1, 2, 3, "d", "delta", *fields, "pole at 0", "zero", "rational",
                    "nonsingular", "regular", "irregular"}


# -- reduction mod p --------------------------------------------------------------------


def test_reduce_2f1_mod_3():
    Lp = reduce_op_mod_p(L_2F1, 3)
    F3 = GF(3)
    # 16 = 1 and 4 = 1 mod 3: z(1-z) d^2 + (1-z) d + 1
    expected = diffop_from_polys(F3, "d", [[1], [1, -16], [0, 1, -16]])
    assert Lp.basis == "d" and Lp.order == 2
    assert [c for c in Lp.coeffs] == [c for c in expected.coeffs]


def test_reduce_structural_image():
    Lp = reduce_op_mod_p(L_APERY, 7)
    assert Lp.order == 3
    assert Lp.field == GF(7)


def test_reduce_bad_prime_on_denominator():
    L = diffop_from_polys(QQ, "d", [[Fraction(1, 3)], [1]])
    with pytest.raises(BadPrime):
        reduce_op_mod_p(L, 3)
    # fine at other primes
    assert reduce_op_mod_p(L, 5).order == 1


def test_reduce_bad_prime_on_killed_leading():
    # 3 z d/dz + 1: clearing leaves leading content 3
    L = diffop_from_polys(QQ, "d", [[1], [0, 3]])
    with pytest.raises(BadPrime):
        reduce_op_mod_p(L, 3)


def test_reduction_and_json_match_the_fraction_division_route():
    def primitive(polys):
        """Integer coefficients by the former route: each one divided by the Fraction content."""
        c = content(polys)
        return [[int(v / c) for v in P.coeffs] for P in polys]

    def rational():
        return Poly(QQ, [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))])

    rng, seen = random.Random(35), set()
    ops = [e.operator for e in CAT.values() if e.operator is not None]
    ops += [hypergeometric_fr_operator(r) for r in (2, 3, 4)]
    while len(ops) < 80:
        coeffs = [RatFun(rational(), rational() or Poly.one(QQ)) for _ in range(rng.randint(2, 4))]
        if coeffs[0]:
            ops.append(DiffOp(QQ, rng.choice(("d", "delta")), coeffs))
    for L in ops:
        data = diffop_to_json(L)
        assert [[c["num"], c["den"]] for c in data["coeffs"]] == [primitive([c.num, c.den]) for c in L.coeffs[::-1]]
        for p in (2, 3, 5, 7, 101):
            nums = [Poly(GF(p), cs) for cs in primitive(L.nums)]
            if not nums[0] or primitive([L.den])[0][-1] % p == 0:
                with pytest.raises(BadPrime):
                    reduce_op_mod_p(L, p)
                seen.add("bad")
            else:
                assert reduce_op_mod_p(L, p).nums == tuple(nums), (L, p)
                seen.add("good")
    assert seen == {"bad", "good"}


# -- p-curvature ---------------------------------------------------------------------


def test_p_curvature_trivial():
    F5 = GF(5)
    L = diffop_from_polys(F5, "d", [[], [1]])  # d/dz
    (_, B), nil = p_curvature(L)
    assert nil and B[0][0].is_zero()


def test_p_curvature_2f1_mod_3_nilpotent():
    _, nil = p_curvature(reduce_op_mod_p(L_2F1, 3))
    assert nil


def test_p_curvature_exponential_not_nilpotent():
    # d/dz - c for c in F_p^*: A_p = c^p = c != 0; no algebraic solutions
    F5 = GF(5)
    for c in range(1, 5):
        L = diffop_from_polys(F5, "d", [[-c], [1]])
        (den, B), nil = p_curvature(L)
        assert not nil
        assert RatFun(B[0][0], den) == RatFun.constant(F5, pow(c, 5, 5))


def test_p_curvature_euler_operator_is_nilpotent():
    # delta - c with c in F_p has the rational solution z^c, so the
    # d/dz-companion iteration yields the falling factorial c(c-1)...(c-p+1)
    # = c^p - c = 0: nilpotent for every integer exponent
    F5 = GF(5)
    for c in range(5):
        L = diffop_from_polys(F5, "delta", [[-c], [1]])
        _, nil = p_curvature(L)
        assert nil


def test_p_curvature_nilpotent_on_catalog_good_primes():
    for name in ("g1", "g2", "g3", "f2", "f3", "apery"):
        L = CAT[name].operator
        for p in good_primes(L, 13):
            _, nil = p_curvature(reduce_op_mod_p(L, p))
            assert nil, (name, p)


def _monic_companion(L):
    """Companion matrix of the monic normalization, built from monic_tail()."""
    n, tail = L.order, L.monic_tail()
    zero, one = RatFun.zero(L.field), RatFun.one(L.field)
    rows = [[one if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
    return rows + [[-tail[n - 1 - j] for j in range(n)]]


def _derivative(a):
    """d/dz of a RatFun by the quotient rule, reduced by a gcd."""
    n, d = a.num, a.den
    return RatFun(n.derivative() * d - n * d.derivative(), d * d)


def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mat_mul(A, B):
    return [[reduce(add, map(mul, row, col)) for col in zip(*B)] for row in A]


def _p_curvature_oracle(Lp):
    """The RatFun iteration A <- A' + A*A_1, each entry reduced by a gcd."""
    A1 = _monic_companion(to_d(Lp))
    A = A1
    for _ in range(Lp.field.p - 1):
        A = _mat_add([[_derivative(a) for a in row] for row in A], _mat_mul(A, A1))
    return A


def _p_curvature_matrix_oracle(Lp):
    """((D^p, B_p), B_p^n == 0) by the whole-matrix iteration B_(k+1) = D*B_k' - k*D'*B_k + B_k*B_1."""
    D, B1 = companion(to_d(Lp))
    dD, B = D.derivative(), B1
    for k in range(1, Lp.field.p):
        kdD = dD.scale(k)
        B = _mat_add([[D * b.derivative() - kdD * b for b in row] for row in B], _mat_mul(B, B1))
    power = B
    for _ in range(len(B) - 1):
        power = _mat_mul(power, B)
    return (D**Lp.field.p, B), all(entry.is_zero() for row in power for entry in row)


def _random_delta_operator(rng, p):
    """Order 1-8 over F_p in the delta basis, coefficients of degree 2-4.

    Half are fully random.  The other half are g(z)*(P(delta) - z^m*Q(delta))
    with P and Q split over F_p, of hypergeometric shape, whose p-curvature
    came out nilpotent in every case drawn.
    """
    F, n = GF(p), rng.randint(1, 8)
    if rng.random() < 0.5:
        d = rng.randint(2, 4)
        coeffs = [[rng.randrange(p) for _ in range(d + 1)] for _ in range(n)]
        return diffop_from_polys(F, "delta", coeffs + [[rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]])
    P, Q = Poly.one(F), Poly.one(F)
    for _ in range(n):
        P, Q = P * Poly(F, [rng.randrange(p), 1]), Q * Poly(F, [rng.randrange(p), 1])
    g = Poly(F, [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [1])
    zm = Poly.one(F).shift(rng.randint(1, 2))
    return diffop_from_polys(F, "delta", [(g * (Poly.constant(F, P[k]) - zm.scale(Q[k]))).coeffs for k in range(n + 1)])


OPS = {name: CAT[name].operator for name in ("g1", "g2", "g3", "f2", "f3", "apery")}
OPS.update({f"fr{r}": hypergeometric_fr_operator(r) for r in (2, 3, 4)})


@pytest.mark.parametrize("name", OPS)
def test_p_curvature_matches_ratfun_oracle(name):
    L = OPS[name]
    for p in good_primes(L, 13):
        Lp = reduce_op_mod_p(L, p)
        (den, B), nil = p_curvature(Lp)
        assert nil, (name, p)
        assert [[RatFun(b, den) for b in row] for row in B] == _p_curvature_oracle(Lp), (name, p)


@pytest.mark.parametrize("name", OPS)
def test_p_curvature_matches_matrix_oracle(name):
    L = OPS[name]
    primes = [p for p in good_primes(L, 37) if p <= 13 or p >= 29]
    assert {29, 31, 37} & set(primes)
    for p in primes:
        Lp = reduce_op_mod_p(L, p)
        assert p_curvature(Lp) == _p_curvature_matrix_oracle(Lp), (name, p)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_p_curvature_matches_matrix_oracle_on_random_delta_operators(p):
    rng, seen = random.Random(p), set()
    for _ in range(12):
        Lp = _random_delta_operator(rng, p)
        got = p_curvature(Lp)
        assert got == _p_curvature_matrix_oracle(Lp), str(Lp)
        seen.add(got[1])
    assert seen == {True, False}


@pytest.mark.parametrize("basis", ["d", "delta"])
@pytest.mark.parametrize("name", OPS)
def test_companion_is_monic_companion(name, basis):
    L = to_d(OPS[name]) if basis == "d" else to_delta(OPS[name])
    den, M = companion(L)
    assert [[RatFun(m, den) for m in row] for row in M] == _monic_companion(L)


@pytest.mark.parametrize("name", ["g3", "apery"])
def test_p_curvature_nilpotent_at_101(name):
    _, nil = p_curvature(reduce_op_mod_p(CAT[name].operator, 101))
    assert nil


# -- good primes ------------------------------------------------------------------------


def test_good_primes_2f1():
    assert good_primes(L_2F1, 20) == [3, 5, 7, 11, 13, 17, 19]


def test_good_primes_apery_excludes_2_and_3():
    # disc(z^2 - 34 z + 1) = 1152 = 2^7 * 3^2
    assert good_primes(L_APERY, 20) == [5, 7, 11, 13, 17, 19]


def test_good_primes_zero_only_singularity():
    # delta - 5 in d-basis: z d/dz - 5, only singular point is 0
    L = diffop_from_polys(QQ, "d", [[-5], [0, 1]])
    assert good_primes(L, 20) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_good_primes_huge_singular_point():
    # (1 - N z) d - 2 with N = 998244353 * 1000000007: the singular point 1/N
    # makes N a bad integer, which must not be factored
    N = 998244359987710471
    start = time.perf_counter()
    L = diffop_from_polys(QQ, "d", [[-2], [1, -N]])
    assert good_primes(L, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert time.perf_counter() - start < 1
    L13 = diffop_from_polys(QQ, "d", [[-2], [1, -13 * N]])
    assert good_primes(L13, 20) == [2, 3, 5, 7, 11, 17, 19]


def test_good_primes_subset_of_reducible():
    for name in ("g1", "g2", "g3", "f2", "f3", "apery"):
        L = CAT[name].operator
        r = singularities(L).count_r
        for p in good_primes(L, 13):
            Lp = reduce_op_mod_p(L, p)  # must not raise
            assert Lp.order == L.order
            assert singularities(Lp).count_r <= r


def _bad_integers_oracle(L):
    """The bad integers as first written: a discriminant per factor, a resultant per pair."""
    bad = []
    for a in to_d(L).monic_tail():
        if not a.is_zero():
            _, den_prim = a.den.content_primitive()
            lam = den_prim.leading() / a.den.leading()
            bad += [c.denominator for c in a.num.scale(lam).coeffs]
    prim_factors = []
    for fac, _ in singularities(L).finite_points:
        _, prim = fac.content_primitive()
        prim_factors.append(prim)
        if prim[0]:
            bad += [int(prim[0]), int(prim.leading())]
    pairwise = Fraction(1)
    for i, F in enumerate(prim_factors):
        dF = F.degree()
        if dF >= 2:
            pairwise *= F.discriminant() / F.leading() ** (2 * dF - 2)
        for G in prim_factors[i + 1 :]:
            lcs = F.leading() ** (2 * G.degree()) * G.leading() ** (2 * dF)
            pairwise *= Fraction(F.resultant(G)) ** 2 / lcs
    bad += [pairwise.numerator, pairwise.denominator]
    return tuple(v for v in bad if v)


def test_bad_integers_single_discriminant_matches_pairwise_oracle():
    # leading coefficient: a product of 1-4 random primitive factors of degree 1-3
    rng = random.Random(11)
    sizes = set()
    for _ in range(40):
        lead = Poly.one(QQ)
        for _ in range(rng.randint(1, 4)):
            cs = [rng.randint(-12, 12) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 12)]
            lead = lead * Poly(QQ, [Fraction(c) for c in cs]).content_primitive()[1]
        tail = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2)] for _ in range(2)]
        L = diffop_from_polys(QQ, "d", tail + [lead.coeffs])
        report = singularities(L)
        assert report.bad_integers == _bad_integers_oracle(L), L
        sizes.add(len(report.finite_points))
    assert sizes >= {1, 2, 3, 4}


def test_bad_integers_only_over_q():
    assert singularities(reduce_op_mod_p(L_APERY, 5)).bad_integers is None
    with pytest.raises(TypeError):
        good_primes(reduce_op_mod_p(L_APERY, 5), 20)


def _count_factor_calls(monkeypatch):
    calls = []
    factor = Poly.factor

    def counting(self):
        calls.append(self)
        return factor(self)

    monkeypatch.setattr(Poly, "factor", counting)
    return calls


def test_opinfo_factors_the_singular_locus_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "apery.json"
    path.write_text(json.dumps(diffop_to_json(L_APERY)))
    calls = _count_factor_calls(monkeypatch)
    assert cli_main(["opinfo", str(path), "--format", "json"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["good_primes"] == [5, 7, 11, 13, 17, 19]


def test_certificate_factors_the_singular_locus_once(monkeypatch):
    # a fresh operator, so no report is kept on it yet
    entry = CAT["apery"]._replace(operator=diffop_from_json(diffop_to_json(L_APERY)))
    calls = _count_factor_calls(monkeypatch)
    assemble_certificate(entry, 37)
    assert len(calls) == 1


# -- cleared form ----------------------------------------------------------------------


def test_cleared_is_monic_common_denominator():
    for entry in CAT.values():
        if entry.operator is None:
            continue
        for L in (to_d(entry.operator), to_delta(entry.operator)):
            # the monic normalization has proper denominators to clear
            lead_inv = RatFun(Poly.one(QQ), L.coeffs[0].num)
            monic = DiffOp(QQ, L.basis, [c * lead_inv for c in L.coeffs])
            for M, degree in ((L, 0), (monic, L.coeffs[0].num.degree())):
                D, polys = M.den, M.nums
                assert D.leading() == 1 and D.degree() == degree
                assert len(polys) == len(M.coeffs)
                for N, c in zip(polys, M.coeffs):
                    assert RatFun.from_poly(N) == c * RatFun.from_poly(D)


# -- recurrences -------------------------------------------------------------------------


def test_recurrence_2f1():
    rec = recurrence_from(L_2F1)
    assert rec.span == 1
    assert rec.polys[0] == qpoly([0, 0, 1])  # m^2
    # m^2 a_m = (16(m-1)^2 - 4) a_{m-1}: Q_1(x) = -(16 x^2 - 4)
    assert rec.polys[1] == qpoly([4, 0, -16])
    s = expand(rec, [Fraction(1)], 4)
    assert list(s.coeffs) == [1, -4, -12, -80]
    # closed form oracle: -C(2n,n)^2/(2n-1)
    assert list(s.coeffs) == [Fraction(-(comb(2 * n, n) ** 2), 2 * n - 1) for n in range(4)]


def test_recurrence_delta_power_constants_only():
    L = diffop_from_polys(QQ, "delta", [[], [], [1]])  # delta^2
    rec = recurrence_from(L)
    assert rec.span == 0
    s = expand(rec, [Fraction(1)], 6)
    assert list(s.coeffs) == [1, 0, 0, 0, 0, 0]


def test_recurrence_apery():
    rec = recurrence_from(L_APERY)
    assert rec.span == 2
    assert rec.polys[0] == qpoly([0, 0, 0, 1])
    s = expand(rec, [Fraction(1)], 4)
    # oracle: double binomial sum
    oracle = [
        sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1)) for n in range(4)
    ]
    assert list(s.coeffs) == oracle == [1, 5, 73, 1445]


def test_recurrence_not_mom():
    L = diffop_from_polys(QQ, "delta", [[-1], [1]])  # delta - 1
    with pytest.raises(NotMomAtZero):
        recurrence_from(L)
    # the message names Q_0 in the recurrence variable x, not the series variable z
    with pytest.raises(NotMomAtZero, match=re.escape("Q_0 = 1 + x is not proportional to x^1")):
        recurrence_from(diffop_from_polys(QQ, "delta", [[1], [1]]))  # delta + 1


def times_z(L, k):
    """z^k L, as the delta form of L with every numerator times z^k."""
    Ld = to_delta(L)
    return DiffOp._from_cleared(Ld.field, "delta", Ld.den, [N.shift(k) for N in Ld.nums])


def _indicial_by_numerators(L):
    """The indicial polynomial read off the delta numerators: the pole test, then Q at N_0's valuation."""
    Ld = to_delta(L)
    v = Ld.nums[0].valuation()
    if any(P and P.valuation() < v for P in Ld.nums[1:]):
        raise NotSeriesExpandable("delta coefficient has a pole at 0")
    return _index_polys(Ld)[v].monic()


def _random_local_operator(rng, field):
    """(operator, MOM-shaped?, k): order 1-3, either basis, times z^k; MOM-shaped ones have Q_0 = x^n."""
    n, k = rng.randint(1, 3), rng.choice((0, 0, 0, 1, 2, 3))

    def poly(low, degree):  # valuation at least low
        return Poly(field, [0] * low + [field.coerce(rng.randint(-4, 4)) for _ in range(degree + 1)])

    mom = rng.random() < 0.5
    if mom:  # delta form with N_0(0) != 0 = N_i(0), then a random basis and denominator
        nums = [Poly.one(field) + poly(1, 2)] + [poly(1, 2) for _ in range(n)]
    else:
        nums = [poly(rng.randint(0, 2), 2) for _ in range(n + 1)]
        nums[0] = nums[0] or Poly.one(field)
    L = DiffOp._from_cleared(field, "delta", Poly.one(field), nums)
    if rng.random() < 0.5:
        L = to_d(L)
    den = poly(rng.randint(0, 1), 1) if rng.random() < 0.3 else Poly.one(field)
    return DiffOp._from_cleared(field, L.basis, den or Poly.one(field), [N.shift(k) for N in L.nums]), mom, k


def test_one_reading_at_zero_matches_the_numerator_route():
    rng = random.Random(37)
    fields = (QQ, GF(2), GF(3), GF(5), GF(7))
    seen, moms = set(), 0
    for i in range(2000):
        field = fields[i % len(fields)]
        L, mom_shaped, k = _random_local_operator(rng, field)
        try:
            expected = _indicial_by_numerators(L)
        except NotSeriesExpandable:
            expected = None
            with pytest.raises(NotSeriesExpandable, match="^delta coefficient has a pole at 0$"):
                indicial_at_zero(L)
        else:
            assert indicial_at_zero(L) == expected, L
        collapses = expected == Poly.x(field) ** L.order
        assert is_mom(L) == (collapses and singularities(L).is_fuchsian()), L
        assert _local_polys(L)[0], L
        if collapses:  # the recurrence reads the same Q_0, whatever power of z L carries
            assert recurrence_from(L).polys[0] == Poly.x(field) ** L.order, L
        else:
            with pytest.raises(NotMomAtZero):
                recurrence_from(L)
        moms += is_mom(L)
        seen |= {field, L.basis, L.order, k > 0, mom_shaped, collapses, expected is None}
    assert seen >= {*fields, "d", "delta", 1, 2, 3, True, False}
    assert 600 < moms < 1400, moms


CATALOG_OPERATORS = ("g1", "g2", "g3", "f2", "f3", "apery")


@pytest.mark.parametrize("name", CATALOG_OPERATORS)
@pytest.mark.parametrize("k", [1, 2])
def test_a_power_of_z_leaves_the_reading_at_zero(name, k):
    L = CAT[name].operator
    zL = times_z(L, k)
    assert zL.nums[0].valuation() == k
    assert recurrence_from(zL) == recurrence_from(L)
    assert is_mom(zL) and indicial_at_zero(zL) == indicial_at_zero(L)
    if name in ("f2", "apery"):
        assert frobenius_shadow(zL, 3, 27).F == frobenius_shadow(L, 3, 27).F


def test_expand_leading_zero():
    # recurrence with Q_0 = (m - 2): vanishes at m = 2
    from lucascert import Recurrence

    rec = Recurrence((qpoly([-2, 1]), qpoly([1])), 1)
    with pytest.raises(LeadingZero) as err:
        expand(rec, [Fraction(1)], 6)
    assert err.value.index == 2


def _expand_oracle(rec, initial, T):
    """The straight Fraction loop: every term solved as -sum_j Q_j(m - j) a_(m-j) / Q_0(m)."""
    field = rec.polys[0].field
    coeffs = [field.coerce(v) for v in initial][:T]
    for m in range(len(coeffs), T):
        q0 = rec.polys[0].eval(m)
        if not q0:
            raise LeadingZero(m)
        acc = field.zero
        for j in range(1, rec.span + 1):
            if m - j < 0:
                break
            qj = rec.polys[j].eval(m - j)
            if qj:
                acc += qj * coeffs[m - j]
        coeffs.append(field.coerce(-acc * field.inv(q0)))
    return coeffs


def _outcome(terms):
    """The terms computed by the call terms(), or the index of the LeadingZero it raised."""
    try:
        return list(terms())
    except LeadingZero as exc:
        return ("LeadingZero", exc.index)


def _expand_cases():
    """(label, recurrence, initial, T): catalog operators, fr1-fr4 and hand-made recurrences."""
    from lucascert import Recurrence

    cases = [(name, recurrence_from(e.operator), [1], 150) for name, e in CAT.items() if e.operator]
    cases += [(f"fr{r}", recurrence_from(hypergeometric_fr_operator(r)), [1], 150) for r in range(1, 5)]
    x2 = qpoly([0, 0, 1])
    # Q_j with fractional coefficients, and a Q_0 that is not monic
    halves = Recurrence((x2.scale(Fraction(3, 2)), Poly(QQ, [Fraction(1, 2), Fraction(-7, 3)]),
                         Poly(QQ, [Fraction(5, 6)])), 2)
    cases.append(("fractional Q_j", halves, [1], 40))
    cases.append(("fractional seeds", recurrence_from(L_APERY), [Fraction(2, 3)], 40))
    cases.append(("two seeds", halves, [Fraction(-1, 4), 5], 40))
    # m a_m = 2 a_(m-1): 1, 2, 2, then 4/3, and never integral again
    cases.append(("integral, then not", Recurrence((qpoly([0, 1]), qpoly([-2])), 1), [1], 30))
    # (m - 3)(m - 5) a_m = ...: solved up to index 3, then LeadingZero
    cases.append(("leading zero", Recurrence((qpoly([15, -8, 1]), qpoly([1, 1])), 1), [1], 10))
    rng = random.Random(18)
    for k in range(20):
        span = rng.randint(1, 3)
        polys = [Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))])
                 for _ in range(span + 1)]
        if polys[0].is_zero():
            polys[0] = qpoly([1])
        seeds = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        cases.append((f"random {k}", Recurrence(tuple(polys), span), seeds, 25))
    return cases


@pytest.mark.parametrize("label, rec, initial, T", [pytest.param(*c, id=c[0]) for c in _expand_cases()])
def test_expand_matches_fraction_loop(label, rec, initial, T):
    got = _outcome(lambda: expand(rec, initial, T).coeffs)
    assert got == _outcome(lambda: _expand_oracle(rec, initial, T))
    if label == "integral, then not":
        assert got[:5] == [1, 2, 2, Fraction(4, 3), Fraction(2, 3)]
    if label == "leading zero":
        assert got == ("LeadingZero", 3)


def test_expand_is_over_q_only():
    from lucascert import Recurrence

    rec = Recurrence((Poly(GF(7), [0, 1]), Poly(GF(7), [3])), 1)
    with pytest.raises(TypeError, match="over Q"):
        expand(rec, [1], 5)


# -- operator JSON -------------------------------------------------------------------------


def test_json_roundtrip():
    for name in ("g1", "f2", "f3", "apery"):
        L = CAT[name].operator
        data = json.loads(json.dumps(diffop_to_json(L)))
        back = diffop_from_json(data)
        assert back.basis == L.basis
        assert equals_up_to_factor(back, L)


def _json_oracle(data, field):
    """The operator JSON through the public constructor: one RatFun per coefficient."""
    coeffs = [RatFun(Poly(field, c["num"]), Poly(field, c.get("den", [1]))) for c in data["coeffs"]]
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    return DiffOp(field, data["basis"], coeffs[::-1])


def test_json_parses_straight_into_the_stored_form(monkeypatch):
    ops = [e.operator for e in CAT.values() if e.operator is not None]
    ops += [hypergeometric_fr_operator(r) for r in (2, 3, 4)]
    catalog = [diffop_to_json(L) for L in ops]
    # rational denominators that share factors with the numerators and with each other
    rational = [
        {"basis": "d", "coeffs": [{"num": [3, 6], "den": [2, 4, 0, 2]}, {"num": [1, 0, -1], "den": [6]},
                                  {"num": [2, 2], "den": [1, 2, 1]}]},
        {"basis": "delta", "coeffs": [{"num": [0, 4], "den": [0, 2, 2]}, {"num": [7], "den": [3]},
                                      {"num": [1, 1], "den": [1, -1]}, {"num": [0], "den": [5, 1]}]},
        {"basis": "d", "coeffs": [{"num": [1, 2, 1], "den": [3, 3]}, {"num": [0, -1, 1], "den": [0, 1, 1]}]},
    ]
    for field in (QQ, GF(7), GF(101)):
        for data in catalog + rational:
            assert diffop_from_json(data, field) == _json_oracle(data, field), (field, data)
    # with every denominator a constant, parsing takes no gcd
    gcds = []
    real_gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: gcds.append(1) or real_gcd(a, b))
    for data in catalog:
        diffop_from_json(data)
    assert gcds == []


def test_json_integer_pairs_are_primitive_and_round_trip():
    rng = random.Random(17)

    def poly(field, max_degree):
        return Poly(field, [field.coerce(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 8))))
                            for _ in range(rng.randint(1, max_degree + 1))])

    seen = set()
    for field in (QQ, GF(7)):
        for _ in range(60):
            coeffs = [RatFun(poly(field, 3), poly(field, 2) or Poly.one(field)) for _ in range(rng.randint(2, 4))]
            if not coeffs[0]:
                continue
            L = DiffOp(field, rng.choice(("d", "delta")), coeffs)
            data = diffop_to_json(L)
            for c, entry in zip(reversed(L.coeffs), data["coeffs"]):
                assert all(type(v) is int for v in entry["num"] + entry["den"])
                if field == QQ:
                    assert math.gcd(*entry["num"], *entry["den"]) == 1
                    seen |= {"rational" for v in c.num.coeffs + c.den.coeffs if v.denominator > 1}
                else:  # the residues, unchanged
                    assert (entry["num"], entry["den"]) == (list(c.num.coeffs), list(c.den.coeffs))
            assert diffop_from_json(json.dumps(data), field) == L
            seen.add(field)
    assert seen == {QQ, GF(7), "rational"}


def test_json_parse_errors():
    from lucascert import ParseError

    with pytest.raises(ParseError):
        diffop_from_json("{not json")
    with pytest.raises(ParseError):
        diffop_from_json({"basis": "q", "coeffs": [{"num": [1]}]})
    with pytest.raises(ParseError):
        diffop_from_json({"basis": "d", "coeffs": [{"num": [1], "den": []}]})
