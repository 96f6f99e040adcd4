"""Derandomized property test of the coefficient arithmetic on canonical elements.

Poly, TruncSeries and kernel_basis run on Python's `+ - *`.  Poly sums,
negations, scalings and derivatives reduce once in the private `_reduced`;
the rest relies on the public constructors (and a few read-back points) to
reduce; products, slices and scatters are canonical by construction and
skip that reduction.
Each operation here is compared with plain-list reference arithmetic: an
explicit `% p` and `pow(., -1, p)` over F_p, `Fraction` arithmetic over Q.
Inputs are passed to the public constructors non-canonical (negative ints,
ints >= p, Fractions), operands are empty, of length 1, and on both sides
of the Kronecker cutoff, and every result must hold canonical coefficients
only.  Two mutants of the product path and one of the sum path show that
this oracle sees a result that skipped its reduction.
"""

import inspect
import random
from fractions import Fraction

import pytest

from lucascert import GF, QQ, Poly, PrimeField, RationalField, TruncSeries, poly, series
from lucascert.linalg import kernel_basis
from lucascert.poly import _KRONECKER_CUTOFF

# Kronecker cells hold min(len(a), len(b)) * (p - 1)^2 plus a guard bit, so
# with LENGTHS these fields reach every packing: 1-byte cells (`B`) on GF(2)
# and on GF(3) below length 40; 2-byte cells (`H`) on GF(3) at length 40 and
# GF(37) below it; 3-4-byte cells (`I`) on GF(37) at length 40; 5-8-byte
# cells (`Q`) on GF(65521) at every length; the bytes path on GF(2**31 - 1)
FIELDS = [GF(2), GF(3), GF(37), GF(65521), GF(2**31 - 1), QQ]
LENGTHS = (0, 1, 2, 3, 4, 5, 7, 12, 40)


# -- reference arithmetic: p is None over Q --------------------------------------------


def red(v, p):
    if p is None:
        return Fraction(v)
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, p) % p


def inv(v, p):
    return 1 / Fraction(v) if p is None else pow(v, -1, p)


def strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = red(out[i + j] + x * y, p)
    return out


def ref_divmod(a, b, p):
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    lb_inv = inv(b[-1], p)
    for i in range(len(a) - 1, len(b) - 2, -1):
        q = red(rem[i] * lb_inv, p)
        quot[i - len(b) + 1] = q
        for j, y in enumerate(b):
            rem[i - len(b) + 1 + j] = red(rem[i - len(b) + 1 + j] - q * y, p)
    return strip(quot), strip(rem)


def ref_det(rows, p):
    rows, det = [list(r) for r in rows], red(1, p)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return red(0, p)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = red(-det, p)
        det = red(det * rows[col][col], p)
        for r in range(col + 1, len(rows)):
            factor = red(rows[r][col] * inv(rows[col][col], p), p)
            rows[r] = [red(x - factor * y, p) for x, y in zip(rows[r], rows[col])]
    return det


def ref_resultant(a, b, p):
    """The Sylvester determinant; the constant's power when one side has degree 0."""
    if not a or not b:
        return red(0, p)
    m, n = len(a) - 1, len(b) - 1
    if m == 0 or n == 0:
        return red(a[0] ** n if m == 0 else b[0] ** m, p)
    ra, rb = a[::-1], b[::-1]
    rows = [[0] * i + ra + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + rb + [0] * (m - 1 - i) for i in range(m)]
    return ref_det(rows, p)


def ref_rank(rows, p):
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = red(rows[r][col] * inv(rows[rank][col], p), p)
                rows[r] = [red(x - factor * y, p) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- inputs --------------------------------------------------------------------------------


def raw_value(rng, p):
    """A non-canonical representative: a negative int, an int >= p or a p-local Fraction."""
    bound = 3 * (p or 50)
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 3:
        den = rng.randrange(1, 30)
        while p is not None and den % p == 0:
            den += 1
        return Fraction(rng.randrange(-bound, bound), den)
    return rng.randrange(-bound, bound)


def raw_list(rng, p, n):
    return [raw_value(rng, p) for _ in range(n)]


def canonical(field, cs):
    if isinstance(field, PrimeField):
        return all(type(c) is int and 0 <= c < field.p for c in cs)
    return all(type(c) is Fraction for c in cs)


def check_poly(P, want):
    assert canonical(P.field, P.coeffs) and (not P.coeffs or P.coeffs[-1])
    assert list(P.coeffs) == want


def check_series(S, want):
    assert canonical(S.field, S.coeffs)
    assert list(S.coeffs) == want


def p_of(field):
    return field.p if isinstance(field, PrimeField) else None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_poly_arithmetic_matches_reference(field):
    p = p_of(field)
    rng = random.Random(1000 + (p or 0) % 1000)
    sides = set()
    for la in LENGTHS:
        for lb in LENGTHS:
            a_raw, b_raw = raw_list(rng, p, la), raw_list(rng, p, lb)
            a, b = [red(v, p) for v in a_raw], [red(v, p) for v in b_raw]
            A, B = Poly(field, a_raw), Poly(field, b_raw)
            check_poly(A, strip(a))
            n = max(la, lb)
            pad = lambda cs: cs + [0] * (n - len(cs))
            check_poly(A + B, strip(red(x + y, p) for x, y in zip(pad(a), pad(b))))
            check_poly(A - B, strip(red(x - y, p) for x, y in zip(pad(a), pad(b))))
            check_poly(-A, strip(red(-x, p) for x in a))
            check_poly(A * B, strip(ref_mul(strip(a), strip(b), p)))
            if A and B:
                sides.add(len(A.coeffs) * len(B.coeffs) >= _KRONECKER_CUTOFF * (len(A.coeffs) + len(B.coeffs)))
            c = raw_value(rng, p)
            check_poly(A.scale(c), strip(red(red(c, p) * x, p) for x in a))
            check_poly(A.derivative(), strip(red(i * x, p) for i, x in enumerate(a))[1:])
            x = raw_value(rng, p)
            want = red(0, p)
            for coef in reversed(a):
                want = red(want * red(x, p) + coef, p)
            got = A.eval(x)
            assert canonical(field, [got]) and got == want
            if B:
                q, r = A.divmod(B)
                wq, wr = ref_divmod(strip(a), strip(b), p)
                check_poly(q, wq)
                check_poly(r, wr)
            if la <= 7 and lb <= 7:
                got = A.resultant(B)
                assert canonical(field, [got]) and got == ref_resultant(strip(a), strip(b), p)
    assert sides == {False, True}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_series_arithmetic_matches_reference(field):
    p = p_of(field)
    rng = random.Random(2000 + (p or 0) % 1000)
    sides = set()
    for la in LENGTHS:
        for lb in LENGTHS:
            a_raw, b_raw = raw_list(rng, p, la), raw_list(rng, p, lb)
            a, b = [red(v, p) for v in a_raw], [red(v, p) for v in b_raw]
            S, U = TruncSeries(field, a_raw), TruncSeries(field, b_raw)
            check_series(S, a)
            check_series(S + U, [red(x + y, p) for x, y in zip(a, b)])
            check_series(S - U, [red(x - y, p) for x, y in zip(a, b)])
            check_series(-S, [red(-x, p) for x in a])
            T = min(la, lb)
            check_series(S * U, (ref_mul(a, b, p) + [red(0, p)] * T)[:T])
            P = Poly(field, b_raw)
            check_series(S.mul_poly(P), (ref_mul(a, strip(b), p) + [red(0, p)] * la)[:la])
            lp = min(la, len(P.coeffs))
            if la and lp:
                sides.add(la * lp >= _KRONECKER_CUTOFF * (la + lp))
            check_series(S.delta(), [red(n * x, p) for n, x in enumerate(a)])
            # the quotient times the divisor gives the dividend back
            divisor = Poly(field, [rng.randrange(1, p or 50)] + b_raw)
            Q = S.div_poly(divisor)
            assert canonical(field, Q.coeffs) and len(Q) == la
            assert (ref_mul(list(Q.coeffs), list(divisor.coeffs), p) + [0] * la)[:la] == a
            # equal residues from different raw values; then one coefficient changed
            twin = [v + rng.randrange(-3, 4) * (p or 0) for v in a_raw]
            assert S.eq_to_order(TruncSeries(field, twin)) and S.first_difference(TruncSeries(field, twin)) is None
            if la:
                k = rng.randrange(la)
                twin[k] += 1
                other = TruncSeries(field, twin)
                assert not S.eq_to_order(other) and S.first_difference(other) == k
                assert S.eq_to_order(other, k)
    assert sides == {False, True}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_basis_matches_reference(field):
    p = p_of(field)
    rng = random.Random(3000 + (p or 0) % 1000)
    for _ in range(60):
        nrows, ncols = rng.randrange(0, 6), rng.randrange(1, 7)
        rows = [raw_list(rng, p, ncols) for _ in range(nrows)]
        if rows and rng.random() < 0.5:  # a dependent row: a multiple of another, plus p
            k, c = rng.randrange(len(rows)), rng.randrange(-5, 6)
            rows.append([c * v + (p or 0) for v in rows[k]])
        canon = [[red(v, p) for v in row] for row in rows]
        basis = kernel_basis(field, rows, ncols)
        assert len(basis) == ncols - ref_rank(canon, p)
        for vec in basis:
            assert len(vec) == ncols and canonical(field, vec)
            for row in canon:
                assert red(sum(x * y for x, y in zip(row, vec)), p) == 0
        if basis:
            assert ref_rank(basis, p) == len(basis)


def test_fields_keep_only_coerce_and_inv():
    for cls in (RationalField, PrimeField):
        for name in ("add", "sub", "mul", "neg", "div", "is_zero", "__call__"):
            assert name not in vars(cls), (cls, name)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("q", (2, 3, 5))
def test_reshapes_match_list_reference(field, q):
    """truncate, cartier and compose_power against slices and scatters of plain lists."""
    p = p_of(field)
    rng = random.Random(5000 + q + (p or 0) % 1000)
    zero = red(0, p)
    for T in LENGTHS:
        a_raw = raw_list(rng, p, T)
        a = [red(v, p) for v in a_raw]
        S = TruncSeries(field, a_raw)
        for n in range(T + 1):
            check_series(S.truncate(n), a[:n])
        for r in range(q):
            check_series(S.cartier(q, r), a[r::q])
        for k in (0, 1, 2):
            step = q**k
            for out_len in {max(T - 1, 0), T, T * step}:
                want = [zero] * out_len
                for i, c in enumerate(a):
                    if i * step < out_len:
                        want[i * step] = c
                check_series(S.compose_power(q, k, out_len=out_len), want)


def test_negative_lengths_are_refused():
    S = TruncSeries(GF(5), [1, 2, 3, 4])
    with pytest.raises(ValueError):
        S.truncate(-1)
    with pytest.raises(ValueError):
        S.compose_power(5, 1, out_len=-3)


def product_checks(shapes, p=37):
    """Oracle checks of Poly and TruncSeries products whose operands are all p - 1.

    Every product cell is then at least p before its reduction, so a cell
    that skipped it shows.
    """
    field, checks = GF(p), []
    for la, lb in shapes:
        a, b = [p - 1] * la, [p - 1] * lb
        A, B = Poly(field, a), Poly(field, b)
        S, U = TruncSeries(field, a), TruncSeries(field, b)
        want = ref_mul(a, b, p)
        checks += [
            lambda A=A, B=B, want=want: check_poly(A * B, want),
            lambda S=S, U=U, want=want, n=min(la, lb): check_series(S * U, want[:n]),
            lambda S=S, B=B, want=want, n=la: check_series(S.mul_poly(B), want[:n]),
        ]
    return checks


# shapes on each side of the Kronecker cutoff, for Poly, series and mul_poly
# products alike (a series product truncates both operands to the shorter)
KRONECKER_SHAPES = [(12, 12)]
SCHOOLBOOK_SHAPES = [(12, 2), (3, 3)]


def test_oracle_catches_a_kronecker_cell_left_at_c_plus_p(monkeypatch):
    packed = poly._packed_sum

    def one_cell_plus_p(pairs, p, n=None):
        out = packed(pairs, p, n)
        out[len(out) // 2] += p
        return out

    checks = product_checks(KRONECKER_SHAPES)
    for check in checks:
        check()
    monkeypatch.setattr(poly, "_packed_sum", one_cell_plus_p)
    for check in checks:
        with pytest.raises(AssertionError):
            check()


def test_oracle_catches_a_schoolbook_product_left_unreduced(monkeypatch):
    source = inspect.getsource(poly.convolve)
    final = "return [c % p for c in out] if p"
    assert source.count(final) == 1
    namespace = dict(vars(poly))
    exec(source.replace(final, "return out if p"), namespace)
    checks = product_checks(SCHOOLBOOK_SHAPES)
    for check in checks:
        check()
    for module in (poly, series):
        monkeypatch.setattr(module, "convolve", namespace["convolve"])
    for check in checks:
        with pytest.raises(AssertionError):
            check()


# -- sums, negations, scalings and derivatives ------------------------------------------

SUM_FIELDS = [GF(2), GF(5), GF(2**61 - 1), QQ]


def sum_checks(field, rng):
    """(operation, reference coefficients) pairs for +, -, unary -, scale and derivative.

    Operands are canonical: random, all p - 1 (so a sum cell reaches p or
    more before its reduction), or built to cancel.  A - A and A + (-A) are
    zero; B agrees with -A on A's top two coefficients, so A + B drops in
    degree; over GF(2) and GF(5) a z^p term drops out of the derivative.
    """
    p = p_of(field)
    top = red(-1, p)  # p - 1 over F_p
    checks = []
    for n in (1, 2, 3, 6, 9) + ((p + 1,) if p and p < 10 else ()):
        a = [red(v, p) for v in raw_list(rng, p, n - 1)] + [top]
        b = [red(v, p) for v in raw_list(rng, p, n)]
        cancel = b[: n - 2] + [red(-v, p) for v in a[-2:]]
        for x, y in [(a, b), (a, [top] * n), ([top] * n, [top] * (n + 1)), (a, cancel)]:
            X, Y = Poly(field, x), Poly(field, y)
            m = max(len(x), len(y))
            xs, ys = x + [0] * (m - len(x)), y + [0] * (m - len(y))
            checks += [
                (lambda X=X, Y=Y: X + Y, strip(red(u + v, p) for u, v in zip(xs, ys))),
                (lambda X=X, Y=Y: X - Y, strip(red(u - v, p) for u, v in zip(xs, ys))),
                (X.__neg__, strip(red(-u, p) for u in x)),
                (X.derivative, strip(red(i * u, p) for i, u in enumerate(x))[1:]),
            ]
            checks += [(lambda X=X, c=c: X.scale(c), strip(red(red(c, p) * u, p) for u in x))
                       for c in (top, raw_value(rng, p), 0)]
        A = Poly(field, a)
        checks += [(lambda A=A: A - A, []), (lambda A=A: A + (-A), [])]
    return checks


@pytest.mark.parametrize("field", SUM_FIELDS, ids=repr)
def test_sums_are_canonical(field):
    for op, want in sum_checks(field, random.Random(4000 + (p_of(field) or 0) % 1000)):
        check_poly(op(), want)


def test_oracle_catches_an_fp_sum_left_at_c_plus_p(monkeypatch):
    canonical_poly = Poly._canonical

    def sums_left_below_2p(cls, field, coeffs):
        """Reduces only what lies outside [0, 2p): a sum of two residues keeps its c >= p."""
        p = field.char
        return canonical_poly(field, [c if 0 <= c < 2 * p else c % p for c in coeffs] if p else coeffs)

    def failures(field):
        failed = 0
        for op, want in sum_checks(field, random.Random(4000)):
            try:
                check_poly(op(), want)
            except AssertionError:
                failed += 1
        return failed

    fp_fields = [f for f in SUM_FIELDS if f != QQ]
    assert [failures(f) for f in fp_fields] == [0] * len(fp_fields)
    monkeypatch.setattr(Poly, "_reduced", classmethod(sums_left_below_2p))
    assert all(failures(f) for f in fp_fields)
