"""Property test: Poly.factor agrees with sympy's factor_list on random products."""

from fractions import Fraction

import pytest

from lucascert import GF, QQ, Poly
from test_poly import check_factor

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def factorable_polys(draw):
    """Products of up to three random parts, each raised to a power <= 3, of degree <= 10.

    GF(2^31 - 1) runs Cantor-Zassenhaus with exponents (p^d - 1)/2 of 31 d bits.
    """
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(101), GF(2**31 - 1)]))
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    else:
        coeff = st.integers(0, field.p - 1)
    P = Poly.one(field)
    for _ in range(draw(st.integers(1, 3))):
        part = Poly(field, draw(st.lists(coeff, min_size=1, max_size=5)))
        P = P * part ** draw(st.integers(1, 3))
    hypothesis.assume(not P.is_zero() and P.degree() <= 10)
    return P


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(P=factorable_polys())
def test_factor_matches_sympy(P):
    check_factor(P)
