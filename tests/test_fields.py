import random
from fractions import Fraction

import pytest

from lucascert import GF, QQ, NotPLocal, is_prime, reduce_rat_mod_p
from lucascert.fields import primes_upto


def brute_force_inverse_solve(num, den, p):
    """Oracle: the residue x with den*x = num mod p, found by search."""
    for x in range(p):
        if den * x % p == num % p:
            return x
    raise AssertionError("no solution")


def test_reduce_zero():
    assert reduce_rat_mod_p(Fraction(0), 7) == 0


def test_reduce_minus_one_third_mod_5():
    # oracle: solve 3x = -1 mod 5 over all residues
    expected = brute_force_inverse_solve(-1, 3, 5)
    assert expected == 3
    assert reduce_rat_mod_p(Fraction(-1, 3), 5) == 3


def test_reduce_not_p_local():
    with pytest.raises(NotPLocal):
        reduce_rat_mod_p(Fraction(1, 5), 5)


def test_reduce_matches_brute_force_randomized():
    rng = random.Random(20240811)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13])
        num = rng.randrange(-50, 50)
        den = rng.randrange(1, 50)
        while den % p == 0:
            den = rng.randrange(1, 50)
        q = Fraction(num, den)
        assert reduce_rat_mod_p(q, p) == brute_force_inverse_solve(
            q.numerator, q.denominator, p
        )


def test_reduce_reads_ints_and_fractions_as_they_are():
    """Ints and Fractions are reduced as given; other rationals go through Fraction."""
    for p in (2, 5, 2**61 - 1):
        for q in (0, -7, 2**70 + 3, Fraction(-7), Fraction(2**70 + 3), Fraction(-(2**70), 3)):
            r = reduce_rat_mod_p(q, p)
            assert type(r) is int and 0 <= r < p and (r * q.denominator - q.numerator) % p == 0
    assert reduce_rat_mod_p("-1/3", 5) == reduce_rat_mod_p(0.5, 5) == 3
    with pytest.raises(NotPLocal):
        reduce_rat_mod_p("1/5", 5)


def test_reduction_is_ring_morphism():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11])
        def rand_plocal():
            den = rng.randrange(1, 40)
            while den % p == 0:
                den = rng.randrange(1, 40)
            return Fraction(rng.randrange(-40, 40), den)
        a, b = rand_plocal(), rand_plocal()
        phi = lambda x: reduce_rat_mod_p(x, p)
        assert phi(a + b) == (phi(a) + phi(b)) % p
        assert phi(a * b) == phi(a) * phi(b) % p


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.coerce(5 + 4) == 2
    assert F.inv(3) == 5
    assert F.coerce(3 * F.inv(3)) == 1
    assert F.coerce(Fraction(-1, 3)) == F.coerce(-1 * F.inv(3))
    with pytest.raises(ValueError):
        GF(6)


def test_prime_field_is_cached():
    assert GF(5) is GF(5)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert GF(5) != QQ


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_primes_upto_matches_is_prime_walk():
    walk = [p for p in range(2, 10**4 + 1) if is_prime(p)]
    assert primes_upto(10**4) == walk
    for bound in range(-1, 200):
        assert primes_upto(bound) == [p for p in walk if p <= bound], bound
