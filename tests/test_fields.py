import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradix.errors import FormatError
from gradix.fields import MAX_PRIME, PrimeField, Rationals, is_prime
from gradix.specfiles import load_field

Q = Rationals()
F5 = PrimeField(5)


def kernel_sum(field, *values):
    """The field sum as the integer kernel forms it: numerators over one
    denominator, added as integers, reduced once."""
    nums, d = field.integers(list(values))
    return field.quotient(sum(nums), d)


def test_rationals_basic():
    assert kernel_sum(Q, Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert Q.coerce("7/3") == Fraction(7, 3)
    assert Q.coerce(4) == 4
    assert Q.to_json(Fraction(3, 1)) == 3
    assert Q.to_json(Fraction(-1, 2)) == "-1/2"


def test_rationals_rejects_junk():
    with pytest.raises(FormatError):
        Q.coerce("nope")
    with pytest.raises(FormatError):
        Q.coerce(1.5)
    with pytest.raises(ZeroDivisionError):
        Q.inv(Fraction(0))


def test_prime_field_basic():
    assert kernel_sum(F5, 3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.coerce(-1) == 4
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_prime_field_rejects_composite():
    with pytest.raises(FormatError):
        PrimeField(6)
    with pytest.raises(FormatError):
        PrimeField(1)


def test_large_prime_field_is_quick():
    start = time.perf_counter()
    assert PrimeField(10**18 + 3).p == 10**18 + 3
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [561, 3215031751])
def test_pseudoprimes_are_composite(n):
    # 561 is a Carmichael number; 3215031751 = 151 * 751 * 28351 is a
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(n)
    with pytest.raises(FormatError):
        PrimeField(n)


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    rng = random.Random(29)
    for n in [rng.randrange(10**6, 10**7) for _ in range(200)] + [2**31 - 1, 2**31 + 1]:
        assert is_prime(n) == trial(n)


def test_modulus_above_the_ceiling_is_refused():
    # the least composite that passes all thirteen bases sits just above
    # the ceiling; the test would call it prime, so the field refuses it
    psi13 = 1287836182261 * 2575672364521
    assert psi13 == MAX_PRIME + 1 and is_prime(psi13)
    with pytest.raises(FormatError, match="MAX_PRIME"):
        PrimeField(MAX_PRIME + 1)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_rationals_field_axioms(a, b, c):
    a, b, c = Fraction(a, 7), Fraction(b, 3), Fraction(c, 2)
    assert kernel_sum(Q, a, kernel_sum(Q, b, c)) == kernel_sum(Q, kernel_sum(Q, a, b), c) == kernel_sum(Q, a, b, c)
    assert Q.mul(a, kernel_sum(Q, b, c)) == kernel_sum(Q, Q.mul(a, b), Q.mul(a, c))
    if b != 0:
        assert Q.mul(b, Q.inv(b)) == Q.one()


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_f7_field_axioms(a, b, c):
    F = PrimeField(7)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, kernel_sum(F, b, c)) == kernel_sum(F, F.mul(a, b), F.mul(a, c))
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


def test_json_round_trip():
    assert load_field({"kind": "Q"}) == Q
    assert load_field({"kind": "Fp", "p": 5}) == F5
    with pytest.raises(FormatError):
        load_field({"kind": "R"})
    with pytest.raises(FormatError):
        load_field({"kind": "Fp"})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 101, 257])
def test_prime_field_roots_agree_with_brute_force(p):
    # d runs over +-1..13, so it shares 2, 3, 4, 8 or 12 with p - 1 for
    # some of these p and is prime to p - 1 for others
    field = PrimeField(p)
    for d in [k for k in range(-13, 14) if k]:
        powers = {pow(z, d, p) for z in range(1, p)}
        for a in range(1, p):
            z = field.root(a, d)
            if a in powers:
                assert z is not None and pow(z, d, p) == a
            else:
                assert z is None


def test_rational_roots():
    big = 10**18 + 3
    assert Q.root(Fraction(big**2), 2) in (big, -big)
    assert Q.root(Fraction(big), 2) is None
    assert Q.root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert Q.root(Fraction(-8, 27), -3) == Fraction(-3, 2)
    assert Q.root(Fraction(-4), 2) is None
    assert Q.root(Fraction(4, 9), -2) ** -2 == Fraction(4, 9)
    assert Q.root(Fraction(2, 9), 2) is None
    assert Q.root(Fraction(16, 3), 4) is None
    assert Q.root(Fraction(81, 16), 4) ** 4 == Fraction(81, 16)
    assert Q.root(Fraction(-7, 5), 1) == Fraction(-7, 5)
    assert Q.root(Fraction(1), 12) ** 12 == 1
