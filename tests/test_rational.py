"""Factorization, valuations, absolute values and modular square roots."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import factorization_value, is_prime_trial, primes_below, sqrt_mod_by_search
from qrlab.rational import (
    INFINITY,
    Factorization,
    INF_PLACE,
    Place,
    _squarefree_core,
    abs_place,
    factorize,
    is_probable_prime,
    is_rational_square,
    norm_product_check,
    rational_factor_exponents,
    sqrt_mod_prime,
    sqrt_mod_squarefree,
    vp,
    vp_split,
)


# ---------------------------------------------------------------------------
# primality

def test_probable_prime_matches_trial_division():
    for n in range(-2, 2000):
        assert is_probable_prime(n) == is_prime_trial(n), n


def test_probable_prime_large():
    assert is_probable_prime(2 ** 61 - 1)
    assert not is_probable_prime(2 ** 67 - 1)  # Mersenne's false claim


PSI_12 = 318665857834031151167461  # least strong pseudoprime to the bases 2..37


def test_probable_prime_psi_12_is_composite():
    # the twelve bases 2..37 all pass psi_12; base 41 exposes it
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_probable_prime(PSI_12)


def test_factorize_psi_12():
    assert factorize(PSI_12).factors == ((399165290221, 1), (798330580441, 1))


# ---------------------------------------------------------------------------
# factorize

def test_factorize_2012():
    f = factorize(2012)
    assert f.sign == 1
    assert f.factors == ((2, 2), (503, 1))
    assert factorization_value(f) == 2012


def test_factorize_negative():
    f = factorize(-91)
    assert f.sign == -1
    assert f.factors == ((7, 1), (13, 1))
    assert factorization_value(f) == -91


def test_factorize_units():
    assert factorize(1) == Factorization(1, ())
    assert factorize(-1) == Factorization(-1, ())


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_semiprime_beyond_trial_range():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorization_accessors():
    f = factorize(-360)  # -2^3 3^2 5
    assert f.vp(2) == 3 and f.vp(3) == 2 and f.vp(7) == 0
    assert not f.is_squarefree()
    assert factorize(-30).is_squarefree()


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=10 ** 12))
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert factorization_value(f) == n
    assert all(is_probable_prime(p) for p, _ in f.factors)
    assert all(e >= 1 for _, e in f.factors)
    primes = [p for p, _ in f.factors]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)


# ---------------------------------------------------------------------------
# vp_split / vp

def test_vp_split_examples():
    assert vp_split(12, 2) == (2, 3)
    assert vp_split(Fraction(5, 8), 2) == (-3, 5)
    assert vp_split(0, 2) is INFINITY


def test_vp_of_zero_dominates():
    assert vp(0, 5) is INFINITY
    assert vp(0, 5) > 10 ** 100
    assert min(vp(0, 5), 3) == 3


@settings(max_examples=200)
@given(
    st.fractions(min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6)),
    st.fractions(min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6)),
    st.sampled_from([2, 3, 5, 7, 13]),
)
def test_vp_is_a_valuation(x, y, p):
    if x != 0 and y != 0:
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
        r, u = vp_split(x, p)
        assert x == Fraction(p) ** r * u
        assert u.numerator % p != 0 and u.denominator % p != 0
    if x + y != 0:
        assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


# ---------------------------------------------------------------------------
# places and absolute values

def test_place_parse_and_order():
    assert Place.parse("inf") == INF_PLACE
    assert Place.parse("7") == Place.finite(7)
    assert INF_PLACE.is_infinite
    assert sorted([Place.finite(5), INF_PLACE, Place.finite(2)]) == [
        INF_PLACE,
        Place.finite(2),
        Place.finite(5),
    ]
    with pytest.raises(ValueError):
        Place.finite(6)


def test_abs_place_examples():
    assert abs_place(8, Place.finite(2)) == Fraction(1, 8)
    assert abs_place(-3, INF_PLACE) == 3
    assert abs_place(Fraction(5, 8), Place.finite(2)) == 8
    assert abs_place(0, Place.finite(7)) == 0


def test_norm_product_examples():
    assert norm_product_check(Fraction(2012, 91))
    assert norm_product_check(-1)


@settings(max_examples=300)
@given(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=10 ** 6),
)
def test_norm_product_always_one(num, den):
    assert norm_product_check(Fraction(num, den))


@settings(max_examples=150)
@given(
    st.fractions(min_value=Fraction(-10 ** 4), max_value=Fraction(10 ** 4)),
    st.fractions(min_value=Fraction(-10 ** 4), max_value=Fraction(10 ** 4)),
    st.sampled_from([2, 3, 5]),
)
def test_abs_place_ultrametric(x, y, p):
    v = Place.finite(p)
    assert abs_place(x + y, v) <= max(abs_place(x, v), abs_place(y, v))
    assert abs_place(x * y, v) == abs_place(x, v) * abs_place(y, v)


# ---------------------------------------------------------------------------
# modular square roots

def test_sqrt_mod_prime_examples():
    assert sqrt_mod_prime(4, 11) == 2
    assert sqrt_mod_prime(2, 7) == 3
    assert sqrt_mod_prime(5, 7) is None


def test_sqrt_mod_prime_domain():
    with pytest.raises(ValueError):
        sqrt_mod_prime(3, 2)
    with pytest.raises(ValueError):
        sqrt_mod_prime(14, 7)
    with pytest.raises(ValueError):
        sqrt_mod_prime(3, 15)


def test_sqrt_mod_prime_against_search():
    for p in primes_below(200):
        if p == 2:
            continue
        for a in range(1, p):
            want = sqrt_mod_by_search(a, p)
            assert sqrt_mod_prime(a, p) == want, (a, p)


def test_sqrt_mod_squarefree_examples():
    assert sqrt_mod_squarefree(2, 7) == 3
    assert sqrt_mod_squarefree(1, 15) == 1
    assert sqrt_mod_squarefree(2, 15) is None


def test_sqrt_mod_squarefree_domain():
    with pytest.raises(ValueError):
        sqrt_mod_squarefree(1, 12)  # 12 not squarefree
    with pytest.raises(ValueError):
        sqrt_mod_squarefree(3, 15)  # gcd(3, 15) != 1


def test_sqrt_mod_squarefree_against_search():
    for b in range(2, 70):
        fb = factorize(b)
        if not fb.is_squarefree():
            continue
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            assert sqrt_mod_squarefree(a, b) == sqrt_mod_by_search(a, b), (a, b)


def test_sqrt_mod_squarefree_negative_modulus():
    assert sqrt_mod_squarefree(2, -7) == 3


# ---------------------------------------------------------------------------
# square detection

def test_is_rational_square():
    assert is_rational_square(Fraction(9, 4)) == Fraction(3, 2)
    assert is_rational_square(16) == 4
    assert is_rational_square(Fraction(8)) is None
    assert is_rational_square(-4) is None
    assert is_rational_square(0) == 0


def squarefree_split(x):
    """(n, s) with x = n s^2 by the one squarefree split; its primes are
    checked to be those of n."""
    n, num, den, primes = _squarefree_core(*rational_factor_exponents(x))
    assert primes == [p for p, _ in factorize(n)]
    return n, Fraction(num, den)


def test_squarefree_split():
    assert squarefree_split(Fraction(12, 25)) == (3, Fraction(2, 5))
    assert squarefree_split(-18) == (-2, 3)
    n, s = squarefree_split(Fraction(-7, 2))
    assert n == -14 and Fraction(n) * s * s == Fraction(-7, 2)


@settings(max_examples=200)
@given(
    st.integers(min_value=-10 ** 4, max_value=10 ** 4).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=10 ** 3),
)
def test_squarefree_split_roundtrip(num, den):
    x = Fraction(num, den)
    n, s = squarefree_split(x)
    assert factorize(n).is_squarefree()
    assert s > 0
    assert Fraction(n) * s * s == x
