"""Quadratic characters: Legendre/Gauss/lattice machinery, reciprocity,
psi and chi composites, unit-group structure, and the Mersenne showcase."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flips_by_hand, legendre_by_squares, primes_below, unit_group_product
from qrlab.rational import INF_PLACE, TWO_PLACE, Place, Prime
from qrlab.symbols import (
    TRIVIAL_CHARACTER,
    LocalCharacter,
    QuadraticCharacter,
    binomial_primality,
    bost_demo,
    chi_character,
    eps4,
    eps8,
    eps_inf,
    gauss_lemma_sign,
    group_product_sign,
    kronecker_chi,
    lambda4,
    lambda8,
    lattice_counts,
    legendre,
    psi,
    quadratic_char_basis,
    reciprocity_check,
    sign_inf,
    smallest_nonresidue,
)

ODD_PRIMES_100 = [p for p in primes_below(100) if p > 2]


# ---------------------------------------------------------------------------
# primitive characters

def test_legendre_examples():
    assert legendre(2, 7) == 1
    assert legendre(5, 7) == -1
    assert legendre(Fraction(1, 2), 7) == 1  # 1/2 = 4 (mod 7)


def test_legendre_domain():
    with pytest.raises(ValueError):
        legendre(14, 7)
    with pytest.raises(ValueError):
        legendre(Fraction(1, 7), 7)
    with pytest.raises(ValueError):
        legendre(3, 9)
    with pytest.raises(ValueError):
        legendre(1, 2)
    with pytest.raises(ValueError):
        legendre(0, 7)


def test_legendre_against_residue_sets():
    for p in ODD_PRIMES_100:
        for a in range(1, p):
            assert legendre(a, p) == legendre_by_squares(a, p), (a, p)


@settings(max_examples=200)
@given(
    st.sampled_from(ODD_PRIMES_100),
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6),
)
def test_legendre_multiplicative(p, a, b):
    if a % p and b % p:
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_mod4_mod8_characters():
    assert [lambda4(a) for a in (1, 3, 5, 7)] == [1, -1, 1, -1]
    assert [lambda8(a) for a in (1, 3, 5, 7)] == [1, -1, -1, 1]
    assert lambda4(-1) == -1
    assert lambda4(Fraction(1, 3)) == -1  # 1/3 = 3 (mod 4)
    with pytest.raises(ValueError):
        lambda4(6)
    with pytest.raises(ValueError):
        lambda8(Fraction(3, 2))


@settings(max_examples=200)
@given(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda n: n % 2),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda n: n % 2),
)
def test_eps_twins_are_homomorphisms(a, b):
    assert eps4(a * b) == (eps4(a) + eps4(b)) % 2
    assert eps8(a * b) == (eps8(a) + eps8(b)) % 2
    assert eps_inf(a * b) == (eps_inf(a) + eps_inf(b)) % 2


def test_sign_inf():
    assert sign_inf(-3) == -1
    assert sign_inf(Fraction(2, 5)) == 1
    with pytest.raises(ValueError):
        eps_inf(0)


# ---------------------------------------------------------------------------
# Gauss's lemma and lattice counts

def test_gauss_lemma_example():
    # a=2, p=7: doubling {1,2,3} gives {2,4,6} = {2,-3,-1}: two sign flips
    assert gauss_lemma_sign(2, 7) == 1
    assert flips_by_hand(2, 7) == 2


def test_gauss_lemma_matches_legendre():
    for p in primes_below(200):
        if p == 2:
            continue
        for a in range(1, p):
            assert gauss_lemma_sign(a, p) == legendre(a, p), (a, p)


def test_gauss_lemma_domain():
    with pytest.raises(ValueError):
        gauss_lemma_sign(7, 7)
    with pytest.raises(ValueError):
        gauss_lemma_sign(1, 9)


def test_lattice_counts_example():
    assert lattice_counts(3, 5) == (1, 1)


def test_lattice_counts_guarantees():
    for i, p in enumerate(ODD_PRIMES_100):
        for q in ODD_PRIMES_100[i + 1:]:
            M, N = lattice_counts(p, q)
            assert (-1) ** M == legendre(q, p), (p, q)
            assert (-1) ** N == legendre(p, q), (p, q)
            assert (M + N) % 2 == ((p - 1) // 2) * ((q - 1) // 2) % 2, (p, q)


def test_lattice_counts_domain():
    with pytest.raises(ValueError):
        lattice_counts(5, 5)
    with pytest.raises(ValueError):
        lattice_counts(2, 5)


# ---------------------------------------------------------------------------
# reciprocity

def test_reciprocity_small():
    assert reciprocity_check(3, 5)
    # both = 1 mod 4: both Legendre symbols equal
    assert legendre(17, 13) == legendre(13, 17) == 1
    assert reciprocity_check(13, 17)


def test_reciprocity_sample():
    ps = [p for p in primes_below(300) if p > 2]
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            assert reciprocity_check(p, q), (p, q)


# ---------------------------------------------------------------------------
# psi

def test_psi_example():
    # 15 = 3*5: psi_15(2) = lambda_3(2) lambda_5(2) = (-1)(-1) = +1,
    # matching the mod-8 law since 15 = -1 (mod 8)
    assert psi(15, 2) == 1
    assert lambda8(15) == 1


def test_psi_squares_dont_count():
    assert psi(45, 2) == legendre(2, 5)  # 45 = 3^2 * 5
    assert psi(9, 2) == 1


def test_psi_domain():
    with pytest.raises(ValueError):
        psi(6, 5)
    with pytest.raises(ValueError):
        psi(15, 3)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-10 ** 4, max_value=10 ** 4).filter(lambda n: n % 2),
    st.integers(min_value=-10 ** 4, max_value=10 ** 4).filter(lambda n: n % 2),
)
def test_psi_reciprocity_law(a, b):
    if math.gcd(a, b) != 1:
        return
    lhs = psi(a, b)
    rhs = (-1) ** ((eps4(a) * eps4(b) + eps_inf(a) * eps_inf(b)) % 2) * psi(b, a)
    assert lhs == rhs, (a, b)


# ---------------------------------------------------------------------------
# kronecker chi

def test_chi_structure():
    assert chi_character(1) == TRIVIAL_CHARACTER
    assert chi_character(-1).factors == frozenset({4})
    assert chi_character(2).factors == frozenset({8})
    assert chi_character(-2).factors == frozenset({4, 8})
    assert chi_character(3).factors == frozenset({3, 4})
    assert chi_character(5).factors == frozenset({5})
    assert chi_character(-15).factors == frozenset({3, 5})  # eps4(15)=1, neg flips back
    assert chi_character(6).factors == frozenset({3, 4, 8})
    assert chi_character(3).modulus == 12
    assert chi_character(6).modulus == 24


def test_chi_rejects_non_squarefree():
    with pytest.raises(ValueError):
        chi_character(12)
    with pytest.raises(ValueError):
        kronecker_chi(4, 3)


def test_chi_values_match_legendre():
    # chi_a(p) = lambda_p(a) for odd primes p not dividing a
    for a in (-15, -10, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 15, 21):
        for p in ODD_PRIMES_100:
            if abs(a) % p == 0:
                continue
            assert kronecker_chi(a, p) == legendre(a, p), (a, p)


def test_chi_is_periodic_and_multiplicative():
    for a in (-6, -3, 5, 10, 21):
        m = 4 * abs(a)
        units = [x for x in range(1, 3 * m) if math.gcd(x, m) == 1]
        for x in units[:40]:
            assert kronecker_chi(a, x) == kronecker_chi(a, x + m)
        for x in units[:12]:
            for y in units[:12]:
                assert kronecker_chi(a, x * y) == kronecker_chi(a, x) * kronecker_chi(a, y)


def test_chi_domain():
    with pytest.raises(ValueError):
        kronecker_chi(3, 6)  # gcd(6, 12) != 1


# ---------------------------------------------------------------------------
# character basis of G_m

def test_char_basis_m15():
    basis = quadratic_char_basis(15)
    assert sorted(c.label() for c in basis) == ["lambda_3", "lambda_5"]
    # the four products exhaust the order-<=2 characters of G_15
    units = [x for x in range(1, 15) if math.gcd(x, 15) == 1]
    seen = set()
    for mask in range(4):
        chosen = [c.factors for bit, c in enumerate(basis) if mask >> bit & 1]
        chi = QuadraticCharacter(frozenset().union(*chosen))
        seen.add(tuple(chi.eval(x) for x in units))
    assert len(seen) == 4
    # brute force: all multiplicative sign maps on G_15
    homs = []
    for mask in range(1 << len(units)):
        vals = {u: (-1) ** (mask >> i & 1) for i, u in enumerate(units)}
        if all(vals[x * y % 15] == vals[x] * vals[y] for x in units for y in units):
            homs.append(tuple(vals[u] for u in units))
    assert set(homs) == seen


def test_char_basis_m24():
    labels = sorted(c.label() for c in quadratic_char_basis(24))
    assert labels == ["lambda_3", "lambda_4", "lambda_8"]
    assert sorted(c.label() for c in quadratic_char_basis(4)) == ["lambda_4"]
    with pytest.raises(ValueError):
        quadratic_char_basis(2)


def test_character_local_evaluation():
    chi = LocalCharacter(TWO_PLACE, QuadraticCharacter(frozenset({4})), 1)
    assert chi.value(2) == -1
    assert chi.value(5) == 1
    assert chi.value(3) == -1
    assert chi.label() == "nu_2*lambda_4"
    chi7 = LocalCharacter(Place.finite(7), QuadraticCharacter(frozenset({7})))
    assert chi7.value(Fraction(3, 49)) == legendre(3, 7)
    with pytest.raises(ValueError):
        LocalCharacter(Place.finite(5), chi7.quad)
    # lambda_4 and lambda_8 are characters of Q_2^x only
    for factors in ({4}, {8}, {4, 8}):
        with pytest.raises(ValueError):
            LocalCharacter(Place.finite(3), QuadraticCharacter(frozenset(factors)))


def test_character_rejects_zero():
    # nu_p alone used to read v_p(0) = INFINITY and raise TypeError
    for chi in (
        LocalCharacter(Place.finite(3), r=1),
        LocalCharacter(TWO_PLACE, QuadraticCharacter(frozenset({4})), 1),
        LocalCharacter(Place.finite(7), QuadraticCharacter(frozenset({7}))),
        LocalCharacter(INF_PLACE, r=1),
    ):
        with pytest.raises(ValueError):
            chi.value(0)
    with pytest.raises(ValueError):
        QuadraticCharacter(frozenset({7})).eval(0)


def test_character_certifies_its_primes():
    # a composite nu prime used to be accepted, and eval(15) read v_15(15) = 1:
    # nu_p is now the sign of a place, whose prime is certified
    for bad in (15, 1, 4, 3317044064679887385961981):
        with pytest.raises(ValueError):
            LocalCharacter(Place.finite(bad), r=1)
    for bad in (2, 9, 15, 1, 0):
        with pytest.raises(ValueError):
            QuadraticCharacter(frozenset({bad}))
    chi = QuadraticCharacter(frozenset({4, 8, 7}))
    assert chi == QuadraticCharacter(frozenset({Prime(7), 4, 8}))
    assert {type(f).__name__ for f in chi.factors} == {"int", "Prime"}
    assert chi.label() == "lambda_4*lambda_7*lambda_8"
    nu = LocalCharacter(Place.finite(3), r=1)
    assert type(nu.place.prime) is Prime and nu.label() == "nu_3"


# ---------------------------------------------------------------------------
# unit group product (Wilson mod m)

def test_group_product_sign_example():
    assert group_product_sign(8) == 1  # 1*3*5*7 = 105 = 1 (mod 8)
    assert group_product_sign(4) == -1
    assert group_product_sign(9) == -1
    assert group_product_sign(1) == 1


def test_group_product_sign_brute():
    for m in range(1, 400):
        assert group_product_sign(m) == unit_group_product(m), m


# ---------------------------------------------------------------------------
# binomial primality

def test_binomial_primality_examples():
    assert binomial_primality(7)
    assert not binomial_primality(9)  # C(9,3) = 84 not divisible by 9


def test_binomial_primality_scan():
    for n in range(2, 300):
        assert binomial_primality(n) == (n in set(primes_below(300))), n


def test_binomial_primality_domain():
    with pytest.raises(ValueError):
        binomial_primality(1)


# ---------------------------------------------------------------------------
# misc

def test_smallest_nonresidue():
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(23) == 5
    for p in ODD_PRIMES_100:
        u = smallest_nonresidue(p)
        assert legendre(u, p) == -1
        assert all(legendre(a, p) == 1 for a in range(1, u))


# ---------------------------------------------------------------------------
# Mersenne showcase

def test_bost_demo():
    r = bost_demo()
    assert r.exponent_residue == 347
    assert r.two_power_residue == 92
    assert r.p_residue == 91
    assert r.euler_argument == (-91) % 503
    assert r.sign_euler == r.sign_factored == r.sign
    # frozen: Euler criterion on 412 mod 503 evaluates to -1
    assert r.sign == -1
