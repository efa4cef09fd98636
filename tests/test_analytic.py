"""Bernoulli numbers against an independent series inversion, von
Staudt-Clausen, power sums, the p-adic fractional part, conductor
exponents, and root numbers with their product formula."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    bernoulli_by_series,
    bernoulli_table_by_recurrence,
    conductor_by_search,
    power_sum_direct,
    primes_below,
)
from qrlab import symbols
from qrlab.analytic import (
    BERNOULLI_BOUND,
    ROOT_NUMBER_BOUND,
    LocalCharacter,
    bernoulli,
    conductor_exponent,
    local_root_number,
    power_sum,
    root_number_product,
    von_staudt_W,
)
from qrlab.hilbert import hilbert_symbol
from qrlab.padic import PAdicElement, PrecisionLossError, p_frac_part
from qrlab.rational import INF_PLACE, Place, factorize, is_probable_prime, vp_split
from qrlab.symbols import QuadraticCharacter

L4 = QuadraticCharacter(frozenset({4}))
L8 = QuadraticCharacter(frozenset({8}))


def _chi(p: int, *, factors=(), nu=False) -> LocalCharacter:
    return LocalCharacter(Place.finite(p), QuadraticCharacter(frozenset(factors)), int(nu))


# ---------------------------------------------------------------------------
# Bernoulli numbers

def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0


def test_bernoulli_odd_vanishing():
    assert all(bernoulli(k) == 0 for k in range(3, 61, 2))


def test_bernoulli_against_series_inversion():
    for k in range(61):
        assert bernoulli(k) == bernoulli_by_series(k), k


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_tangent_numbers_match_the_recurrence_to_300():
    # one pass of the tangent-number recurrence fills B_0..B_300
    bernoulli(300)
    assert [bernoulli(k) for k in range(301)] == bernoulli_table_by_recurrence(300)


def test_bernoulli_workload_bound():
    for f, args in ((bernoulli, (BERNOULLI_BOUND + 1,)),
                    (von_staudt_W, (BERNOULLI_BOUND + 2,)),
                    (power_sum, (BERNOULLI_BOUND + 1, 2))):
        with pytest.raises(ValueError, match="workload bound"):
            f(*args)


def test_von_staudt_examples():
    assert von_staudt_W(2) == 1  # 1/6 + 1/2 + 1/3
    assert von_staudt_W(4) == 1  # -1/30 + 1/2 + 1/3 + 1/5
    assert bernoulli(4) + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5) == 1


def test_von_staudt_integrality():
    import time

    start = time.monotonic()
    for k in range(2, 61, 2):
        von_staudt_W(k)  # raises if non-integral
    assert time.monotonic() - start < 5.0


def test_von_staudt_rejects():
    with pytest.raises(ValueError):
        von_staudt_W(3)
    with pytest.raises(ValueError):
        von_staudt_W(0)


# ---------------------------------------------------------------------------
# power sums

def test_power_sum_examples():
    assert power_sum(1, 3) == 3
    assert power_sum(2, 4) == 14
    assert power_sum(0, 5) == 5  # the j = 0 term counts 0^0 = 1


def test_power_sum_oracle_agreement():
    for k in range(11):
        for n in (1, 2, 3, 10, 57, 100):
            assert power_sum(k, n) == power_sum_direct(k, n), (k, n)


def test_power_sum_rejects():
    with pytest.raises(ValueError):
        power_sum(-1, 3)
    with pytest.raises(ValueError):
        power_sum(2, 0)


def test_power_sum_padic_limit():
    # v_p(S_k(p^r)/p^r - B_k) grows with r: the sums converge to B_k in Q_p
    for p in (2, 3, 5):
        for k in (2, 4, 6):
            vals = []
            for r in range(1, 6):
                diff = Fraction(power_sum(k, p ** r), p ** r) - bernoulli(k)
                vals.append(vp_split(diff, p)[0] if diff else 99)
            assert all(b > a for a, b in zip(vals, vals[1:])), (p, k, vals)
            assert vals[0] >= 0


# ---------------------------------------------------------------------------
# the fractional part

def test_frac_part_examples():
    assert p_frac_part(3, 5) == 0
    assert p_frac_part(Fraction(1, 2), 2) == Fraction(1, 2)
    assert p_frac_part(Fraction(7, 4), 2) == Fraction(3, 4)
    assert p_frac_part(0, 3) == 0


def test_frac_part_contract():
    for x in (Fraction(5, 27), Fraction(-1, 3), Fraction(22, 7), Fraction(-9, 50)):
        for p in (2, 3, 5, 7):
            t = p_frac_part(x, p)
            assert 0 <= t < 1
            assert t == 0 or factorize(t.denominator).factors[0][0] == p
            assert len(factorize(t.denominator).factors) <= 1
            rem = x - t
            assert rem == 0 or vp_split(rem, p)[0] >= 0


def test_frac_part_padic_input():
    x = PAdicElement.from_rational(Fraction(7, 4), 2)
    assert p_frac_part(x) == Fraction(3, 4)
    assert p_frac_part(x, 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        p_frac_part(x, 3)
    assert p_frac_part(PAdicElement.zero(5)) == 0


def test_frac_part_needs_tail_digits():
    deep = PAdicElement(3, -40, 1, 8)  # 3^-40 known mod 3^-32
    with pytest.raises(PrecisionLossError):
        p_frac_part(deep)


@given(
    st.fractions(max_denominator=500, min_value=-50, max_value=50),
    st.fractions(max_denominator=500, min_value=-50, max_value=50),
    st.sampled_from([2, 3, 5, 7]),
)
def test_frac_part_additive_mod_one(x, y, p):
    # x -> e^(2 pi i <x>_p) is a homomorphism killing Z_p
    s = p_frac_part(x, p) + p_frac_part(y, p) - p_frac_part(x + y, p)
    assert s.denominator == 1


# ---------------------------------------------------------------------------
# local characters and conductors

def test_character_validation():
    with pytest.raises(ValueError):
        LocalCharacter(INF_PLACE, L4)
    with pytest.raises(ValueError):
        LocalCharacter(INF_PLACE, r=2)
    with pytest.raises(ValueError):
        LocalCharacter(Place.finite(3), L4)  # mod-4 character is not local at 3
    with pytest.raises(ValueError):
        LocalCharacter(Place.finite(3), QuadraticCharacter(frozenset({5})))
    with pytest.raises(ValueError):
        LocalCharacter(Place.finite(3), r=2)
    nu3 = LocalCharacter(Place.finite(3), QuadraticCharacter(frozenset({3})), 1)
    assert nu3.label() == "nu_3*lambda_3" and nu3.value(3) == -1 and nu3.value(2) == -1
    # the one local type lives in symbols; analytic imports it
    assert LocalCharacter is symbols.LocalCharacter


def test_character_values():
    chi = _chi(2, factors=(4,))
    assert [chi.value(x) for x in (1, 3, 5, 7)] == [1, -1, 1, -1]
    assert chi.value(2) == 1  # uniformiser goes to +1 without nu
    assert _chi(2, nu=True).value(2) == -1
    assert _chi(7, factors=(7,)).value(3) == -1
    assert LocalCharacter.at_infinity(1).value(-5) == -1


def test_conductor_table():
    # the seven nontrivial characters at 2 and the three at odd p
    at2 = {
        "nu": _chi(2, nu=True),
        "l4": _chi(2, factors=(4,)),
        "nu*l4": _chi(2, factors=(4,), nu=True),
        "l8": _chi(2, factors=(8,)),
        "nu*l8": _chi(2, factors=(8,), nu=True),
        "l4*l8": _chi(2, factors=(4, 8)),
        "nu*l4*l8": _chi(2, factors=(4, 8), nu=True),
    }
    expected = {"nu": 0, "l4": 2, "nu*l4": 2, "l8": 3, "nu*l8": 3, "l4*l8": 3, "nu*l4*l8": 3}
    assert {k: conductor_exponent(v) for k, v in at2.items()} == expected
    for p in (3, 5, 7, 11):
        assert conductor_exponent(_chi(p, nu=True)) == 0
        assert conductor_exponent(_chi(p, factors=(p,))) == 1
        assert conductor_exponent(_chi(p, factors=(p,), nu=True)) == 1
        assert conductor_exponent(LocalCharacter(Place.finite(p))) == 0


def test_conductor_closed_form_matches_search():
    # every character at every p <= 50, against the search over units
    for p in primes_below(51):
        ramified = ((), (4,), (8,), (4, 8)) if p == 2 else ((), (p,))
        for factors in ramified:
            for nu in (False, True):
                chi = _chi(p, factors=factors, nu=nu)
                assert conductor_exponent(chi) == conductor_by_search(chi), (p, factors, nu)


def test_conductor_finite_only():
    with pytest.raises(ValueError):
        conductor_exponent(LocalCharacter.at_infinity(1))


def test_character_determined_by_conductor():
    # chi(x) only depends on x mod p^a(chi) (together with v_p = 0)
    rng = random.Random(11)
    for chi in (_chi(2, factors=(4,)), _chi(2, factors=(8,)), _chi(5, factors=(5,))):
        p = chi.place.prime
        a = conductor_exponent(chi)
        for _ in range(100):
            x = rng.randrange(1, 10 ** 6)
            if x % p == 0:
                x += 1
            assert chi.value(x) == chi.value(x + p ** a * rng.randrange(1, 100) * 2)
            assert chi.value(1 + p ** a * rng.randrange(1, 100)) == 1


# ---------------------------------------------------------------------------
# root numbers

def approx(w: complex, z: complex, tol: float = 1e-9) -> bool:
    return abs(w - z) < tol


def test_root_number_archimedean():
    assert local_root_number(LocalCharacter.at_infinity(0)) == complex(1.0, 0.0)
    assert approx(local_root_number(LocalCharacter.at_infinity(1)), -1j, 1e-15)


def test_root_number_unramified_is_one():
    for p in (2, 3, 5, 13):
        assert approx(local_root_number(_chi(p, nu=True)), 1)
        assert approx(local_root_number(LocalCharacter(Place.finite(p))), 1)


def test_root_number_values_at_2():
    assert approx(local_root_number(_chi(2, factors=(4,))), 1j)
    assert approx(local_root_number(_chi(2, factors=(8,))), 1)
    assert approx(local_root_number(_chi(2, factors=(4, 8))), 1j)


def test_root_number_gauss_sums_odd():
    # classical quadratic Gauss sums: 1 when p = 1 (mod 4), i when p = 3
    for p in (3, 7, 11, 19):
        assert approx(local_root_number(_chi(p, factors=(p,))), 1j)
    for p in (5, 13, 17, 29):
        assert approx(local_root_number(_chi(p, factors=(p,))), 1)


def test_root_number_modulus_one():
    for p in [q for q in primes_below(100) if q > 2]:
        w = local_root_number(_chi(p, factors=(p,)))
        assert abs(abs(w) - 1) < 1e-9


def test_root_number_gamma_independence():
    for chi in (_chi(2, factors=(8,)), _chi(3, factors=(3,)), _chi(5, factors=(5,), nu=True)):
        base = local_root_number(chi)
        p = chi.place.prime
        a = conductor_exponent(chi)
        for unit in (3, 7, Fraction(1, 3)):
            if vp_split(Fraction(unit), p)[0] != 0:
                continue
            w = local_root_number(chi, gamma=Fraction(p) ** a * unit)
            assert abs(base - w) < 1e-9, (chi, unit)


def test_root_number_workload_bound():
    # p^a(chi) Gauss-sum terms: refused past the bound, before any is summed
    p = ROOT_NUMBER_BOUND + 1
    while not is_probable_prime(p):
        p += 1
    with pytest.raises(ValueError, match="workload bound"):
        local_root_number(_chi(p, factors=(p,)))
    with pytest.raises(ValueError, match="workload bound"):
        root_number_product(p)
    # an unramified character has a single term, whatever p is
    assert approx(local_root_number(_chi(p, nu=True)), 1)


def test_root_number_rejects_bad_gamma():
    with pytest.raises(ValueError):
        local_root_number(_chi(2, factors=(8,)), gamma=2)


def test_attached_characters_match_symbols():
    # the character attached to Q_v(sqrt d) computes (x, d)_v
    rng = random.Random(5)
    for d in (-1, 2, -2, 3, 5, -26, 30):
        for p in (2, 3, 5, 13):
            chi = LocalCharacter.attached_to_extension(d, p)
            for _ in range(25):
                x = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
                assert chi.value(x) == hilbert_symbol(x, d, p), (d, p, x)
        chi = LocalCharacter.attached_to_extension(d, "inf")
        assert chi.value(-1) == hilbert_symbol(-1, d, "inf")


def test_product_formula_d_negative_one():
    # W_inf = -i cancels W_2(lambda_4) = i
    assert approx(root_number_product(-1), 1, 1e-6)


def test_product_formula_scan():
    for d in range(-50, 51):
        if d == 0 or not factorize(d).is_squarefree():
            continue
        assert approx(root_number_product(d), 1, 1e-6), d


def test_product_formula_rejects():
    with pytest.raises(ValueError):
        root_number_product(0)
    with pytest.raises(ValueError):
        root_number_product(12)
