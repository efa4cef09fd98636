"""p-adic elements: arithmetic precision semantics, Hensel lifting,
square roots, Teichmuller lifts, digit schemes and square classes."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import digits_value, hensel_one_digit, padic_value, unit_digit
from qrlab.padic import (
    IntPolynomial,
    PAdicElement,
    VP_FACTORIAL_BOUND,
    PrecisionLossError,
    arith,
    digits,
    format_padic,
    hensel_lift,
    padic_sqrt,
    parse_padic,
    sqrt_series_1p8x,
    square_class,
    teichmuller,
    unit_decompose,
    vp_factorial,
)
from qrlab.rational import INFINITY

P = PAdicElement.from_rational

SMALL_PRIMES = [2, 3, 5, 7]


def padic_units(p, k=8):
    """Strategy for nonzero elements with small valuation."""
    return st.builds(
        lambda v, u: PAdicElement(p, v, u if u % p else u + 1, k),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=p ** k - 1),
    )


# ---------------------------------------------------------------------------
# element structure

def test_element_invariants():
    x = PAdicElement(5, 1, 2, 8)
    assert x.abs_precision == 9
    assert x.integer_rep() == 10
    assert unit_digit(x, 0) == 2 and unit_digit(x, 1) == 0
    with pytest.raises(ValueError):
        PAdicElement(5, 0, 10, 2)  # unit divisible by p
    with pytest.raises(ValueError):
        PAdicElement(5, 0, 0, 2)
    with pytest.raises(ValueError):
        PAdicElement(5, 0, 1, 0)  # no digits
    with pytest.raises(ValueError):
        PAdicElement(4, 0, 1, 2)  # composite prime


def test_zero_element():
    z = PAdicElement.zero(7)
    assert z.is_zero and z.valuation is INFINITY
    assert z.abs_precision is INFINITY
    assert P(0, 7) == z
    assert padic_value(z) == 0


def test_from_rational():
    x = P(Fraction(5, 8), 2, 6)
    assert x.valuation == -3 and x.unit == 5
    y = P(Fraction(-1, 3), 5, 4)
    assert y.valuation == 0
    assert (3 * y.unit + 1) % 5 ** 4 == 0


# ---------------------------------------------------------------------------
# arithmetic

def test_add_example():
    one = P(1, 2, 8)
    two = one + one
    assert two.valuation == 1 and two.unit == 1


def test_mul_example():
    x = PAdicElement(5, 1, 2, 8)
    y = PAdicElement(5, -3, 3, 8)
    z = arith("mul", x, y)
    assert z.valuation == -2 and z.unit == 6 and z.precision == 8


def test_total_cancellation_is_an_error():
    a = PAdicElement(3, 0, 1, 4)
    with pytest.raises(PrecisionLossError):
        arith("sub", a, a)


def test_partial_cancellation_shrinks_precision():
    a = PAdicElement(5, 0, 1 + 2 * 25, 6)
    b = PAdicElement(5, 0, 1 + 3 * 25, 6)
    d = a - b
    # difference is -25 + O(5^6): two digits of relative precision lost
    assert d.valuation == 2 and d.precision == 4
    assert d.unit == 5 ** 4 - 1


def test_division():
    x = PAdicElement(5, 1, 2, 8)
    y = PAdicElement(5, -3, 3, 8)
    q = x / y
    assert q.valuation == 4
    assert q.unit * 3 % 5 ** 8 == 2
    with pytest.raises(ZeroDivisionError):
        x / PAdicElement.zero(5)
    assert (PAdicElement.zero(5) / x).is_zero


def test_prime_mismatch():
    with pytest.raises(ValueError):
        P(1, 2, 4) + P(1, 3, 4)


def test_zero_absorbs_and_neutralizes():
    x = PAdicElement(7, 2, 3, 5)
    z = PAdicElement.zero(7)
    assert x + z == x and z + x == x
    assert (x * z).is_zero
    assert x - z == x


@settings(max_examples=120)
@given(padic_units(3), padic_units(3), padic_units(3))
def test_ring_laws_p3(x, y, z):
    _check_ring_laws(x, y, z)


@settings(max_examples=120)
@given(padic_units(2), padic_units(2), padic_units(2))
def test_ring_laws_p2(x, y, z):
    _check_ring_laws(x, y, z)


@settings(max_examples=60)
@given(padic_units(5), padic_units(5), padic_units(5))
def test_ring_laws_p5(x, y, z):
    _check_ring_laws(x, y, z)


@settings(max_examples=60)
@given(padic_units(7), padic_units(7), padic_units(7))
def test_ring_laws_p7(x, y, z):
    _check_ring_laws(x, y, z)


def _check_ring_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    try:
        left = x * (y + z)
        right = x * y + x * z
    except PrecisionLossError:
        return
    # distributivity to the common guaranteed precision
    k = min(left.abs_precision, right.abs_precision)
    diff = padic_value(left) - padic_value(right)
    if diff != 0:
        from qrlab.rational import vp

        assert vp(diff, x.prime) >= k, (x, y, z, left, right)


@settings(max_examples=100)
@given(padic_units(5), padic_units(5))
def test_mul_div_roundtrip(x, y):
    assert (x * y) / y == x
    assert x / y * y == x


# ---------------------------------------------------------------------------
# Hensel lifting

def test_hensel_17_at_2():
    f = IntPolynomial((-17, 0, 1))
    xi = hensel_lift(f, 1, 4, p=2)
    assert xi.integer_rep() % 16 == 9
    assert xi.integer_rep() % 4 == 1


def test_hensel_2_at_7():
    f = IntPolynomial((-2, 0, 1))
    xi = hensel_lift(f, 3, 2, p=7)
    assert xi.integer_rep() == 10


def test_hensel_linear():
    f = IntPolynomial((-5, 1))
    assert padic_value(hensel_lift(f, 5, 6, p=3)) == 5


def test_hensel_full_precision():
    f = IntPolynomial((-17, 0, 1))
    xi = hensel_lift(f, 1, 32, p=2)
    assert (xi.integer_rep() ** 2 - 17) % 2 ** 32 == 0


def test_hensel_is_a_fixed_point():
    f = IntPolynomial((-2, 0, 1))
    xi = hensel_lift(f, 3, 20, p=7)
    again = hensel_lift(f, xi.integer_rep(), 20, p=7)
    assert again == xi


def test_hensel_matches_one_digit_oracle():
    cases = [
        (IntPolynomial((-17, 0, 1)), 1, 2, 10),
        (IntPolynomial((-2, 0, 1)), 3, 7, 8),
        (IntPolynomial((-1, 0, 0, 0, 1)), 2, 5, 9),  # T^4 = 1, root near 2
        (IntPolynomial((3, 1, 1)), 1, 5, 7),  # T^2+T+3 at 5, f(1)=5
    ]
    for f, x0, p, N in cases:
        df = f.derivative()
        want = hensel_one_digit(f, df, x0, p, N)
        got = hensel_lift(f, x0, N, p=p).integer_rep() % p ** N
        assert got == want, (f, p)


def test_hensel_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        hensel_lift(IntPolynomial((-2, 0, 1)), 0, 4, p=2)  # f'(0) = 0
    with pytest.raises(ValueError):
        # f(1) = -1 is a unit: m = 0 fails m > 2 delta
        hensel_lift(IntPolynomial((-2, 0, 1)), 1, 4, p=7)


def test_hensel_refuses_the_zero_polynomial():
    # every x is a root of f = 0, so no root is simple or unique
    for f in (IntPolynomial(()), IntPolynomial((0,)), IntPolynomial((0, 0, 0))):
        for x0 in (3, 0, 3 + 7**10):
            with pytest.raises(ValueError, match="f = 0"):
                hensel_lift(f, x0, 32, p=7)


def test_hensel_refuses_a_nonzero_constant():
    # f' = 0 too, but the reason is that f has no root at all
    for f in (IntPolynomial((5,)), IntPolynomial((-1, 0, 0))):
        for x0 in (0, 7, 3 + 7**10):
            with pytest.raises(ValueError, match="nonzero constant: it has no root"):
                hensel_lift(f, x0, 32, p=7)


# ---------------------------------------------------------------------------
# square roots

def test_sqrt_2_at_7():
    r = padic_sqrt(P(2, 7, 2))
    assert (r.valuation, r.unit) == (0, 10)


def test_sqrt_17_at_2():
    r = padic_sqrt(P(17, 2, 5))
    assert (r.valuation, r.unit, r.precision) == (0, 9, 4)


def test_sqrt_5_at_2_empty():
    assert padic_sqrt(P(5, 2, 8)) is None


def test_sqrt_odd_valuation_empty():
    assert padic_sqrt(P(10, 5, 8)) is None
    assert padic_sqrt(P(8, 2, 8)) is None


def test_sqrt_negative_valuation():
    r = padic_sqrt(P(Fraction(9, 49), 7, 6))
    assert padic_value(r) == Fraction(3, 7)


def test_sqrt_verifies_and_normalizes():
    for p in SMALL_PRIMES:
        for n in range(1, 80):
            x = P(n, p, 12)
            r = padic_sqrt(x)
            assert (r is None) == (square_class(x) != 1), (p, n)
            if r is None:
                continue
            # root squares back to x at the root's full precision
            prod = r * r
            assert prod.valuation == x.valuation
            assert (prod.unit - x.unit) % p ** prod.precision == 0
            if p == 2:
                assert r.unit % 4 == 1
            else:
                assert r.unit % p <= (p - 1) // 2


# ---------------------------------------------------------------------------
# Teichmuller

def test_teichmuller_examples():
    assert teichmuller(0, 5, 6).is_zero
    assert padic_value(teichmuller(1, 5, 6)) == 1
    assert teichmuller(2, 5, 2).unit == 7


def test_teichmuller_is_root_of_unity():
    for p in (3, 5, 7, 13):
        for a in range(1, p):
            t = teichmuller(a, p, 6)
            mod = p ** 6
            assert pow(t.unit, p, mod) == t.unit
            assert pow(t.unit, p - 1, mod) == 1
            assert t.unit % p == a


def test_teichmuller_multiplicative():
    for p in (3, 5, 7, 13):
        mod = p ** 6
        for a in range(1, p):
            for b in range(1, p):
                lhs = teichmuller(a * b % p, p, 6).unit
                rhs = teichmuller(a, p, 6).unit * teichmuller(b, p, 6).unit % mod
                assert lhs == rhs, (p, a, b)


def test_unit_decompose():
    tau, u1 = unit_decompose(P(7, 5, 2))
    assert tau.unit == 7 and padic_value(u1) == 1
    with pytest.raises(ValueError):
        unit_decompose(P(10, 5, 4))


@settings(max_examples=80)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(min_value=1, max_value=10 ** 6),
)
def test_unit_decompose_roundtrip(p, n):
    if n % p == 0:
        return
    x = P(n, p, 8)
    tau, u1 = unit_decompose(x)
    assert u1.unit % p == 1
    assert pow(tau.unit, p, p ** 8) == tau.unit
    assert (tau * u1).unit == x.unit


def test_unit_filtration():
    # x in U_n ==> x^p in U_{n+1} but not U_{n+2}
    for p, nmin in ((3, 1), (5, 1), (7, 1), (2, 2)):
        for n in range(nmin, nmin + 3):
            for a in range(1, min(p, 4)):
                if a % p == 0:
                    continue
                x = 1 + a * p ** n
                xp = pow(x, p, p ** (n + 4))
                assert (xp - 1) % p ** (n + 1) == 0, (p, n, a)
                assert (xp - 1) % p ** (n + 2) != 0, (p, n, a)


# ---------------------------------------------------------------------------
# factorial valuation

def test_vp_factorial_examples():
    assert vp_factorial(0, 5) == (0, 1)
    assert vp_factorial(10, 2)[0] == 8


def test_vp_factorial_formulas_agree():
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(0, 10 ** 4, 7):
            val, _ = vp_factorial(n, p)
            floor_sum = 0
            q = p
            while q <= n:
                floor_sum += n // q
                q *= p
            assert val == floor_sum, (n, p)


def test_vp_factorial_unit_identity():
    # n! = (-p)^{v} t_n (mod p^{v+1})
    for p in (2, 3, 5, 7):
        for n in range(0, 60):
            val, t = vp_factorial(n, p)
            assert math.factorial(n) % p ** (val + 1) == (-p) ** val * t % p ** (val + 1)


def _vp_factorial_by_factorials(n, p):
    """vp_factorial with t_n read from math.factorial of each digit."""
    digits = []
    m = n
    while m:
        digits.append(m % p)
        m //= p
    t = 1
    for d in digits:
        t = t * math.factorial(d) % p
    return (n - sum(digits)) // (p - 1), t % p


def test_vp_factorial_matches_full_digit_factorials():
    rng = random.Random(480)
    for p in (2, 3, 5, 7, 11, 13, 31, 101, 1009, 10007):
        ns = list(range(4 * p)) if p < 1000 else [p - 2, p - 1, p // 2, p // 2 + 1]
        ns += [rng.randrange(p ** 3) for _ in range(40)]
        for n in ns:
            assert vp_factorial(n, p) == _vp_factorial_by_factorials(n, p), (n, p)


def test_vp_factorial_refuses_past_its_bound_before_any_product():
    p = 10000019  # the least prime above 10^7
    assert vp_factorial(p - 1, p) == (0, p - 1)  # Wilson: no product needed
    assert vp_factorial(p - 2, p) == (0, 1)
    start = time.perf_counter()
    for n in (VP_FACTORIAL_BOUND + 1, p // 2, p * p + p // 2):
        with pytest.raises(ValueError, match="workload bound"):
            vp_factorial(n, p)
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# 2-adic series

def test_sqrt_series_examples():
    assert sqrt_series_1p8x(0, 5).is_zero
    assert sqrt_series_1p8x(1, 5).integer_rep() % 32 == 28
    assert sqrt_series_1p8x(3, 5).integer_rep() % 32 == 4


def test_sqrt_series_matches_padic_sqrt():
    for x in (1, 2, 3, 5, 7, 11, 100, 2 ** 15 + 3):
        k = 20
        y = sqrt_series_1p8x(x, k)
        r = padic_sqrt(P(1 + 8 * x, 2, k))
        got = (1 + y.integer_rep()) % 2 ** (k - 1)
        assert got % 4 == 1
        assert got == r.unit % 2 ** (k - 1), x


def test_sqrt_series_term_valuations():
    # the n-th term has valuation n + s_2(n): check the partial-sum tails
    for x in (1, 3):
        prev = sqrt_series_1p8x(x, 18).integer_rep()
        for k in (6, 10, 14):
            y = sqrt_series_1p8x(x, k).integer_rep()
            assert (prev - y) % 2 ** k == 0


def _sqrt_series_by_fractions(x, k):
    """y mod 2^k from the series summed on exact Fractions."""
    total, c = Fraction(0), 1
    for n in range(1, k):
        total += Fraction(c * (4 * x) ** n, math.factorial(n))
        c *= 1 - 2 * n
    return total.numerator * pow(total.denominator, -1, 2 ** k) % 2 ** k


def test_sqrt_series_matches_the_fraction_sum():
    for k in (3, 5, 16, 40):
        for x in range(-20, 21):
            y = sqrt_series_1p8x(x, k)
            assert (0 if y.is_zero else y.integer_rep()) == _sqrt_series_by_fractions(x, k), (x, k)


def test_sqrt_series_reads_x_mod_2_to_the_k():
    rng = random.Random(1024)
    for k in (3, 4, 5, 8, 20, 64):
        for _ in range(20):
            x = rng.randrange(-2 ** 70, 2 ** 70)
            assert sqrt_series_1p8x(x, k) == sqrt_series_1p8x(x % 2 ** k, k), (x, k)
    start = time.perf_counter()
    assert sqrt_series_1p8x(7 + 10 ** 700 * 2 ** 1024, 1024) == sqrt_series_1p8x(7, 1024)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# digits

def test_digits_minus_one():
    assert digits(P(-1, 3, 4)) == [2, 2, 2, 2]


def test_digits_uniformizer():
    assert digits(PAdicElement(5, 1, 1, 3)) == [0, 1, 0, 0]


def test_digits_reject_negative_valuation():
    with pytest.raises(ValueError):
        digits(PAdicElement(5, -1, 1, 3))


def test_digits_zero():
    assert digits(PAdicElement.zero(5)) == []


@settings(max_examples=120)
@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=5 ** 6),
    st.sampled_from(["standard", "teichmuller"]),
)
def test_digits_roundtrip(p, v, u, scheme):
    if u % p == 0:
        u += 1
    u %= p ** 6
    if u == 0 or u % p == 0:
        return
    x = PAdicElement(p, v, u, 6)
    ds = digits(x, scheme)
    assert len(ds) == v + 6
    assert digits_value(ds, p) == x.integer_rep() % p ** len(ds)
    if scheme == "standard":
        assert all(0 <= d < p for d in ds)
    else:
        K = v + 6
        assert all(pow(d, p, p ** K) == d % p ** K for d in ds)


# ---------------------------------------------------------------------------
# square classes

def test_square_class_examples():
    assert square_class(17, 2) == 1
    assert square_class(14, 7) == 7
    assert square_class(3, 7) == 3
    assert square_class(Fraction(-1), 2) == -1
    assert square_class(-20, 2) == -5
    assert square_class(49, 7) == 1


def test_square_class_representatives():
    # p odd: 4 classes; p = 2: 8 classes; multiplying by squares is invisible
    for p in (3, 5, 7, 11):
        classes = {square_class(n, p) for n in range(1, 200) if n % p or (n // p) % p}
        classes |= {square_class(-n, p) for n in range(1, 200) if n % p or (n // p) % p}
        assert len(classes) == 4, (p, classes)
    reps = {square_class(n, 2) for n in list(range(1, 64)) + [-n for n in range(1, 64)] if n}
    assert reps == {1, 5, -1, -5, 2, 10, -2, -10}


@settings(max_examples=100)
@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=30),
)
def test_square_class_is_square_invariant(p, n, s):
    assert square_class(n, p) == square_class(n * s * s, p)


# ---------------------------------------------------------------------------
# textual form

def test_format_example():
    assert format_padic(PAdicElement(7, 0, 10, 2)) == "7^0 * (3 + 1*7) + O(7^2)"
    assert format_padic(PAdicElement.zero(5)) == "0"


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_padic("7^0 * (8 + 1*7) + O(7^2)")  # digit out of range
    with pytest.raises(ValueError):
        parse_padic("7^0 * (3 + 1*5) + O(7^2)")  # prime mismatch
    with pytest.raises(ValueError):
        parse_padic("gibberish")


def test_format_reads_the_unit_digits():
    x = PAdicElement.from_rational(Fraction(-5, 3), 7, 300)
    terms = [
        str(d) if i == 0 else f"{d}*7" if i == 1 else f"{d}*7^{i}"
        for i, d in ((i, unit_digit(x, i)) for i in range(300))
        if d
    ]
    assert format_padic(x) == f"7^0 * ({' + '.join(terms)}) + O(7^300)"


def test_parse_refuses_oversized_text():
    with pytest.raises(ValueError, match="workload bound"):
        parse_padic("7^0 * (1) + O(7^1000000000)")
    with pytest.raises(ValueError, match="workload bound"):
        parse_padic("7^-1000000000 * (1) + O(7^2)")
    with pytest.raises(ValueError, match="beyond"):
        parse_padic("7^0 * (1 + 1*7^100000000) + O(7^3)")


@settings(max_examples=150)
@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=7 ** 8),
    st.integers(min_value=1, max_value=8),
)
def test_format_parse_roundtrip(p, v, u, k):
    u %= p ** k
    if u == 0 or u % p == 0:
        u = 1
    x = PAdicElement(p, v, u, k)
    assert parse_padic(format_padic(x)) == x
