"""Bernoulli numbers and the von Staudt-Clausen integer, exact power sums,
conductor exponents and local root numbers (normalized Gauss sums) of
symbols.LocalCharacter, the one local character type, together with their
global product formula; the character of Q_v(sqrt(d)) is symbols' closed
form.

Root numbers live in double-precision complex arithmetic; everything else
is exact.  The primitive fourth root of unity is fixed as i = (0, +1),
and W at the real place depends on that choice.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from qrlab.rational import (
    INF_PLACE,
    TWO_PLACE,
    Place,
    Rat,
    factorize,
    is_probable_prime,
    local_unit,
)
from qrlab.symbols import LocalCharacter

# ---------------------------------------------------------------------------
# Bernoulli numbers and friends

#: Largest k that bernoulli, von_staudt_W and power_sum accept: one pass of
#: the tangent-number recurrence to k = 2000 takes about 1 s.
BERNOULLI_BOUND = 2000

#: Most decimal digits power_sum answers with: Python's default limit on
#: int-to-str conversion, so that every accepted answer can be printed.
POWER_SUM_DIGITS_BOUND = 4300

_BERNOULLI: list[Fraction] = [Fraction(1)]


def _bernoulli_table(k: int) -> list[Fraction]:
    """[B_0, ..., B_k] (and possibly more), from the cache.  A k past the
    cache refills it in one pass of Brent and Harvey's integer recurrence
    for the tangent numbers T_1..T_n, n = k // 2 ("Fast computation of
    Bernoulli, Tangent and Secant numbers", 2013), from which
    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) and B_2j+1 = 0 for j >= 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > BERNOULLI_BOUND:
        raise ValueError(f"k = {k} exceeds the Bernoulli workload bound {BERNOULLI_BOUND}")
    if len(_BERNOULLI) <= k:
        n = k // 2
        T = [0, 1] + [0] * (n - 1)
        for j in range(2, n + 1):
            T[j] = (j - 1) * T[j - 1]
        for i in range(2, n + 1):
            for j in range(i, n + 1):
                T[j] = (j - i) * T[j - 1] + (j - i + 2) * T[j]
        table = [Fraction(1), Fraction(-1, 2)]
        for j in range(1, n + 1):
            q = 4**j
            table += (Fraction((-1) ** (j - 1) * 2 * j * T[j], q * (q - 1)), Fraction(0))
        _BERNOULLI[:] = table
    return _BERNOULLI


def bernoulli(k: int) -> Fraction:
    """Exact B_k for 0 <= k <= BERNOULLI_BOUND, with B_1 = -1/2."""
    return _bernoulli_table(k)[k]


def von_staudt_W(k: int) -> int:
    """The integer B_k + sum of 1/l over primes l with (l-1) | k, k even."""
    if k <= 0 or k % 2:
        raise ValueError("k must be a positive even integer")
    w = bernoulli(k) + sum(
        Fraction(1, d + 1) for d in range(1, k + 1) if k % d == 0 and is_probable_prime(d + 1)
    )
    if w.denominator != 1:
        raise ArithmeticError(f"W_{k} = {w} is not an integer")
    return w.numerator


def power_sum(k: int, n: int) -> int:
    """0^k + 1^k + ... + (n-1)^k, by the Bernoulli-polynomial identity
    S_k(n) = sum_m C(k, m) B_m n^(k+1-m)/(k+1-m) (the j = 0 term contributes
    1 when k = 0): k + 1 terms whatever n is.  The sum is below
    n^(k+1)/(k+1), and a k, n for which that bound has more than
    POWER_SUM_DIGITS_BOUND - 1 digits is refused before any arithmetic."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    if (k + 1) * math.log10(n) - math.log10(k + 1) > POWER_SUM_DIGITS_BOUND - 1:
        raise ValueError(
            f"S_{k}(n) would exceed the power-sum workload bound of "
            f"{POWER_SUM_DIGITS_BOUND} digits"
        )
    B = _bernoulli_table(k)
    total = sum(
        math.comb(k, m) * B[m] * Fraction(n) ** (k + 1 - m) / (k + 1 - m)
        for m in range(k + 1)
    )
    assert total.denominator == 1
    return total.numerator


# ---------------------------------------------------------------------------
# conductors

def conductor_exponent(chi: LocalCharacter) -> int:
    """a(chi): the smallest n with chi trivial on U_n = 1 + p^n Z_p (n = 0
    meaning trivial on all units, the unramified case).  In closed form:
    0 with no ramified factor, 1 for lambda_p, 2 for lambda_4 alone and 3
    when lambda_8 is present."""
    if chi.place.is_infinite:
        raise ValueError("conductor exponents live at finite places")
    factors = chi.quad.factors
    if not factors:
        return 0
    if 8 in factors:
        return 3
    return 2 if 4 in factors else 1


# ---------------------------------------------------------------------------
# root numbers

#: Largest p^a(chi), the number of Gauss-sum terms, that local_root_number
#: accepts, and largest sum of the primes of d that root_number_product
#: accepts (its terms number about that sum): at about 2.5 us a term, the
#: largest accepted call takes about 0.13 s.
ROOT_NUMBER_BOUND = 5 * 10**4


def _e(t: float) -> complex:
    return cmath.exp(complex(0.0, 2.0 * math.pi * t))


def local_root_number(chi: LocalCharacter, gamma: Rat | None = None) -> complex:
    """W_v(chi): i^(-r) at the real place; at p the normalized Gauss sum
    chi(gamma)/sqrt(p^a) * sum over units x mod p^a of chi(x) e(<x/gamma>_p)
    with v_p(gamma) = a(chi).  The value does not depend on gamma.

    With gamma = p^a u, <x/gamma>_p = (x u^-1 mod p^a) / p^a, so the sum
    runs on ints: u is inverted mod p^a once, and chi(x) of the unit x is
    read from x itself."""
    if chi.place.is_infinite:
        return complex(1.0, 0.0) if chi.r == 0 else complex(0.0, -1.0)
    p = chi.place.prime
    a = conductor_exponent(chi)
    q = p ** a
    if q > ROOT_NUMBER_BOUND:
        raise ValueError(
            f"p^a(chi) = {p}^{a} exceeds the root-number workload bound {ROOT_NUMBER_BOUND}"
        )
    gamma = Fraction(q if gamma is None else gamma)
    v, u = local_unit(gamma, p, q) if gamma else (None, None)
    if v != a:
        raise ValueError(f"gamma must have valuation a(chi) = {a}")
    u_inv = pow(u, -1, q)
    exponent = chi.quad._exponent
    # ascending residue order keeps the floating sum deterministic
    total = sum(
        (-1) ** (exponent(x) % 2) * _e(x * u_inv % q / q)
        for x in range(1, q + 1)
        if x % p
    )
    return chi.value(gamma) * total / math.sqrt(q)


def root_number_product(d: int) -> complex:
    """prod over v of W_v(chi_v) for the characters attached to Q_v(sqrt d),
    d squarefree; the factors away from {inf, 2, p | d} are 1, and the
    product itself must come back 1 up to rounding."""
    if d == 0:
        raise ValueError("d must be nonzero")
    fd = factorize(d)
    if not fd.is_squarefree():
        raise ValueError("d must be squarefree")
    if sum(p for p, _ in fd.factors) > ROOT_NUMBER_BOUND:
        raise ValueError(
            f"the primes of d = {d} sum past the root-number workload bound {ROOT_NUMBER_BOUND}"
        )
    places = [INF_PLACE, TWO_PLACE]
    places += [Place.finite(p) for p, _ in fd.factors if p != 2]
    z = complex(1.0, 0.0)
    for v in places:
        z *= local_root_number(LocalCharacter.attached_to_extension(d, v))
    return z
