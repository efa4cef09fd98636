"""Exact integer/rational substrate: factorization, valuations, absolute
values at every place, and modular square roots.

All functions are pure; rationals are `fractions.Fraction` (always in lowest
terms with positive denominator, which is exactly the representation contract
the rest of the library relies on).  A rational x is reduced at a prime p
in one place, `local_unit`, which reads v = v_p(x) and the unit x / p^v
from one `int_valuation` and returns v and the unit's residue; `vp` is its
valuation.  The factor core, `_exponent_dict`, gives {p: v_p(x)} for a
rational x (trial division to 10^3, one gcd with the primes to 10^4, then
rho; Miller-Rabin on one hashed base from 2809 to 2^32); the symbol
vector and the conic layer read its dicts as they are (the symbol vector,
which holds v = v_p(x), reads the unit's square class from one exact
division of num * den by p^|v|), and `rational_factor_exponents` sorts
them for `factorize` and the CLI.

`unit_sqrt` lifts a root mod p to one mod p^k in a Newton loop of its own,
for padic_sqrt and for the local witnesses, which load no p-adics, on the
precision schedule of `_lift_schedule`, the one that padic.hensel_lift
reads too; the schedules and the least non-residue mod p are cached.

The library's value types are `Record`s: each checks its arguments in
__init__ and sets every field exactly once, so a built record is valid.

A prime is certified once, by `Prime`: an int that has passed
is_probable_prime, is in the sieve's table below 10^4, or comes out of
factorize, which certifies what it finds; so every function that takes a
prime checks it with one call that costs a type check when the prime is
already a `Prime`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Iterator
from fractions import Fraction
from operator import attrgetter, itemgetter

Rat = int | Fraction

#: Workload ceiling for factorize(); inputs with |n| above this are refused.
DEFAULT_FACTOR_BOUND = 2**96

#: Trial-division ceiling; one gcd with the mid primes up to
#: _MID_PRIME_LIMIT, then Pollard rho, split the composites that survive it.
TRIAL_DIVISION_LIMIT = 10**3
_MID_PRIME_LIMIT = 10**4

#: Most primes with two square roots in one root search mod a squarefree b,
#: which forms 2^(k-1) sums over k such primes.  No |b| <= 2^96 has more
#: than 20 odd primes, so only a b built from a numerator and a denominator
#: can reach it.
ROOT_SEARCH_BOUND = 20

#: Unit digits of a p-adic element read from a rational when none are given.
DEFAULT_PRECISION = 32

#: Largest bit size of p^k for p-adic input from text or the command line,
#: k the --prec digits or the exponent of a textual O(p^k): p^k <= 2^1024.
#: Every p-adic command takes well under 1 s there.
PADIC_BITS_BOUND = 1024

#: Prime refuses n >= 2^PRIME_BITS_BOUND untested: BPSW on a 1024-bit prime
#: takes ~0.06 s, and one modular exponentiation at 4300 digits ~7 s.
PRIME_BITS_BOUND = 1024


class PrecisionLossError(ArithmeticError):
    """Raised when a p-adic result is indistinguishable from zero at the
    known precision (total cancellation), or otherwise has no certain
    digits.  Defined here, with DEFAULT_PRECISION and the p-adic size
    check, so that the CLI can name them without loading the p-adic
    module."""


def check_padic_size(p: int, k: int) -> None:
    """Refuse p^k above 2^PADIC_BITS_BOUND before anything computes it; a p
    below 2 is left for the primality check to refuse."""
    if p >= 2 and k > 0 and k * math.log2(p) > PADIC_BITS_BOUND:
        raise ValueError(
            f"{p}^{k} exceeds the p-adic workload bound of 2^{PADIC_BITS_BOUND}"
        )


def _primes_upto(n: int) -> tuple[int, ...]:
    """The primes <= n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return tuple(itertools.compress(range(n + 1), sieve))


#: From one sieve, as plain ints (CPython's int fast paths): the 168 primes
#: up to TRIAL_DIVISION_LIMIT, the 1061 mid primes above it up to
#: _MID_PRIME_LIMIT, and their products.
_PRIMES_TO_MID = _primes_upto(_MID_PRIME_LIMIT)
_SMALL_PRIMES = _PRIMES_TO_MID[: bisect.bisect(_PRIMES_TO_MID, TRIAL_DIVISION_LIMIT)]
_MID_PRIMES = _PRIMES_TO_MID[len(_SMALL_PRIMES) :]
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
_MID_PRIMORIAL = math.prod(_MID_PRIMES)

# Miller-Rabin from 2^32, in tiers (bound, bases): n runs on the bases of the
# first row whose bound is > n, and an n below it prime to 2..47 is prime iff
# it passes each base whose residue mod n is >= 2.  To 2^64 the bases are the
# least sets proven over their bands, as sympy.ntheory.primetest.isprime (and
# Wikipedia's "Miller-Rabin primality test") lists them; those with base 2
# were checked against Feitsma-Galway's base-2 strong pseudoprimes below
# 2^64.  Then the bound is psi_t, the least strong pseudoprime to the first t
# prime bases (OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson &
# Webster, Math. Comp. 86, 2017), to psi_13; above it, the 13 bases and a
# strong Lucas test make a Baillie-PSW test: no composite is known to pass.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = (
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851,
     (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977, (2, 123635709730000, 9233062284813009, 43835965440333360,
                          761179012939631437, 1263739024124850375)),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318665857834031151167461, _MR_BASES[:12]),
    (3317044064679887385961981, _MR_BASES),
)

# Below 2^32, an n prime to 2..47 is prime below 53^2 = 2809 and from there
# runs one strong test, to _MR_BASES_32[h] for h its hash: a base exposing
# every odd composite < 2^32 prime to 3, 5, 7 with that hash (Forisek &
# Jancina, 2015).  Their C hash runs on 64-bit words; the low 24 bits it
# reads match on Python ints.  The table is sympy 1.14 isprime's, verbatim;
# sympy runs it from 65077, and a test checks it below that against a sieve.
_TRIAL_PRIMES = _SMALL_PRIMES[:15]
_MR_BASES_32 = (
    15591, 2018, 166, 7429, 8064, 16045, 10503, 4399, 1949, 1295, 2776,
    3620, 560, 3128, 5212, 2657, 2300, 2021, 4652, 1471, 9336, 4018, 2398,
    20462, 10277, 8028, 2213, 6219, 620, 3763, 4852, 5012, 3185, 1333, 6227,
    5298, 1074, 2391, 5113, 7061, 803, 1269, 3875, 422, 751, 580, 4729,
    10239, 746, 2951, 556, 2206, 3778, 481, 1522, 3476, 481, 2487, 3266,
    5633, 488, 3373, 6441, 3344, 17, 15105, 1490, 4154, 2036, 1882, 1813,
    467, 3307, 14042, 6371, 658, 1005, 903, 737, 1887, 7447, 1888, 2848,
    1784, 7559, 3400, 951, 13969, 4304, 177, 41, 19875, 3110, 13221, 8726,
    571, 7043, 6943, 1199, 352, 6435, 165, 1169, 3315, 978, 233, 3003, 2562,
    2994, 10587, 10030, 2377, 1902, 5354, 4447, 1555, 263, 27027, 2283, 305,
    669, 1912, 601, 6186, 429, 1930, 14873, 1784, 1661, 524, 3577, 236,
    2360, 6146, 2850, 55637, 1753, 4178, 8466, 222, 2579, 2743, 2031, 2226,
    2276, 374, 2132, 813, 23788, 1610, 4422, 5159, 1725, 3597, 3366, 14336,
    579, 165, 1375, 10018, 12616, 9816, 1371, 536, 1867, 10864, 857, 2206,
    5788, 434, 8085, 17618, 727, 3639, 1595, 4944, 2129, 2029, 8195, 8344,
    6232, 9183, 8126, 1870, 3296, 7455, 8947, 25017, 541, 19115, 368, 566,
    5674, 411, 522, 1027, 8215, 2050, 6544, 10049, 614, 774, 2333, 3007,
    35201, 4706, 1152, 1785, 1028, 1540, 3743, 493, 4474, 2521, 26845, 8354,
    864, 18915, 5465, 2447, 42, 4511, 1660, 166, 1249, 6259, 2553, 304, 272,
    7286, 73, 6554, 899, 2816, 5197, 13330, 7054, 2818, 3199, 811, 922, 350,
    7514, 4452, 3449, 2663, 4708, 418, 1621, 1171, 3471, 88, 11345, 412,
    1559, 194
)


class FactorizationError(ValueError):
    """Raised when an input exceeds the configured factorization workload;
    a ValueError, so the CLI reports it as a domain error (exit 2)."""


class _Infinity:
    """The +infinity marker used for v_p(0); orders above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("negative infinity is not used here")


INFINITY = _Infinity()


_set = object.__setattr__


class Record:
    """Base of the library's immutable value classes.  A subclass names its
    fields in __slots__, and its __init__ checks its arguments and then
    sets each field exactly once through `_set` (object.__setattr__),
    unless the subclass names another constructor.  Assignment raises
    AttributeError.  Equality and hashing go by the fields, between
    instances of one class, unless the subclass says otherwise; repr reads
    "Name(field=value, ...)"; pickle and copy rebuild an instance through
    __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__slots__
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


# ---------------------------------------------------------------------------
# primality and factorization

def is_probable_prime(n: int) -> bool:
    """Whether n is prime.  Below psi_13 ~ 3.3e24 the answer is proved:
    trial division by 2..47 decides n < 2809, Miller-Rabin on one hashed
    base (_MR_BASES_32) n < 2^32, and then on the bases of n's row of
    _MR_TIERS (3 bases below 350269456337, then 4, 5, 6 and 7 to 2^64, then
    12 or 13).  Above psi_13 it is Baillie-PSW (the 13 bases, then a strong
    Lucas test with Selfridge's parameters): no composite is known to pass,
    but none is ruled out."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 2809:
        return True
    if n < 2**32:
        h = ((n >> 16) ^ n) * 0x45d9f3b
        h = ((h >> 16) ^ h) * 0x45d9f3b
        bases = (_MR_BASES_32[((h >> 16) ^ h) & 255],)
    else:
        tier = bisect.bisect_right(_MR_TIERS, n, key=itemgetter(0))
        bases = _MR_TIERS[min(tier, len(_MR_TIERS) - 1)][1]
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a < 2:
            continue  # 0 and 1 are no witnesses: the base passes
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_TIERS[-1][0] or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """The strong Lucas probable-prime test on an odd n > 2 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie & Wagstaff, Math. Comp. 35, 1980).  With
    n + 1 = d 2^s, n passes when U_d = 0 or V_(d 2^r) = 0 (mod n) for some
    0 <= r < s."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False  # D shares a proper factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x if x % 2 == 0 else x + n) // 2 % n

    # binary ladder on d: (U_k, V_k, Q^k) -> (U_2k, V_2k, Q^2k), and with a
    # set bit on to (U_2k+1, V_2k+1, Q^2k+1), from U_1 = 1, V_1 = P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class Prime(int):
    """A certified prime: an int whose only added meaning is that the sieve
    or is_probable_prime passed it (a proof below psi_13 ~ 3.3e24, BPSW above).

    Prime(n) returns n itself when n is already a Prime, reads a plain int
    0 <= n <= _MID_PRIME_LIMIT from the sieve's _PRIME_TABLE, refuses n >=
    2^PRIME_BITS_BOUND untested, and otherwise tests it once; it raises
    ValueError if n is not prime.  It prints,
    hashes and compares like the int; arithmetic on it returns plain ints,
    so no product of primes is ever taken for one."""

    __slots__ = ()

    def __new__(cls, n):
        if type(n) is Prime:
            return n
        if type(n) is int and 0 <= n <= _MID_PRIME_LIMIT:
            if n in _PRIME_TABLE:
                return _PRIME_TABLE[n]
        elif isinstance(n, int) and n > 0 and n.bit_length() > PRIME_BITS_BOUND:
            raise ValueError(f"a prime candidate of {n.bit_length()} bits exceeds the "
                             f"primality workload bound of 2^{PRIME_BITS_BOUND}")
        elif isinstance(n, int) and is_probable_prime(n):
            return int.__new__(cls, n)
        raise ValueError(f"{n} is not prime")

    def __reduce__(self):
        return Prime, (int(self),)


def odd_prime(p: int) -> Prime:
    """Prime(p), refusing p = 2 as well."""
    p = Prime(p)
    if p == 2:
        raise ValueError("2 is not an odd prime")
    return p


#: Each prime up to _MID_PRIME_LIMIT as a Prime, for the factor core.
_PRIME_TABLE = {p: int.__new__(Prime, p) for p in _PRIMES_TO_MID}


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # the sign of a factor leaves gcd(q, n) as it is
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise FactorizationError(f"rho failed to split {n}")  # pragma: no cover


class Factorization(Record):
    """sign * prod(p^e) with primes strictly increasing; reconstructs input."""

    __slots__ = ("sign", "factors")

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        primes = [p for p, _ in factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(e < 1 for _, e in factors):
            raise ValueError("exponents must be >= 1")
        _set(self, "sign", sign)
        _set(self, "factors", factors)

    def vp(self, p: int) -> int:
        return dict(self.factors).get(p, 0)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)


def _divide_out(n: int, g: int, primes, found: dict[Prime, int]) -> int:
    """n with every copy of each prime of g divided out, each recorded in
    found with its exponent; g is a squarefree divisor of n whose primes
    lie in primes, an ascending tuple."""
    for p in primes:
        if g == 1:
            break
        if p * p > g:
            p = g  # the primes of g are all >= p, so g is one of them
        elif g % p:
            continue
        g //= p
        n //= p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        found[_PRIME_TABLE[p]] = e
    return n


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method on ints from above."""
    r = 1 << -(-m.bit_length() // k)
    while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
        r = s
    return r


def _factor_dict(n: int) -> dict[Prime, int]:
    """{p: v_p(n)} for an integer n >= 1, in no particular order.

    The gcd of n with the product of the primes <= TRIAL_DIVISION_LIMIT
    names the small primes of n, and only those are divided out.  What is
    left, and every part split off it, has no prime factor <=
    TRIAL_DIVISION_LIMIT, so one below TRIAL_DIVISION_LIMIT^2 is prime by
    construction (the least such composite is 1009^2 = 1018081 > 10^6): a
    cofactor that small is recorded at once.  Larger ones are certified
    once by is_probable_prime; one it calls composite has its mid primes
    (<= _MID_PRIME_LIMIT), named by one gcd, divided out the same way, and
    only one with none goes on.  Such a part m has no prime factor <=
    _MID_PRIME_LIMIT, so it is a perfect k-th power only for k <= log m /
    log _MID_PRIME_LIMIT; one that is, for a prime k, has its root factored
    once by a call of its own (which certifies a root past
    TRIAL_DIVISION_LIMIT^2), each exponent counted k times, and one that is
    not goes to Pollard rho (10007 * 10009 is its least input).  Every part
    split off after that has no prime factor <= _MID_PRIME_LIMIT, so one
    below _MID_PRIME_LIMIT^2 is prime by construction too.  The keys are
    Primes; the loops run on plain ints."""
    found: dict[Prime, int] = {}
    n = _divide_out(n, math.gcd(n, _SMALL_PRIMORIAL), _SMALL_PRIMES, found)
    if n < TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT:
        if n > 1:
            found[int.__new__(Prime, n)] = 1
        return found
    stack = [n]
    prime_below = TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT
    while stack:
        m = stack.pop()
        if m < prime_below or is_probable_prime(m):
            found[int.__new__(Prime, m)] = found.get(m, 0) + 1
            continue
        prime_below = _MID_PRIME_LIMIT * _MID_PRIME_LIMIT
        g = math.gcd(m, _MID_PRIMORIAL)
        if g == 1:
            for k in _SMALL_PRIMES:
                if _MID_PRIME_LIMIT**k > m:
                    d = _pollard_rho(m)
                    stack += (d, m // d)
                    break
                r = math.isqrt(m) if k == 2 else _iroot(m, k)
                if r**k == m:
                    for q, e in _factor_dict(r).items():
                        found[q] = found.get(q, 0) + k * e
                    break
        else:
            m = _divide_out(m, g, _MID_PRIMES, found)
            if m > 1:
                stack.append(m)
    return found


def factorize(n: int) -> Factorization:
    """Full prime factorization of a nonzero integer, read from
    rational_factor_exponents: trial division by the primes up to
    TRIAL_DIVISION_LIMIT, then the mid primes and Pollard rho on the
    composites that survive, every prime certified once, as a Prime."""
    if n == 0:
        raise ValueError("cannot factor 0")
    return Factorization(*rational_factor_exponents(n))


def check_factor_bound(x: Rat) -> None:
    """Refuse, with FactorizationError, an int or Fraction x whose numerator
    or denominator exceeds DEFAULT_FACTOR_BOUND: the workload bound of the
    factor core, _exponent_dict, which callers that factor the parts of x
    apart check on x itself."""
    if abs(x.numerator) > DEFAULT_FACTOR_BOUND or x.denominator > DEFAULT_FACTOR_BOUND:
        raise FactorizationError(f"|n| exceeds workload bound {DEFAULT_FACTOR_BOUND}")


def _exponent_dict(x: Rat) -> dict[Prime, int]:
    """{p: v_p(x)} for a nonzero int or Fraction x, exponents signed: the
    factor core.  x is in lowest terms, so its numerator and denominator
    share no prime; each is factored once, a denominator of 1 not at all."""
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("x must be nonzero")
    check_factor_bound(x)
    exps = _factor_dict(abs(num))
    if den != 1:
        for p, e in _factor_dict(den).items():
            exps[p] = -e
    return exps


def rational_factor_exponents(x: Rat) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(sign, ((p, v_p(x)), ...)) for nonzero rational x, exponents signed
    and primes increasing: _exponent_dict's, sorted."""
    return (1 if x.numerator > 0 else -1), tuple(sorted(_exponent_dict(x).items()))


# ---------------------------------------------------------------------------
# places, valuations, absolute values

class Place(Record):
    """A place of Q: the archimedean place or a finite prime, held as a
    Prime, certified once: Place.finite sets the fields with no __init__,
    taking a Prime as it is.  A place hashes by its prime (None at inf)."""

    __slots__ = ("kind", "prime")

    def __init__(self, kind: str, prime: int | None = None):
        if kind == "finite":
            prime = Prime(prime)
        elif kind != "archimedean":
            raise ValueError(f"unknown place kind {kind!r}")
        elif prime is not None:
            raise ValueError("archimedean place carries no prime")
        _set(self, "kind", kind)  # "archimedean" | "finite"
        _set(self, "prime", prime)

    @classmethod
    def infinity(cls) -> "Place":
        return cls("archimedean")

    @classmethod
    def finite(cls, p: int) -> "Place":
        place = object.__new__(cls)
        _set(place, "kind", "finite")
        _set(place, "prime", p if type(p) is Prime else Prime(p))
        return place

    @classmethod
    def parse(cls, v: "PlaceLike") -> "Place":
        """v if a Place, an int's finite place, or text: "inf" or a prime."""
        if isinstance(v, Place):
            return v
        if isinstance(v, int):
            return cls.finite(v)
        if v in ("inf", "infinity", "oo"):
            return cls.infinity()
        try:
            p = int(v)
        except ValueError:
            raise ValueError(f"place must be 'inf' or a prime, got {v!r}")
        return cls.finite(p)

    @property
    def is_infinite(self) -> bool:
        return self.kind == "archimedean"

    def _sort_key(self) -> int:
        return -1 if self.prime is None else self.prime  # infinity sorts first

    def __lt__(self, other: "Place") -> bool:
        return self._sort_key() < other._sort_key()

    def __hash__(self):
        return hash(self.prime)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.prime)

    def json_value(self):
        return "inf" if self.is_infinite else self.prime


PlaceLike = Place | int | str

INF_PLACE = Place.infinity()
#: The place at 2, which every symbol vector and root-number product visits.
TWO_PLACE = Place.finite(_PRIME_TABLE[2])


def int_valuation(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) with v = v_p(n), for a nonzero integer n, in O(log v)
    divisions: square p until p^(2^k) no longer divides n, so v < 2^k, then
    divide out p^(2^i) for i = k-1, ..., 0 wherever it still divides."""
    if p < 2:
        raise ValueError(f"valuations need a base p >= 2, got {p}")
    if n % p:
        return 0, n
    powers = [p]
    while n % powers[-1] == 0:
        powers.append(powers[-1] * powers[-1])
    v = 0
    for i in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[i])
        if r == 0:
            n = q
            v += 1 << i
    return v, n


def vp(x: Rat, p: int):
    """The p-adic valuation, local_unit's; INFINITY for x = 0."""
    p = Prime(p)
    return INFINITY if x.numerator == 0 else local_unit(x, p, 1)[0]


def vp_split(x: Rat, p: int):
    """x = p^r * u with u prime to p: returns (r, u), or INFINITY for x = 0."""
    r = vp(x, p)
    return INFINITY if r is INFINITY else (r, Fraction(x) / Fraction(p) ** r)


def local_unit(x: Rat, p: int, m: int) -> tuple[int, int]:
    """(v, u mod m) for a nonzero int or Fraction x = p^v u, u a p-adic
    unit: the one reduction at p, read by every local symbol, square class,
    p-adic element and fractional part.  p divides x's numerator or its
    denominator, never both, and int_valuation returns v and the rest of
    it.  m is a power of p, or 8 or 8p, where an even denominator raises
    ValueError."""
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("x must be nonzero")
    v, num = int_valuation(num, p)
    if not v:
        v, den = int_valuation(den, p)
        v = -v
    return v, num * pow(den, -1, m) % m


def abs_place(x: Rat, v: Place) -> Fraction:
    """|x|_v, exact: p^{-v_p(x)} at finite places, sup(x,-x) at infinity."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    if v.is_infinite:
        return abs(x)
    return Fraction(v.prime) ** (-vp(x, v.prime))


def norm_product_check(x: Rat) -> bool:
    """Exactly verify |x|_inf * prod_p |x|_p = 1 (primes from factorize)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    prod = abs(x)
    _, exps = rational_factor_exponents(x)
    for p, e in exps:
        prod *= Fraction(p) ** (-e)
    return prod == 1


# ---------------------------------------------------------------------------
# modular square roots

@functools.lru_cache(maxsize=32, typed=True)
def smallest_nonresidue(p: int) -> int:
    """The least positive non-residue modulo the odd prime p, by Jacobi
    symbols, which are Legendre symbols at a prime.  Cached for the last 32
    primes, so a root mod p searches once per p; typed, so 1009.0 is refused."""
    p = odd_prime(p)
    u = 2
    while _jacobi(u, p) == 1:
        u += 1
    return u


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Square root of a mod an odd prime p, normalized into (0, (p-1)/2];
    None if a is a non-residue.  a must be prime to p.

    No separate Euler test: a non-residue shows in the root.  For p = 5
    (mod 8), Atkin's r = a v (i - 1), v = (2a)^((p-5)/8), i = 2 a v^2,
    and r^2 = a fails; Tonelli-Shanks would add a full-size z^q there,
    about 3% of conic-descent's ops/s.  Otherwise Tonelli-Shanks (Cohen,
    Alg. 1.5.1) with p - 1 = q 2^s, from r = a^((q+1)/2) and t = a^q: a
    is a non-residue exactly when t has order 2^s.  At s = 1 (p = 3 mod
    4) that is r = a^((p+1)/4) and Euler's criterion t = a^((p-1)/2); a
    taller tower takes c = z^q, z = smallest_nonresidue(p), once t != 1."""
    p = odd_prime(p)
    a %= p
    if a == 0:
        raise ValueError("a must be prime to p")
    if p % 8 == 5:
        v = pow(2 * a, (p - 5) // 8, p)
        r = a * v * (2 * a * v * v - 1) % p
        return min(r, p - r) if r * r % p == a else None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    w = pow(a, (q - 1) // 2, p)
    r = a * w % p
    t = r * w % p
    m, c = s, None
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            return None  # t of order 2^s: a^((p-1)/2) = -1
        if c is None:
            c = pow(smallest_nonresidue(p), q, p)
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return min(r, p - r)


def unit_sqrt(u: int, p: int, k: int) -> int | None:
    """The normalized square root of the unit residue u mod p^k, or None
    when u is not a square in Z_p; p is a Prime, and k >= 3 at p = 2.
    At odd p the root is taken mod p^k, its first digit in [1, (p-1)/2]
    like its seed's from sqrt_mod_prime.  At 2 the roots mod 2^k are +-r
    and +-r + 2^(k-1): the root is taken mod 2^(k-1), = 1 (mod 4) as seed 1.

    T^2 - u is lifted on _lift_schedule(p, k + d, d, m), with d = v_p(2x)
    and m <= v_p(x^2 - u) known at the seed: d, m = 0, 1 at odd p and 1, 3
    at 2, so every step keeps x mod p^(m-d), the seed's sign; as d > 0
    only at 2, the shifts by d divide by p^d."""
    x, d, m = (1 if u % 8 == 1 else None, 1, 3) if p == 2 else (sqrt_mod_prime(u, p), 0, 1)
    if x is None:
        return None
    mod, steps, top = _lift_schedule(p, k + d, d, m)
    s = pow((2 * x) >> d, -1, mod)
    for mod_s, mod_x in steps:
        x = (x - ((x * x - u) >> d) * s) % mod_x
        s = s * (2 - ((2 * x) >> d) * s) % mod_s
    return (x - ((x * x - u) >> d) * s) % top


@functools.lru_cache(maxsize=32)
def _lift_schedule(p: int, t: int, d: int, m: int) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """The moduli of a Newton lift of a root x of f to f(x) = 0 (mod p^t),
    from a seed with d = v_p(f'(x)) and 2d < m <= v_p(f(x)): p^(t0-2d), in
    which the inverse of f'(x)/p^d is taken once; the pair (p^(r-2d), p^r)
    of every step but the last, in order; and the top modulus p^(t-2d).
    padic.hensel_lift and unit_sqrt both run on it.

    Newton iteration with the precisions fixed from the top down (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 9; Brent & Zimmermann,
    Modern Computer Arithmetic, 4.2).  A step from a lower bound m on
    v_p(f(x)) reaches 2(m - d), so the least m that reaches a target r is
    ceil(r/2) + d.  The targets are r = t, then r <- ceil(r/2) + d while r
    exceeds m; the lift runs them upward from t0, the last r <= m.  Each
    precision is the least that the next one allows, so only the last step
    works at full size, and the steps are as few as doubling from m takes.

    The step from m toward r is x <- x - (f(x)/p^d) s mod p^r, with w =
    f'(x)/p^d a unit and s = 1/w (mod p^(m-2d)).  The error in s leaves
    f(x)(1 - w s) in f(x), of valuation >= m + (m - 2d) = 2(m - d) >= r:
    no worse than the Taylor remainder h^2, v_p(h) >= m - d.  w is
    inverted once, at the seed; as x moves by multiples of p^(m-d), w
    moves by multiples of p^(m-2d), so the old s is still good to m - 2d
    digits, and one Newton step s <- s(2 - w s) mod p^(r-2d) doubles that
    to 2(m - 2d) >= r - 2d: the digits that the step from r needs.  A
    step's moduli are that one power p^(r-2d) and it times p^(2d); the
    last step only reduces its x, mod p^(t-d) in hensel_lift and mod the
    top modulus in unit_sqrt, whose u is known only mod p^(t-d).

    One schedule holds ~3 log2(p^t) bits, 1.2-1.6 kB at the 2^1024 p-adic
    bound, and the 32 entries hold under 50 kB there."""
    targets, r = [], t
    while r > m:
        targets.append(r)
        r = (r + 1) // 2 + d
    steps = tuple((p ** (n - 2 * d), p**n) for n in reversed(targets[1:]))
    return p ** (r - 2 * d), steps, p ** (t - 2 * d)


def _sqrt_mod_squarefree_general(a: int, b: int, primes, root: int | None = None) -> int | None:
    """Smallest d in [0, |b|/2] with d^2 = a (mod b), b squarefree with the
    given primes; shared primes allowed (p | gcd(a,b) forces d = 0 mod p).
    None if impossible.  A caller that already holds some root, root^2 = a
    (mod b), passes it, and no prime needs sqrt_mod_prime.

    One prime, b = +-p, returns at once (a mod p when p = 2 or p | a, else
    the folded root), with no CRT basis.  With more, each prime p
    contributes t_p = r_p (b/p) ((b/p)^-1 mod p), the CRT basis element
    that is r_p mod p and 0 mod the other primes, so the roots mod b are
    the sums of +-t_p.  d and -d fold to the same value, so the first t_p
    with two signs keeps its sign.  More than ROOT_SEARCH_BOUND primes with
    two roots raise ValueError before any sum is formed."""
    b = abs(b)
    if len(primes) == 1:
        p = primes[0]
        if p == 2 or a % p == 0:
            return a % p
        if root is not None:
            r = root % p
            return min(r, p - r)
        return sqrt_mod_prime(a, p)
    fixed, signed = 0, []
    for p in primes:
        if p == 2:
            r = a % 2
        elif a % p == 0:
            r = 0
        elif root is not None:
            r = root % p  # either root mod p: the folded +-sums are the same
        else:
            r = sqrt_mod_prime(a, p)
            if r is None:
                return None
        q = b // p
        t = r * q * pow(q, -1, p)
        if r == -r % p:  # one root mod p (p = 2 or r = 0): no sign to choose
            fixed += t
        else:
            signed.append(t)
    if len(signed) > ROOT_SEARCH_BOUND:
        raise ValueError(f"{len(signed)} primes with two square roots exceed the "
                         f"root-search workload bound {ROOT_SEARCH_BOUND}")
    sums = [fixed + sum(signed[:1])]
    for t in signed[1:]:
        sums = [s + t for s in sums] + [s - t for s in sums]
    half = least = b // 2
    for s in sums:
        d = s % b
        if d > half:
            d = b - d
        if d < least:
            least = d
    return least


def sqrt_mod_squarefree(a: int, b: int) -> int | None:
    """Square root of a modulo a squarefree b with |b| > 1, gcd(a,b) = 1,
    returned as the smallest d in [0, |b|/2]; None when no root exists."""
    fac = factorize(b) if abs(b) > 1 else None
    if fac is None or not fac.is_squarefree():
        raise ValueError(f"{b} is not squarefree with |b| > 1")
    if math.gcd(a, b) != 1:
        raise ValueError("gcd(a, b) must be 1")
    return _sqrt_mod_squarefree_general(a, b, [p for p, _ in fac])


# ---------------------------------------------------------------------------
# small shared helpers

def unit_residue(x: Rat, m: int) -> int:
    """The residue mod m of the rational x, whose numerator and denominator
    must be prime to m: the plain "x mod m" of eps4, eps8 and the 2-adic
    witness cases.  The residue of the p-adic unit part of x is local_unit's."""
    num, den = x.numerator, x.denominator
    if math.gcd(den, m) != 1 or math.gcd(num, m) != 1:
        raise ValueError(f"{x} is not a unit modulo {m}")
    return num * pow(den, -1, m) % m


def is_rational_square(x: Rat) -> Fraction | None:
    """The nonnegative exact square root of x if x is a rational square."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _squarefree_core(sign: int, exps) -> tuple[int, int, int, list[int]]:
    """(n, num, den, primes) with sign * prod p^e = n * (num/den)^2 over
    the pairs (p, e), e signed, n squarefree and primes those of n: the one
    squarefree split, on plain ints."""
    n, num, den, primes = sign, 1, 1, []
    for p, e in exps:
        if e % 2:
            n *= p
            primes.append(p)
        h = e // 2
        if h > 0:
            num *= p**h
        elif h < 0:
            den *= p**-h
    return n, num, den, primes
