"""Exact integer/rational substrate: factorization, valuations, absolute
values at every place, and modular square roots.

All functions are pure; rationals are `fractions.Fraction` (always in lowest
terms with positive denominator, which is exactly the representation contract
the rest of the library relies on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

Rat = Union[int, Fraction]

#: Workload ceiling for factorize(); inputs with |n| above this are refused.
DEFAULT_FACTOR_BOUND = 2**96

#: Trial-division ceiling; Pollard rho splits whatever survives it.
TRIAL_DIVISION_LIMIT = 10**3

# Miller-Rabin with the first 13 primes as bases is a proof of primality
# below psi_13 = 3317044064679887385961981 (Sorenson & Webster); above it the
# same bases make a standard strong pseudoprime test, which is all the
# library promises there.  The first 12 alone stop at
# psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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


# ---------------------------------------------------------------------------
# primality and factorization

def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below psi_13 ~ 3.3e24 (13 prime bases),
    strong-base test above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
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
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorizationError(f"rho failed to split {n}")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p^e) with primes strictly increasing; reconstructs input."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def vp(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def radical(self) -> int:
        n = 1
        for p, _ in self.factors:
            n *= p
        return n

    def squarefree_part(self) -> int:
        """The squarefree integer n / (largest square divisor), keeping sign."""
        n = self.sign
        for p, e in self.factors:
            if e % 2:
                n *= p
        return n

    def square_divisor_root(self) -> int:
        """s with value = squarefree_part * s^2."""
        s = 1
        for p, e in self.factors:
            s *= p ** (e // 2)
        return s

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)


def _trial_divide(n: int, found: dict[int, int]) -> int:
    """Divide every prime up to TRIAL_DIVISION_LIMIT out of n > 0 into
    found and return the cofactor.  Candidates are 2, 3, then 6k +- 1; the
    scan stops early once c^2 > n, which leaves n equal to 1 or prime."""
    c = 2
    while c <= TRIAL_DIVISION_LIMIT and c * c <= n:
        if n % c == 0:
            e = 0
            while n % c == 0:
                n //= c
                e += 1
            found[c] = e
        c += 1 if c == 2 else 4 if c % 6 == 1 else 2
    return n


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> Factorization:
    """Full prime factorization: trial division to TRIAL_DIVISION_LIMIT, then
    Pollard rho on whatever survives, every prime certified once.

    Every cofactor left by trial division, and every part rho splits off
    it, has no prime factor <= TRIAL_DIVISION_LIMIT, so one below
    TRIAL_DIVISION_LIMIT^2 is prime by construction and needs no
    Miller-Rabin."""
    if n == 0:
        raise ValueError("cannot factor 0")
    if abs(n) > bound:
        raise FactorizationError(f"|n| exceeds workload bound {bound}")
    found: dict[int, int] = {}
    stack = [_trial_divide(abs(n), found)]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT or is_probable_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(1 if n > 0 else -1, tuple(sorted(found.items())))


def rational_factor_exponents(x: Rat) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(sign, ((p, v_p(x)), ...)) for nonzero rational x; exponents signed."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    num = factorize(x.numerator if x > 0 else -x.numerator)
    den = factorize(x.denominator)
    exps = dict(num.factors)
    for p, e in den.factors:
        exps[p] = exps.get(p, 0) - e
    sign = 1 if x > 0 else -1
    return sign, tuple(sorted((p, e) for p, e in exps.items() if e))


# ---------------------------------------------------------------------------
# places, valuations, absolute values

@dataclass(frozen=True, order=False)
class Place:
    """A place of Q: the archimedean place or a (certified) finite prime."""

    kind: str  # "archimedean" | "finite"
    prime: Optional[int] = None

    def __post_init__(self):
        if self.kind == "archimedean":
            if self.prime is not None:
                raise ValueError("archimedean place carries no prime")
        elif self.kind == "finite":
            if self.prime is None or not is_probable_prime(self.prime):
                raise ValueError(f"{self.prime} is not prime")
        else:
            raise ValueError(f"unknown place kind {self.kind!r}")

    @classmethod
    def infinity(cls) -> "Place":
        return cls("archimedean")

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls("finite", p)

    @classmethod
    def parse(cls, text: str) -> "Place":
        if text in ("inf", "infinity", "oo"):
            return cls.infinity()
        try:
            p = int(text)
        except ValueError:
            raise ValueError(f"place must be 'inf' or a prime, got {text!r}")
        return cls.finite(p)

    @property
    def is_infinite(self) -> bool:
        return self.kind == "archimedean"

    def _sort_key(self) -> int:
        return -1 if self.is_infinite else self.prime  # infinity sorts first

    def __lt__(self, other: "Place") -> bool:
        return self._sort_key() < other._sort_key()

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.prime)

    def json_value(self):
        return "inf" if self.is_infinite else self.prime


INF_PLACE = Place.infinity()


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


def vp_split(x: Rat, p: int):
    """x = p^r * u with u prime to p: returns (r, u), or INFINITY for x = 0."""
    x = Fraction(x)
    if x == 0:
        return INFINITY
    r, num = int_valuation(x.numerator, p)
    if r:
        return r, Fraction(num, x.denominator)
    r, den = int_valuation(x.denominator, p)
    return -r, Fraction(num, den)


def vp(x: Rat, p: int):
    """The p-adic valuation; INFINITY for x = 0."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x == 0:
        return INFINITY
    r = int_valuation(x.numerator, p)[0]
    return r if r else -int_valuation(x.denominator, p)[0]


def abs_place(x: Rat, v: Place) -> Fraction:
    """|x|_v, exact: p^{-v_p(x)} at finite places, sup(x,-x) at infinity."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    if v.is_infinite:
        return abs(x)
    r, _ = vp_split(x, v.prime)
    return Fraction(v.prime) ** (-r)


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

def sqrt_mod_prime(a: int, p: int) -> Optional[int]:
    """Square root of a mod an odd prime p, normalized into (0, (p-1)/2];
    None if a is a non-residue.  a must be prime to p."""
    if p == 2 or not is_probable_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        raise ValueError("a must be prime to p")
    return _sqrt_mod_odd_prime(a, p)


def _sqrt_mod_odd_prime(a: int, p: int) -> Optional[int]:
    """sqrt_mod_prime for a caller that already holds an odd prime p (from
    factorize, or from a PAdicElement) and a residue a in [1, p): Euler's
    criterion, then Tonelli-Shanks, with no primality test."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks: write p-1 = q*2^s, descend through the 2-Sylow tower.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            t = t * b * b % p
            c = b * b % p
            m = i
    assert r * r % p == a
    return min(r, p - r)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue mod m1*m2 matching r1 mod m1 and r2 mod m2 (coprime moduli)."""
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return (r1 + m1 * t) % (m1 * m2)


def _sqrt_mod_squarefree_general(a: int, b: int, primes) -> Optional[int]:
    """Smallest d in [0, |b|/2] with d^2 = a (mod b), b squarefree with the
    given primes; shared primes allowed (p | gcd(a,b) forces d = 0 mod p).
    None if impossible."""
    b = abs(b)
    residues = [(0, 1)]
    for p in primes:
        if p == 2:
            roots = [a % 2]
        elif a % p == 0:
            roots = [0]
        else:
            r = _sqrt_mod_odd_prime(a % p, p)
            if r is None:
                return None
            roots = [r, p - r] if r != p - r else [r]
        residues = [(crt_pair(d, m, r, p), m * p) for d, m in residues for r in roots]
    candidates = []
    for d, m in residues:
        assert m == b
        d %= b
        if 2 * d > b:
            d = b - d
        candidates.append(d)
    return min(candidates)


def sqrt_mod_squarefree(a: int, b: int) -> Optional[int]:
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

def unit_residue(x: Rat, m: int, p: int = 1, v: int = 0) -> int:
    """The residue mod m of the rational u = x / p^v, whose numerator and
    denominator must be prime to m.  By default u = x; a caller holding
    v = v_p(x) from a factorization gets the residue of x's p-adic unit
    part without building it as a Fraction."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    if v > 0:
        num //= p**v
    elif v < 0:
        den //= p**-v
    if math.gcd(den, m) != 1 or math.gcd(num, m) != 1:
        raise ValueError(f"{x} is not a unit modulo {m}")
    return num * pow(den, -1, m) % m


def is_rational_square(x: Rat) -> Optional[Fraction]:
    """The nonnegative exact square root of x if x is a rational square."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def squarefree_from_exponents(sign: int, exps) -> tuple[int, Fraction]:
    """(n, s) with sign * prod p^e = n * s^2, n a squarefree integer and
    s > 0 rational, from the signed exponents of rational_factor_exponents."""
    n, s = sign, Fraction(1)
    for p, e in exps:
        if e % 2:
            n *= p
        s *= Fraction(p) ** (e // 2)
    return n, s


def squarefree_split(x: Rat) -> tuple[int, Fraction]:
    """x = n * s^2 with n a squarefree integer and s > 0 rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    return squarefree_from_exponents(*rational_factor_exponents(x))
