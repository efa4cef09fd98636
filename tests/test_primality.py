"""is_probable_prime: Miller-Rabin with as many prime bases as the size of n
needs (a proof below psi_13), and Baillie-PSW above psi_13.  The tiered
test is pinned to the fixed 13-base test it replaced and to sympy, and the
strong Lucas half of BPSW to its known pseudoprimes."""

import math
import random

import pytest

from qrlab import rational
from qrlab.rational import _MR_BASES, _MR_PSI, _is_strong_lucas_prp, factorize, is_probable_prime

PSI_13 = 3317044064679887385961981  # least strong pseudoprime to the bases 2..41


def _thirteen_base_test(n: int) -> bool:
    """Miller-Rabin on all 13 prime bases 2..41 whatever the size of n: the
    test before the bases were tiered, a proof of primality below psi_13."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _strong_pseudoprime(n: int, bases) -> bool:
    """Whether the odd composite n passes the strong test to every base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        if all(pow(x, 2**r, n) != n - 1 for r in range(1, s)):
            return False
    return True


def test_psi_table_is_the_strong_pseudoprime_table():
    # psi_t passes the first t bases, so t bases cannot certify it; the
    # table is nondecreasing and psi_13 is the product quoted in the docs
    assert len(_MR_PSI) == len(_MR_BASES) == 13
    assert list(_MR_PSI) == sorted(_MR_PSI)
    for t, psi in enumerate(_MR_PSI, 1):
        assert _strong_pseudoprime(psi, _MR_BASES[:t]), t
    assert _MR_PSI[-1] == PSI_13 == 1287836182261 * 2575672364521


def test_each_psi_is_composite_and_the_primes_below_it_are_found():
    for t, psi in enumerate(_MR_PSI, 1):
        assert not is_probable_prime(psi), t
        # every n from psi - 1 (even) and psi - 2 down to the nearest prime
        # below psi, against the 13-base test, which is a proof below psi_13
        n = psi - 1
        while True:
            assert is_probable_prime(n) == _thirteen_base_test(n), (t, n)
            if _thirteen_base_test(n):
                break
            n -= 1


def test_exhaustive_below_a_million_against_the_thirteen_base_test():
    tiered = [n for n in range(10**6) if is_probable_prime(n)]
    assert tiered == [n for n in range(10**6) if _thirteen_base_test(n)]
    assert len(tiered) == 78498


def test_psi_13_is_composite_past_every_base():
    # all 13 bases pass psi_13, so only the strong Lucas test exposes it
    assert _thirteen_base_test(PSI_13)
    assert not _is_strong_lucas_prp(PSI_13)
    assert not is_probable_prime(PSI_13)


def test_factorize_psi_13():
    assert factorize(PSI_13).factors == ((1287836182261, 1), (2575672364521, 1))


def test_lucas_runs_only_above_psi_13(monkeypatch):
    calls = []
    real = rational._is_strong_lucas_prp
    monkeypatch.setattr(rational, "_is_strong_lucas_prp", lambda n: calls.append(n) or real(n))
    below = PSI_13 - 2
    while not _thirteen_base_test(below):
        below -= 2
    assert is_probable_prime(2**61 - 1) and is_probable_prime(below)
    assert calls == []
    q = 2**89 - 1  # a Mersenne prime above psi_13
    assert is_probable_prime(q)
    assert calls == [q]


# the composites below 2*10^5 that pass the strong Lucas test with
# Selfridge's parameters (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077,
    97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027, 162133,
    176399, 176471, 189419, 192509, 197801,
)


def test_strong_lucas_passes_primes_and_exactly_the_known_pseudoprimes():
    primes = {n for n in range(3, 2 * 10**5, 2) if _thirteen_base_test(n)}
    passing = {n for n in range(3, 2 * 10**5, 2) if _is_strong_lucas_prp(n)}
    assert passing - primes == set(STRONG_LUCAS_PSEUDOPRIMES)
    assert primes <= passing


def test_strong_lucas_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.primetest import is_strong_lucas_prp

    rng = random.Random(1980)
    for bits in (40, 64, 82, 96, 128):
        for _ in range(100):
            n = rng.randrange(2 ** (bits - 1), 2**bits) | 1
            assert _is_strong_lucas_prp(n) == is_strong_lucas_prp(n), n
        p = sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits))
        assert _is_strong_lucas_prp(p)


def test_tiers_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1993)
    # one range per tier, with psi_0 = 3, and two past psi_13
    edges = (3,) + _MR_PSI + (2**96, 2**128)
    for lo, hi in zip(edges, edges[1:]):
        if lo == hi:
            continue
        for _ in range(60):
            n = rng.randrange(lo, hi)
            assert is_probable_prime(n) == sympy.isprime(n), n
        for _ in range(5):
            p = sympy.prevprime(rng.randrange(lo + 3, hi))
            assert is_probable_prime(p), p
            # a product of two neighbouring primes: no small factor to find
            q = sympy.nextprime(math.isqrt(rng.randrange(lo, hi)))
            r = sympy.nextprime(q)
            assert not is_probable_prime(q * r), (q, r)
