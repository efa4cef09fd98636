"""is_probable_prime: trial division by 2..47, Miller-Rabin with as many
bases as the size of n needs, and Baillie-PSW above psi_13.  Below 53^2 =
2809 an n prime to 2..47 is prime; from 2809 to 2^32 it runs one strong
test to a hashed base, rational._MR_BASES_32 (Forisek & Jancina's table, as
sympy's isprime holds it).  From 2^32 one table, rational._MR_TIERS, gives
the bases of each n: to 2^64 the least proven set of n's band, 3 to 7
bases (the sets sympy's isprime uses), and then the first t primes, t the
least with n < psi_t (Jaeschke's table, kept here as reference data).  The
test is pinned to the fixed 13-base test it replaced, which proves
primality below psi_13, and to sympy; the hashed band to a sieve on every
candidate below 65077, where sympy's band begins, to sympy on 10^5 seeded
n, at its edges and on its strong pseudoprimes and Carmichael numbers; the
number of bases per band is pinned by counting exponentiations; the strong
Lucas half of BPSW is pinned to its known pseudoprimes."""

import math
import random

import pytest

from oracles import primes_below
from qrlab import rational
from qrlab.rational import (
    _MR_BASES,
    _MR_BASES_32,
    _MR_TIERS,
    _is_strong_lucas_prp,
    factorize,
    is_probable_prime,
)

PSI_13 = 3317044064679887385961981  # least strong pseudoprime to the bases 2..41

#: Jaeschke's table (OEIS A014233): psi_t, the least strong pseudoprime to
#: the first t prime bases, t = 1..13
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, PSI_13,
)

#: The least base sets proven from 2^32 to 2^64, by the upper bound of
#: their bands, as sympy.ntheory.primetest.isprime lists them
MINIMAL_SETS = (
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851,
     (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977, (2, 123635709730000, 9233062284813009, 43835965440333360,
                          761179012939631437, 1263739024124850375)),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)


def _is_psi_row(bases) -> bool:
    """Whether a tier runs on the first t prime bases, as a psi_t row does."""
    return bases == _MR_BASES[: len(bases)]


#: The tier bounds; the bands of the minimal base sets, 2^32 to 2^64, with
#: their bases; and the psi_t inside the bands
BOUNDS = tuple(bound for bound, _ in _MR_TIERS)
MINIMAL_TIERS = tuple(((lo, hi), bases) for lo, (hi, bases) in zip((2**32, *BOUNDS), _MR_TIERS)
                      if not _is_psi_row(bases))
BANDS = tuple(band for band, _ in MINIMAL_TIERS)
PSI_IN_BANDS = (2152302898747, 3474749660383, 341550071728321, 3825123056546413051)


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
    assert len(PSI) == len(_MR_BASES) == 13
    assert list(PSI) == sorted(PSI)
    for t, psi in enumerate(PSI, 1):
        assert _strong_pseudoprime(psi, _MR_BASES[:t]), t
    assert PSI[-1] == PSI_13 == 1287836182261 * 2575672364521
    # the tiers from 2^32: bounds strictly increasing, the minimal rows the
    # proven sets, in the order of their bands, and each psi row (psi_t, the
    # first t bases) with psi_t a strong pseudoprime to them
    assert len(_MR_TIERS) == 7
    assert all(lo < hi for lo, hi in zip((2**32, *BOUNDS), BOUNDS))
    psi_rows = [(bound, bases) for bound, bases in _MR_TIERS if _is_psi_row(bases)]
    assert [len(bases) for _, bases in psi_rows] == [12, 13]
    for bound, bases in psi_rows:
        assert bound == PSI[len(bases) - 1], bound
        assert _strong_pseudoprime(bound, bases), bound
    assert _MR_TIERS[:5] == MINIMAL_SETS
    assert tuple((hi, bases) for (_, hi), bases in MINIMAL_TIERS) == MINIMAL_SETS


def test_each_psi_is_composite_and_the_primes_below_it_are_found():
    for t, psi in enumerate(PSI, 1):
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
    # one range per psi-table tier and per band, from psi_0 = 3, with the
    # ends of the hashed band, and two past psi_13
    edges = sorted({3, 2809, 2**32, *PSI, *BOUNDS, 2**96, 2**128})
    for lo, hi in zip(edges, edges[1:]):
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


def _next_prime(n: int) -> int:
    """The least prime >= n, for n below psi_13 (by the 13-base test)."""
    while not _thirteen_base_test(n):
        n += 1
    return n


def test_band_edges_against_the_thirteen_base_test():
    assert BANDS[0][0] == 2**32
    assert [hi for _, hi in BANDS] == [350269456337, 55245642489451, 7999252175582851,
                                       585226005592931977, 2**64]
    # 2809 = 53^2, below which trial division by 2..47 decides
    for edge in (2809, BANDS[0][0], *(hi for _, hi in BANDS)):
        for n in range(edge - 200, edge + 201):
            assert is_probable_prime(n) == _thirteen_base_test(n), n


def test_every_psi_in_the_bands_is_composite():
    # psi_4 .. psi_9 pass the first t primes as bases; the minimal sets must
    # still expose them
    assert PSI_IN_BANDS == tuple(sorted({psi for psi in PSI if BANDS[0][0] < psi < 2**64}))
    for psi in PSI_IN_BANDS:
        assert _strong_pseudoprime(psi, (2, 3, 5, 7))
        assert not is_probable_prime(psi), psi


def _divisors(m: int) -> list[int]:
    divisors = [1]
    for p, e in factorize(m).factors:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return divisors


def test_composites_that_skip_a_base_are_composite():
    # a base that is 0 or 1 mod n is no witness and is skipped, so a
    # composite n in a band that divides a or a - 1 meets one base fewer:
    # every such n past the trial divisors must still be exposed.  The
    # 3-base set is proven from psi_3, and the 6 such n from psi_3 to 2^32
    # meet the hashed base instead; they are checked too
    skipping = []
    for (lo, hi), bases in MINIMAL_TIERS:
        lo = PSI[2] if lo == 2**32 else lo
        for a in bases:
            for m in (a, a - 1):
                skipping += [n for n in _divisors(m) if lo <= n < hi
                             and all(n % p for p in _MR_BASES) and not _thirteen_base_test(n)]
    assert len(skipping) == 13 and sum(n < 2**32 for n in skipping) == 6
    for n in skipping:
        assert not is_probable_prime(n), n


def test_carmichael_numbers_and_semiprimes_in_each_band():
    # (6k+1)(12k+1)(18k+1) with three prime factors is a Carmichael number,
    # and p (2p-1) with both factors prime is a frequent strong pseudoprime
    # to base 2: three of each per band, each composite
    for lo, hi in BANDS:
        carmichael = []
        k = int((lo / 1296) ** (1 / 3))  # the product is about 1296 k^3
        while len(carmichael) < 3:
            factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            n = math.prod(factors)
            if lo <= n and all(map(_thirteen_base_test, factors)):
                carmichael.append(n)
            k += 1
        semiprimes = []
        p = math.isqrt(lo // 2)
        while len(semiprimes) < 3:
            p = _next_prime(p + 1)
            if lo <= p * (2 * p - 1) and _thirteen_base_test(2 * p - 1):
                semiprimes.append(p * (2 * p - 1))
        assert max(carmichael + semiprimes) < hi, (lo, hi)
        for n in carmichael + semiprimes:
            assert not is_probable_prime(n), n
            assert not _thirteen_base_test(n), n


def test_bases_per_band(monkeypatch):
    # one exponentiation per base: rational.pow shadows the builtin
    calls = []
    monkeypatch.setattr(rational, "pow", lambda *args: calls.append(args) or pow(*args),
                        raising=False)

    def cost(n: int) -> int:
        calls.clear()
        assert is_probable_prime(n), n
        return len(calls)

    # trial division decides the primes below 2809 with no base, so those
    # after 1000 and psi_1; the hashed band, from 2809 to 2^32, holds the
    # primes after psi_2 and psi_3 and runs one base on each; the psi-table
    # keeps 12 bases above 2^64
    assert [cost(_next_prime(n)) for n in (1000, PSI[0], PSI[1], 2**64)] == [0, 0, 1, 12]
    assert [cost(_next_prime(lo)) for lo, _ in BANDS] == [3, 4, 5, 6, 7]
    assert [cost(_next_prime(hi - 10**6)) for _, hi in BANDS] == [3, 4, 5, 6, 7]
    assert cost(_next_prime(2809)) == cost(_next_prime(2**32 - 10**6)) == 1
    assert cost(2803) == 0  # the largest prime below 2809
    # this prime divides the second base of the 3-base band, which would
    # skip that base, but it lies in the hashed band: one exponentiation
    assert 14694767155120705706 % 3709689913 == 0
    assert _thirteen_base_test(3709689913) and cost(3709689913) == 1


# ---------------------------------------------------------------------------
# the hashed band, 2809 <= n < 2^32: one strong test to _MR_BASES_32[h]


def _hash_64(n: int) -> int:
    """Forisek & Jancina's hash of n on 64-bit words, as their C code runs it."""
    mask = 2**64 - 1
    h = ((n >> 16) ^ n) * 0x45d9f3b & mask
    h = ((h >> 16) ^ h) * 0x45d9f3b & mask
    return ((h >> 16) ^ h) & 255


def test_hashed_base_table_is_sympys():
    pytest.importorskip("sympy")
    from sympy.ntheory import primetest

    assert len(_MR_BASES_32) == 256
    assert list(_MR_BASES_32) == primetest._MR_BASES_32
    # every base is below 65077, where sympy's band begins, so from there
    # none is 0 or 1 mod n and skipped; below it the sieve check covers
    # the n that skip it
    assert max(_MR_BASES_32) < 65077
    # the hash on unbounded ints picks the entry the 64-bit hash picks
    rng = random.Random(2015)
    for n in [2809, 2**32 - 1] + [rng.randrange(2809, 2**32) for _ in range(10**4)]:
        h = ((n >> 16) ^ n) * 0x45d9f3b
        h = ((h >> 16) ^ h) * 0x45d9f3b
        assert ((h >> 16) ^ h) & 255 == _hash_64(n), n


def test_hashed_band_below_65077_against_a_sieve():
    # sympy runs the hashed base from 65077; below it every n from 2809 is
    # checked, 8624 of them prime to 2..47 and so left to the hashed base,
    # where a base of the table may be 0 or 1 mod n
    primes = set(primes_below(65077))
    ns = range(2809, 65077)
    assert sum(all(n % p for p in primes if p <= 47) for n in ns) == 8624
    for n in ns:
        assert is_probable_prime(n) == (n in primes), n


def test_hashed_band_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(65077)
    ns = [rng.randrange(2809, 2**32) for _ in range(10**5)]
    # every odd n prime to 3, 5 and 7 in a quarter of the draws, so the
    # strong test itself decides many of them
    ns += [n for n in (rng.randrange(2809, 2**32) | 1 for _ in range(10**5))
           if math.gcd(n, 3 * 5 * 7) == 1][: 25000]
    for n in ns:
        assert is_probable_prime(n) == sympy.isprime(n), n
    # +-200 around the band's edges, 65077 where sympy's begins, and psi_2,
    # psi_3 inside it
    for edge in (2809, 65077, PSI[1], PSI[2], 2**32):
        for n in range(edge - 200, edge + 201):
            assert is_probable_prime(n) == sympy.isprime(n) == _thirteen_base_test(n), n
    assert is_probable_prime(2**32 - 5)  # the largest prime below 2^32


def test_hashed_band_rejects_its_pseudoprimes_and_carmichael_numbers():
    # psi_4, a strong pseudoprime to 2, 3, 5 and 7, lies in the band
    assert 2809 < PSI[3] == 3215031751 < 2**32
    assert not is_probable_prime(PSI[3])
    # every Carmichael number (6k+1)(12k+1)(18k+1) with three prime factors,
    # and every p (2p-1) with both factors prime, that lies in the band
    carmichael = [n for n in (math.prod((6 * k + 1, 12 * k + 1, 18 * k + 1))
                              for k in range(1, 200)
                              if all(map(_thirteen_base_test, (6 * k + 1, 12 * k + 1, 18 * k + 1))))
                  if 2809 <= n < 2**32]
    semiprimes = [p * (2 * p - 1) for p in range(3, math.isqrt(2**31) + 1)
                  if 2809 <= p * (2 * p - 1) < 2**32
                  and _thirteen_base_test(p) and _thirteen_base_test(2 * p - 1)]
    assert (len(carmichael), len(semiprimes)) == (8, 622)
    for n in carmichael + semiprimes:
        assert not is_probable_prime(n), n
