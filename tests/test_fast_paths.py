"""Differential tests that pin the fast paths to slower, older routes:
hilbert_vector against brute-force local solvability and against the
per-place evaluation through legendre/eps4/eps8 (with shared primes up to
2^40), its unit square classes A // p^|v| against local_unit's residues,
factorize and its core against trial division and sympy (with the
cofactors that trial division to 10^3 leaves to Miller-Rabin, those below
10^6 that it records as prime, those that one gcd with the mid primes to
10^4 splits without rho, the perfect powers that never reach it, whose
roots are factored once, and the least that still do), solve_conic
against recorded certificate points, hensel_lift's precision-doubling
schedule against the per-step loop it replaced, unit_sqrt's own Newton
loop in rational against the polynomial route through hensel_lift that
it replaced, up to the precision bound, and its cached schedule against
the loop that worked it out on every call, sqrt_mod_prime (Atkin's
formula at p = 5 (mod 8), one Tonelli-Shanks loop at every other odd
prime) against Euler's criterion followed by a^((p+1)/4) or
Tonelli-Shanks, smallest_nonresidue's Jacobi symbols against Euler's
criterion (searched once per prime), square roots mod squarefree b from
one CRT basis, and mod one prime with no basis, with and without a carried root, against the
pairwise-CRT enumeration they replaced, the descent that carries each
frame's d down against one that takes a fresh root at every level, the logarithmic
valuation against the one-division-per-digit loop, local_unit and its callers
against the old route that built the unit as a Fraction,
LocalWitness.verify in integers against its Fraction evaluation, and the
extension/character table and attached characters, from one closed form,
against the hand-written tables and the square-class search they
replaced.  Also the certified-prime type Prime, read from the sieve's
table to 10^4, and how many primality tests each public route makes."""

import copy
import hashlib
import importlib
import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    attached_character_by_search,
    eps_p,
    ext_char_table_by_hand,
    factorization_value,
    is_prime_trial,
    old_eval_local,
    old_legendre,
    old_unit_residue,
    old_unit_sqrt,
    old_vp_split,
    primes_below,
    slow_hilbert,
)
from qrlab import conic, padic, rational
from qrlab.conic import solve_conic
from qrlab.analytic import LocalCharacter, local_root_number, root_number_product
from qrlab.hilbert import (
    WITNESS_TOLERANCE,
    LocalWitness,
    hilbert_symbol,
    hilbert_vector,
    local_solve_witness,
)
from qrlab.padic import (
    PADIC_BITS_BOUND,
    IntPolynomial,
    PAdicElement,
    PrecisionLossError,
    _class_rep,
    digits,
    hensel_lift,
    p_frac_part,
    padic_sqrt,
    square_class,
    teichmuller,
    unit_sqrt,
    vp_factorial,
)
from qrlab.rational import (
    INF_PLACE,
    INFINITY,
    TRIAL_DIVISION_LIMIT,
    Place,
    Prime,
    factorize,
    int_valuation,
    rational_factor_exponents,
    sqrt_mod_prime,
    unit_residue,
    vp,
    vp_split,
)
from qrlab.symbols import (
    QuadraticCharacter,
    eps4,
    eps8,
    eps_inf,
    ext_char_correspondence,
    gauss_lemma_sign,
    lattice_counts,
    legendre,
    reciprocity_check,
    smallest_nonresidue,
)

# ---------------------------------------------------------------------------
# hilbert_vector


def _per_place_symbol(a: Fraction, b: Fraction, v: Place) -> int:
    """(a,b)_v by the closed forms, one place at a time, through the
    Fraction-level characters: the evaluation hilbert_vector used to make."""
    if v.is_infinite:
        return (-1) ** (eps_inf(a) * eps_inf(b))
    p = v.prime
    alpha, ua = vp_split(a, p)
    beta, ub = vp_split(b, p)
    if p == 2:
        e = eps4(ua) * eps4(ub) + beta * eps8(ua) + alpha * eps8(ub)
    else:
        e = alpha * beta * eps_p(-1, p) + beta * eps_p(ua, p) + alpha * eps_p(ub, p)
    return (-1) ** (e % 2)


def _per_place_support(a: Fraction, b: Fraction) -> tuple:
    candidates = {INF_PLACE, Place.finite(2)}
    for x in (a, b):
        candidates.update(Place.finite(p) for p, _ in rational_factor_exponents(x)[1])
    return tuple(sorted(v for v in candidates if _per_place_symbol(a, b, v) == -1))


small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-10, max_value=10).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=10),
)


@settings(max_examples=60, deadline=None)
@given(small_rationals, small_rationals)
def test_vector_support_matches_brute_force(a, b):
    # heights <= 10 keep every prime of a and b below 11; at other odd
    # primes both are units and the symbol is +1
    slow = {v for v, p in ((INF_PLACE, 0), *((Place.finite(q), q) for q in (2, 3, 5, 7)))
            if slow_hilbert(a, b, p) == -1}
    assert set(hilbert_vector(a, b).support) == slow


def test_vector_matches_per_place_evaluation():
    rng = random.Random(1404)
    height = 10**9
    for _ in range(2000):
        a, b = (
            Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))
            for _ in range(2)
        )
        assert hilbert_vector(a, b).support == _per_place_support(a, b), (a, b)


def test_vector_matches_per_place_evaluation_on_small_primes():
    # products of 2, 3, 5, 7, 11 and 13 with exponents in [-3, 3]: every
    # parity pattern of (alpha, beta), primes in denominators, and primes
    # dividing both a and b, which heights up to 10^9 seldom reach
    rng = random.Random(1805)

    def draw():
        x = Fraction(rng.choice((-1, 1)))
        for p in (2, 3, 5, 7, 11, 13):
            x *= Fraction(p) ** rng.randint(-3, 3)
        return x

    for _ in range(2000):
        a, b = draw(), draw()
        assert hilbert_vector(a, b).support == _per_place_support(a, b), (a, b)


def test_exponent_dict_is_the_core_of_rational_factor_exponents():
    rng = random.Random(1806)
    xs = [1, -1, 2, -12, 10**6, Fraction(-60, 7), Fraction(1, 2**96), -(2**89 - 1)]
    xs += [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**9), rng.randint(1, 10**9))
           for _ in range(500)]
    for x in xs:
        sign = 1 if x > 0 else -1
        assert rational_factor_exponents(x) == (
            sign, tuple(sorted(rational._exponent_dict(x).items()))), x


def test_unit_square_class_matches_the_inverse():
    # the symbol vector reads the unit of x = n/d at p as A // p^|v| with
    # A = n d: p divides n or d, never both, and (n / p^v) d = u d^2 has
    # the Legendre symbol of u = x / p^v at odd p and its residue mod 8,
    # odd squares being 1 mod 8
    rng = random.Random(1807)
    for _ in range(2000):
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
        A = x.numerator * x.denominator
        for p in (2, 3, 5, 7, 13, 1009):
            v = vp(x, p)
            assert A % p ** abs(v) == 0, (x, p)
            unit = A // p ** abs(v)
            if p == 2:
                assert unit % 8 == rational.local_unit(x, 2, 8)[1], x
            else:
                assert legendre(unit, p) == legendre(rational.local_unit(x, p, p)[1], p), x


def test_vector_matches_per_place_evaluation_on_large_shared_primes():
    # a prime p in (10^3, 2^40) dividing both a and b, with exponents in
    # [-3, 3] on each side (0 included, so p may divide only one of them)
    # and different small cofactors: the shared-prime branch beyond 13, and
    # the one-Euler-criterion branch at a large prime, for int and Fraction.
    # Where an exponent is +-2 or +-3, p < 2^20: rho splits p^|e| in about
    # p^(1/2) steps, and p^3 stays within the factor core's 2^96 bound
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2307)

    def cofactor():
        x = Fraction(rng.choice((-1, 1)))
        for q in (2, 3, 5, 7):
            x *= Fraction(q) ** rng.randint(-2, 2)
        return x

    for _ in range(600):
        alpha, beta = rng.randint(-3, 3), rng.randint(-3, 3)
        bits = 40 if max(abs(alpha), abs(beta)) <= 1 else 20
        p = sympy.prevprime(rng.randrange(1010, 2**bits))
        a, b = cofactor() * Fraction(p) ** alpha, cofactor() * Fraction(p) ** beta
        for x, y in ((a, b), (b, a)):
            expected = _per_place_support(x, y)
            assert hilbert_vector(x, y).support == expected, (x, y)
            if x.denominator == 1 and y.denominator == 1:
                assert hilbert_vector(int(x), int(y)).support == expected, (x, y)
    # int inputs on both sides, so the int route meets every exponent pattern
    for alpha in range(4):
        for beta in range(4):
            p = sympy.prevprime(rng.randrange(1010, 2**20))
            a, b = -3 * p**alpha, 10 * p**beta
            assert hilbert_vector(a, b).support == _per_place_support(
                Fraction(a), Fraction(b)), (a, b)


# ---------------------------------------------------------------------------
# factorize


def test_factorize_exhaustive_small():
    prime = {}
    for n in range(2, 10**5 + 1):
        f = factorize(n)
        assert factorization_value(f) == n
        for p, _ in f.factors:
            if p not in prime:
                prime[p] = is_prime_trial(p)
            assert prime[p], (n, p)
        assert (f.factors == ((n, 1),)) == is_prime_trial(n), n


def test_factorize_three_primes_beyond_trial_range():
    # rho splits off one prime; the other part, a product of two primes
    # just above the trial-division limit, is composite and must be split
    primes = (1_000_003, 1_000_033, 1_000_037)
    n = primes[0] * primes[1] * primes[2]
    assert factorize(n).factors == tuple((p, 1) for p in primes)
    assert factorize(n * primes[1]).factors == ((1_000_003, 1), (1_000_033, 2), (1_000_037, 1))


def test_factorize_strip_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(10**12, 10**12 + 301):
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_factorize_semiprimes_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(64)
    for _ in range(8):
        p, q = (sympy.nextprime(rng.randrange(2**31, 2**32)) for _ in range(2))
        n = p * q
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_factorize_smallest_composites_past_trial_division(monkeypatch):
    # 1009^2 and 1009*1013 are the least composites with no prime factor
    # <= 10^3: only those below (10^3)^2 are prime by construction, so these
    # two must fail Miller-Rabin, and the gcd with the mid primes splits
    # them without rho.  10007^2 and 10007*10009 are the least composites
    # with no prime factor <= 10^4: the square splits as a perfect power,
    # so 10007*10009 is the least that still reaches rho.
    assert TRIAL_DIVISION_LIMIT == 10**3 and rational._MID_PRIME_LIMIT == 10**4
    assert rational._MID_PRIMES[0] == 1009 and rational._MID_PRIMES[-1] == 9973
    assert [n for n in range(9974, 10010) if is_prime_trial(n)] == [10007, 10009]
    calls = []
    for name in ("is_probable_prime", "_pollard_rho"):
        real = getattr(rational, name)
        monkeypatch.setattr(rational, name,
                            lambda n, real=real, name=name: calls.append((name, n)) or real(n))
    for n, factors in ((1009**2, ((1009, 2),)), (1009 * 1013, ((1009, 1), (1013, 1))),
                       (10007**2, ((10007, 2),))):
        calls.clear()
        assert factorize(n).factors == factors
        assert calls == [("is_probable_prime", n)], n
    n = 10007 * 10009
    calls.clear()
    assert factorize(n).factors == ((10007, 1), (10009, 1))
    assert calls == [("is_probable_prime", n), ("_pollard_rho", n)]
    # rho's parts have no prime factor <= 10^4, so below 10^8 they are
    # recorded with no second certification
    n = 1000003 * 99999989
    calls.clear()
    assert factorize(n).factors == ((1000003, 1), (99999989, 1))
    assert calls == [("is_probable_prime", n), ("_pollard_rho", n)]


def test_factor_dict_divides_out_every_copy_of_each_mid_prime(monkeypatch):
    # the gcd with the mid primes names each of them once, and each is
    # divided out as often as it divides: one Miller-Rabin call on the
    # input, none on the powers left behind, and no rho
    calls = []
    real = rational.is_probable_prime
    monkeypatch.setattr(rational, "is_probable_prime", lambda n: calls.append(n) or real(n))
    monkeypatch.setattr(rational, "_pollard_rho", lambda n: pytest.fail(f"rho on {n}"))
    for n, factors in ((1009**9, {1009: 9}), (9973**7, {9973: 7}),
                       (1009**4 * 1013**3, {1009: 4, 1013: 3})):
        calls.clear()
        assert rational._factor_dict(n) == factors
        assert calls == [n], n
    # what the mid primes leave is prime by construction below 10^8, and
    # certified once more above it
    calls.clear()
    assert rational._factor_dict(1009 * 1000003) == {1009: 1, 1000003: 1}
    assert calls == [1009 * 1000003]
    calls.clear()
    q = 2**61 - 1
    assert rational._factor_dict(1009**3 * 9973 * q) == {1009: 3, 9973: 1, q: 1}
    assert calls == [1009**3 * 9973 * q, q]


def test_factor_dict_splits_mid_primes_against_sympy(monkeypatch):
    # the gcd with the mid primes (10^3, 10^4] holds two of them: g >= 10^4,
    # and its primes are found by a scan.  Then mid-prime powers and
    # products of two up to 2^96.  None of these reaches rho.
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(rational, "_pollard_rho", lambda n: pytest.fail(f"rho on {n}"))
    rng = random.Random(10007)
    mids = rational._MID_PRIMES
    ns = [1009 * 1013 * q for q in (10007, 10009, 999983, 2**31 - 1, 2**61 - 1)]
    ns += [1009 * 1013, 9967 * 9973, 1009 * 9973 * (2**61 - 1)]
    for _ in range(300):
        p, r = sorted(rng.sample(mids, 2))
        q = sympy.nextprime(rng.randrange(10**4, 2**32))
        ns += [p * r * q, p * r**3 * q, p**2 * r * q, p * r * rng.randrange(1, 10**4) * q]
    for p in [1009, 1013, 9973] + rng.sample(mids, 30):
        k = 2
        while p**k <= 2**96:
            ns.append(p**k)
            r = rng.choice(mids)
            if p**k * r <= 2**96:
                ns.append(p**k * r)
            k += 1
    for n in ns:
        assert n <= 2**96 and rational._factor_dict(n) == sympy.factorint(n), n


def test_factorize_powers_of_48_bit_primes_within_a_deadline(monkeypatch):
    # a part that would reach rho is first tested for a perfect k-th power,
    # k a prime <= log m / log 10^4: the square of a 48-bit prime, which
    # took rho ~10 s, splits with no rho call, and so do the cubes; of
    # r^2 s^2 rho sees only r s
    sympy = pytest.importorskip("sympy")
    rho = rational._pollard_rho
    seen = []
    monkeypatch.setattr(rational, "_pollard_rho", lambda n: seen.append(n) or rho(n))
    rng = random.Random(48)
    p, q = (sympy.nextprime(rng.randrange(2**47, 2**48)) for _ in range(2))
    r, s = (sympy.nextprime(rng.randrange(2**23, 2**24)) for _ in range(2))
    t = sympy.nextprime(rng.randrange(2**31, 2**32))
    # powers of 48-bit primes past the factorize bound go to the core, and
    # the cube of a 521-bit prime takes a k-th root past 2^1024
    m521 = 2**521 - 1
    cases = [(factorize, p**2), (factorize, t**3), (factorize, r**2 * s**2),
             (rational._factor_dict, p**3), (rational._factor_dict, q**5),
             (rational._factor_dict, m521**3)]
    for split, n in cases:
        seen.clear()
        start = time.perf_counter()
        got = split(n)
        elapsed = time.perf_counter() - start
        got = dict(got.factors) if split is factorize else got
        assert got == ({m521: 3} if n == m521**3 else sympy.factorint(n)), n
        assert elapsed < 0.5, (n, elapsed)
        assert set(seen) == ({r * s} if n == r**2 * s**2 else set()), n
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        factorize(p**2)
        best = min(best, time.perf_counter() - start)
    assert best < 0.01, best


def test_factor_dict_factors_a_perfect_powers_root_once(monkeypatch):
    # a perfect k-th power is replaced by its root, whose exponents count k
    # times: rho splits r s once in (r s)^k, and p^k certifies p once
    sympy = pytest.importorskip("sympy")
    calls = []
    for name in ("is_probable_prime", "_pollard_rho"):
        real = getattr(rational, name)
        monkeypatch.setattr(rational, name,
                            lambda n, real=real, name=name: calls.append((name, n)) or real(n))
    r, s, p = 16777213, 16777199, 281474976710597
    for n in [(r * s) ** k for k in (2, 3, 5, 6)] + [1009**2 * (r * s) ** 2]:
        calls.clear()
        assert rational._factor_dict(n) == sympy.factorint(n), n
        assert [m for name, m in calls if name == "_pollard_rho"] == [r * s], n
    for k in (2, 3, 4, 5):
        calls.clear()
        assert rational._factor_dict(p**k) == {p: k}, k
        assert calls.count(("is_probable_prime", p)) == 1, (k, calls)
        assert not any(name == "_pollard_rho" for name, _ in calls), k


def test_integer_kth_root_is_exact_on_ints():
    rng = random.Random(1024)
    for _ in range(2000):
        k = rng.choice((3, 5, 7, 11, 13))
        m = rng.randrange(1, 2 ** rng.randint(1, 3000))
        r = rational._iroot(m, k)
        assert r**k <= m < (r + 1) ** k, (m, k)
    for k in (2, 3, 5, 7):
        for r in (2, 3, 10007, 2**521 - 1, 2**1100 + 1):
            assert rational._iroot(r**k, k) == r
            assert rational._iroot(r**k - 1, k) == r - 1
            assert rational._iroot(r**k + 1, k) == r


def test_factorize_prime_powers_past_trial_division():
    rng = random.Random(1009)
    primes = primes_below(10**6)
    for p in [1009, 1013, 999983] + rng.sample([q for q in primes if q > 10**3], 20):
        k = 1
        while p ** (k + 1) <= 2**96:
            k += 1
            assert factorize(p**k).factors == ((p, k),), (p, k)


def test_factorize_mixed_products_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        n = 1
        for lo, hi in ((2, 10**3), (10**3, 10**6), (10**6, 10**7)):
            for _ in range(rng.randint(0, 2)):
                n *= sympy.prevprime(rng.randint(lo + 2, hi)) ** rng.randint(1, 3)
        if n <= 2**96:
            assert dict(factorize(n).factors) == sympy.factorint(n), n
            checked += 1


def test_factor_dict_at_the_prime_by_construction_boundary():
    # a cofactor below TRIAL_DIVISION_LIMIT^2 = 10^6 is recorded as prime at
    # once; 1009^2 = 1018081 and 1009 * 1013 are the least composites past
    # it and must still be split.  A part split off by the mid primes or
    # rho is recorded below 10^8; 10007^2 and 10007 * 10009 are the least
    # composites past that, and must be split again
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1018081)
    ns = [1, 999983, 2 * 3 * 999983, 1009**2, 1009 * 1013, 997 * 999983]
    ns += [1009 * 99999989, 9973 * 10007**2, 10007**3, 10007 * 10009 * 10037,
           10007 * 99999989, 99999989**2, 1009 * 10007 * 10009]
    ns += [rng.randint(1, 10**7) for _ in range(10**4)]
    for n in ns:
        assert rational._factor_dict(n) == sympy.factorint(n), n


def test_small_primes_are_the_primes_up_to_the_trial_limit():
    assert rational._SMALL_PRIMES == tuple(
        n for n in range(TRIAL_DIVISION_LIMIT + 1) if is_prime_trial(n)
    )
    assert len(rational._SMALL_PRIMES) == 168
    assert rational._SMALL_PRIMORIAL == math.prod(rational._SMALL_PRIMES)
    # the mid primes: those above the trial limit up to 10^4
    assert rational._MID_PRIMES == tuple(
        n for n in range(TRIAL_DIVISION_LIMIT + 1, rational._MID_PRIME_LIMIT + 1)
        if is_prime_trial(n)
    )
    assert len(rational._MID_PRIMES) == 1061
    assert rational._MID_PRIMORIAL == math.prod(rational._MID_PRIMES)


def _exponents_from_factorize(x: Fraction):
    exps = dict(factorize(x.numerator).factors)
    for p, e in factorize(x.denominator).factors:
        exps[p] = exps.get(p, 0) - e
    return (1 if x > 0 else -1), tuple(sorted((p, e) for p, e in exps.items() if e))


# up to 2^64, where the hardest input (two 32-bit primes) takes rho ~2^16 steps
@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-(2**64), max_value=2**64).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=2**64),
)
def test_rational_factor_exponents_matches_factorize(num, den):
    x = Fraction(num, den)
    assert rational_factor_exponents(x) == _exponents_from_factorize(x)


def test_rational_factor_exponents_keeps_the_workload_bound():
    with pytest.raises(rational.FactorizationError):
        rational_factor_exponents(Fraction(1, 2**96 + 1))
    with pytest.raises(ValueError):
        rational_factor_exponents(0)


# ---------------------------------------------------------------------------
# primes certified once: a Prime is tested when it is built, and every
# public route that takes a prime checks it with Prime(p)

PSI_13 = 3317044064679887385961981


def test_prime_refuses_what_is_not_prime():
    for bad in (15, 1, 0, -7, 4, 9, PSI_13, None, 7.0, Fraction(7)):
        with pytest.raises(ValueError):
            Prime(bad)


def test_prime_behaves_like_its_int():
    for n in (2, 3, 1009, 2**61 - 1, 2**89 - 1):
        p = Prime(n)
        assert isinstance(p, int) and type(p) is Prime and Prime(p) is p
        assert (str(p), repr(p), f"{p}", json.dumps([p, {"p": p}])) == (
            str(n), repr(n), f"{n}", json.dumps([n, {"p": n}]))
        assert p == n and hash(p) == hash(n) and {p: 1}[n] == 1
        for value, want in ((p * 1, n), (p + 0, n), (p - 1, n - 1), (-p, -n),
                            (abs(p), n), (p**2, n * n), (p * p, n * n)):
            assert type(value) is int and value == want
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(p, protocol))
            assert type(back) is Prime and back == n


def test_prime_reads_the_sieve_table_below_10_4(primality_calls):
    # every n in [-2, 10^4 + 200): the primes are accepted and the rest
    # refused with "n is not prime"; from 0 to 10^4 a plain int is read from
    # the table, untested, and any other (a bool too) is tested once
    primes = set(primes_below(10**4 + 200))
    for n in range(-2, 10**4 + 200):
        primality_calls.clear()
        if n in primes:
            p = Prime(n)
            assert type(p) is Prime and p == n, n
            assert (p is rational._PRIME_TABLE.get(n)) == (n <= 10**4), n
        else:
            with pytest.raises(ValueError) as info:
                Prime(n)
            assert str(info.value) == f"{n} is not prime", n
        assert primality_calls == ([] if 0 <= n <= 10**4 else [n]), n
    for flag in (True, False):
        primality_calls.clear()
        with pytest.raises(ValueError, match=f"^{flag} is not prime$"):
            Prime(flag)
        assert primality_calls == [flag], flag


def test_factorize_and_places_yield_primes():
    for n in (2 * 3**4 * 1009, -(2**61 - 1) * 1000003, 1009**2, 2**96):
        assert all(type(p) is Prime for p, _ in factorize(n).factors), n
        assert all(type(p) is Prime for p, _ in rational_factor_exponents(Fraction(7, n))[1])
    for p in (2, 3, 1009):
        assert type(Place.finite(p).prime) is Prime
        assert type(Place.parse(str(p)).prime) is Prime
        assert type(PAdicElement.from_rational(Fraction(1, 3), p, 4).prime) is Prime


def test_trusted_place_equals_the_validated_one():
    # Place.finite(Prime) sets its fields with no __init__, and a place
    # hashes by its prime alone: every route to the place at p must still
    # give one equal, equally hashed place with the same repr and JSON
    for p in (2, 3, 1009, 2**61 - 1):
        trusted = Place.finite(Prime(p))
        places = [trusted, Place.finite(p), Place("finite", p), Place.parse(str(p))]
        places += [pickle.loads(pickle.dumps(trusted, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        places += [copy.copy(trusted), copy.deepcopy(trusted)]
        for place in places:
            assert place == trusted and hash(place) == hash(trusted), (p, place)
            assert repr(place) == repr(trusted) and place.json_value() == p
            assert str(place) == str(p) and type(place.prime) is Prime
            assert place != INF_PLACE and INF_PLACE != place
        assert len(set(places)) == 1 and set(places) == {Place.finite(p)}
        assert len({INF_PLACE, *places}) == 2
    for bad in (1, 9, -7, PSI_13):
        with pytest.raises(ValueError):
            Place.finite(bad)
        with pytest.raises(ValueError):
            Place.parse(str(bad))


def test_public_padic_constructors_still_validate():
    f = IntPolynomial((-2, 0, 1))
    for p in (4, 9, PSI_13):
        for build in (
            lambda: PAdicElement(p, 0, 1, 3),
            lambda: PAdicElement.zero(p),
            lambda: PAdicElement.from_rational(Fraction(1, 2), p, 3),
            lambda: hensel_lift(f, 1, 5, p=p),
            lambda: teichmuller(1, p, 3),
            lambda: square_class(Fraction(1, 2), p),
        ):
            with pytest.raises(ValueError):
                build()


def test_every_public_prime_argument_refuses_composites():
    for p in (4, 9, 15, PSI_13):
        for build in (
            lambda: legendre(3, p),
            lambda: smallest_nonresidue(p),
            lambda: sqrt_mod_prime(2, p),
            lambda: p_frac_part(Fraction(1, 3), p),
            lambda: vp_factorial(10, p),
            lambda: gauss_lemma_sign(2, p),
            lambda: lattice_counts(p, 7),
            lambda: reciprocity_check(p, 7),
            lambda: hilbert_symbol(2, 3, p),
            lambda: local_solve_witness(2, 3, p),
            lambda: ext_char_correspondence(p),
        ):
            with pytest.raises(ValueError):
                build()


@pytest.fixture
def primality_calls(monkeypatch):
    """Counts is_probable_prime calls made through every qrlab binding."""
    calls = []
    real = rational.is_probable_prime
    for name in ("rational", "padic", "symbols", "hilbert", "analytic", "conic"):
        module = importlib.import_module(f"qrlab.{name}")
        if hasattr(module, "is_probable_prime"):
            monkeypatch.setattr(module, "is_probable_prime", lambda n: calls.append(n) or real(n))
    return calls


def test_symbol_vector_tests_no_prime(primality_calls):
    rng = random.Random(6)
    for _ in range(200):
        a, b = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
                for _ in range(2))
        hilbert_vector(a, b)
    assert primality_calls == []


def test_local_witness_tests_the_users_prime_once(primality_calls):
    # a prime below 10^4 is read from the sieve's table, untested; one
    # above it is tested once, when its place is built
    rng = random.Random(7)
    for p in (2, 3, 13, 1009, 1013, 10007, 1000003):
        for _ in range(20):
            a, b = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))
                    for _ in range(2))
            primality_calls.clear()
            local_solve_witness(a, b, p, precision=64)
            assert primality_calls == ([] if p < 10**4 else [p]), (a, b, p)
            place = Place.finite(p)
            primality_calls.clear()
            local_solve_witness(a, b, place, precision=64)
            assert primality_calls == [], (a, b, p)


def test_padic_arithmetic_tests_no_prime(primality_calls):
    x = PAdicElement(1009, 1, 5, 20)
    y = PAdicElement.from_rational(Fraction(7, 3), 1009, 20)
    primality_calls.clear()
    for z in (x + y, x - y, x * y, x / y, -x):
        assert z.prime == 1009
    assert padic_sqrt(y * y) is not None
    assert len(digits(y, "teichmuller")) == 20
    square_class(y)
    assert primality_calls == []


def test_root_numbers_test_no_prime_once_the_character_is_built(primality_calls):
    chars = [LocalCharacter.attached_to_extension(d, p)
             for d, p in ((-1, 2), (2, 2), (-10, 2), (3, 3), (-7, 7), (7 * 5, 1009), (1013, 1013))]
    chars += [LocalCharacter(Place.finite(p), QuadraticCharacter(frozenset({p})), nu)
              for p in (3, 101) for nu in (0, 1)]
    primality_calls.clear()
    for chi in chars:
        assert abs(abs(local_root_number(chi)) - 1) < 1e-9
    for d in (-1, 2, -15, 6 * 101, -(2 * 3 * 5 * 7 * 11 * 13)):
        assert abs(root_number_product(d) - 1) < 1e-9
    assert primality_calls == []


@pytest.fixture
def local_calls(monkeypatch):
    """Counts QuadraticCharacter constructions, and vp and local_unit calls
    made through every qrlab binding."""
    calls = {"QuadraticCharacter": 0, "vp": 0, "local_unit": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(QuadraticCharacter, "__init__",
                        counting("QuadraticCharacter", QuadraticCharacter.__init__))
    for name in ("vp", "local_unit"):
        wrapper = counting(name, getattr(rational, name))
        for module in ("rational", "padic", "symbols", "hilbert", "analytic", "conic"):
            module = importlib.import_module(f"qrlab.{module}")
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_root_number_terms_build_no_character_and_split_nothing(local_calls):
    # the Gauss sum of lambda_p has p - 1 terms: the per-call work must not
    # grow with them, with nu or without, at p^a or at another gamma
    counts = set()
    for p in (3, 101, 9973):
        for nu in (0, 1):
            chi = LocalCharacter(Place.finite(p), QuadraticCharacter(frozenset({p})), nu)
            for gamma in (None, Fraction(5 * p, 7 if p != 7 else 11)):
                for key in local_calls:
                    local_calls[key] = 0
                local_root_number(chi, gamma=gamma)
                counts.add((nu, gamma is None, tuple(sorted(local_calls.items()))))
    assert len(counts) == 4, counts
    for *_, items in counts:
        calls = dict(items)
        assert calls["QuadraticCharacter"] == 0, counts
        assert calls["vp"] + calls["local_unit"] <= 4, counts


# ---------------------------------------------------------------------------
# solve_conic: certificate points recorded before descent shared its
# factorizations (a, b, x, y)

GOLDEN_POINTS = [
    (98641582116227, -605343251, "20282902889195267799390/193619105174273913900540984311",
     "-2260203925782948261301973/193619105174273913900540984311"),
    (-403321739537, 48456467744857,
     "4058769571519029518748342399584/1765581101323339202061877051263054025",
     "-448829205756258801331995821739/1765581101323339202061877051263054025"),
    (-196225446757, 6483376093, "1651273332312487651734/319701341158472273855867081",
     "-9914182256217734916611/319701341158472273855867081"),
    (15254484769, -1066784403709,
     "430086394873569325558238997788047778423/53115640776496151097097085061333495290333999",
     "-624806398824770141890477780148810940/53115640776496151097097085061333495290333999"),
    (237045041, 2096681, "163456432/6816276440803", "-4374807535/6816276440803"),
    (17828947, -38601420733859,
     "1737522431654273025281943528884694467/7077816908401670941880316979424771803588",
     "-310843738919397713886883247644461/7077816908401670941880316979424771803588"),
    (-15537375642493, 4892833830517, "22429546018841818398819/175376063381754382766550885968",
     "-88789906297211044008679/175376063381754382766550885968"),
    (3119018324963, 51583098913337,
     "76115867919051139348207172883333150796/229525348118421490706855214242326713405005135",
     "-25903369241880276025116962028423582379/229525348118421490706855214242326713405005135"),
    (1362967, 207034433, "1956131883973/2286942063026640", "-8448139777/2286942063026640"),
    (-4881977733487, 1231207, "206832448185390701/783152684806938930666195",
     "-817179101242787860996/783152684806938930666195"),
    (-1995271, 248718449093899, "6887392856710930624166711/41783538233332550264332390278",
     "-2720290834635411044455/41783538233332550264332390278"),
    (-278619546467, 7000006417471, "172433007674546141761/2635001654122563100919722763",
     "-996530522705639062566/2635001654122563100919722763"),
    (-45307449563771, 60989443, "278116024451619/1083015099731623199684",
     "-276932720955584753/1083015099731623199684"),
    (-178833451471, 388427369461, "276658950774344555071511195/49203093610476095026822205429853",
     "-203646931446155488179053512/49203093610476095026822205429853"),
    (17133591583741, -5520632633, "111219550415605759229/356545035191978331433595903",
     "-3919590820592123417022/356545035191978331433595903"),
    (-957263, 124484843337793, "107901342323557/51824095162074491",
     "-10540625724/51824095162074491"),
    (100567554444281, -12495737, "10703275586949732939/61492490925682436916665576",
     "-24887497160377927443115/61492490925682436916665576"),
    (12820481, -3539261987, "688950856589718013/1997254405514848574979",
     "-24336943556359552/1997254405514848574979"),
    (16818574762463, 2737479509, "24705247/2037013716562066", "-38884870039/2037013716562066"),
    (613634712641, -2640643, "809825141297/599328563570618329",
     "-127959915184564/599328563570618329"),
]


@pytest.mark.parametrize("a, b, x, y", GOLDEN_POINTS)
def test_solve_conic_golden_points(a, b, x, y):
    cert = solve_conic(a, b)
    assert cert.outcome == "solution"
    assert (cert.x, cert.y) == (Fraction(x), Fraction(y))


# ---------------------------------------------------------------------------
# hensel_lift: precision doubling against the per-step loop it replaced


def _naive_vp(n: int, p: int) -> int:
    r = 0
    while n % p == 0:
        n //= p
        r += 1
    return r


def _per_step_lift(f, x: int, N: int, p: int) -> int:
    """The root mod p^N by the loop hensel_lift used to run: every step
    works modulo p^(N+delta), inverts f'(x)/p^delta afresh and measures
    v_p(f(x)) again.  Raises ValueError where hensel_lift must."""
    fprime = f.derivative()
    if f(x) == 0:
        return x % p**N
    if fprime(x) == 0:
        raise ValueError("f'(x0) = 0")
    delta = _naive_vp(fprime(x), p)
    m = _naive_vp(f(x), p)
    if m <= 2 * delta:
        raise ValueError("Hensel hypothesis fails")
    work = p ** (N + delta)
    while m < N + delta:
        inv = pow(fprime(x) // p**delta, -1, work)
        x = (x - (f(x) // p**delta) * inv) % work
        fx = f(x)
        if fx == 0:
            break
        m = _naive_vp(fx, p)
    return x % p**N


def _assert_lift_matches(f, seed: int, N: int, p: int):
    try:
        want = _per_step_lift(f, seed, N, p)
    except ValueError:
        with pytest.raises(ValueError):
            hensel_lift(f, seed, N, p=p)
        return
    if want == 0 and f(seed) != 0:
        with pytest.raises(PrecisionLossError):
            hensel_lift(f, seed, N, p=p)
        return
    got = hensel_lift(f, seed, N, p=p)
    if f(seed) == 0:
        # the exact-root shortcut keeps N digits of the exact root's unit
        exact = PAdicElement.zero(p) if seed == 0 else PAdicElement.from_rational(seed, p, N)
        assert got == exact, (f, seed, N, p)
        return
    assert got.integer_rep() == want and got.abs_precision == N, (f, seed, N, p)


def _random_liftable(rng: random.Random, p: int):
    """(f, x0) with f(x0) = 0 (mod p^k) for a random k >= 1: f = g - g(x0) + c
    for a random g and c = p^k * r, so v_p(f(x0)) >= k and f'(x0) = g'(x0)."""
    x0 = rng.randrange(-(p**6), p**6)
    g = [rng.randrange(-(p**4), p**4) for _ in range(rng.randint(2, 6))]
    c = p ** rng.randint(1, 24) * rng.randrange(-50, 51)
    g[0] += c - IntPolynomial(tuple(g))(x0)
    return IntPolynomial(tuple(g)), x0


def _precision_near_a_power_of_two(rng: random.Random) -> int:
    """N = 2^j - 1, 2^j, 2^j + 1 or 2^j + 8: around the targets that
    precision doubling lands on exactly, and just past them, where the
    lift's last steps are the largest."""
    return 2 ** rng.randint(1, 7) + rng.choice((-1, 0, 1, 8))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1009])
def test_hensel_matches_per_step_loop_random(p):
    rng, edges = random.Random(40000 + p), random.Random(41000 + p)
    for _ in range(400):
        f, x0 = _random_liftable(rng, p)
        _assert_lift_matches(f, x0, rng.randint(1, 60), p)
        _assert_lift_matches(f, x0, _precision_near_a_power_of_two(edges), p)


def test_hensel_matches_per_step_loop_delta_2_to_4():
    rng, edges = random.Random(4918), random.Random(4919)
    # f = T^d - a with f'(x0) = d x0^(d-1): delta = v_p(d) for a unit x0,
    # and a = x0^d (mod p^(2 delta + 1 + j)) makes the lift start at m > 2 delta
    families = [(2, 4, 2), (3, 9, 2), (2, 8, 3), (3, 27, 3), (2, 16, 4), (5, 25, 2)]
    for p, d, delta in families:
        for _ in range(60):
            x0 = rng.randrange(1, p**8)
            if x0 % p == 0:
                continue
            a = x0**d + p ** (2 * delta + 1 + rng.randint(0, 6)) * rng.randrange(1, 10**6)
            f = IntPolynomial((-a,) + (0,) * (d - 1) + (1,))
            assert _naive_vp(f.derivative()(x0), p) == delta
            _assert_lift_matches(f, x0, rng.randint(1, 80), p)
            _assert_lift_matches(f, x0, _precision_near_a_power_of_two(edges), p)
    # delta from the seed instead: T^2 - a near a root divisible by p
    for p in (3, 5, 7):
        for _ in range(40):
            x0 = p * rng.randrange(1, p**4) * (1 if rng.random() < 0.5 else p)
            delta = _naive_vp(2 * x0, p)
            a = x0 * x0 + p ** (2 * delta + 1 + rng.randint(0, 4)) * rng.randrange(1, 10**4)
            _assert_lift_matches(IntPolynomial((-a, 0, 1)), x0, rng.randint(1, 50), p)
            _assert_lift_matches(IntPolynomial((-a, 0, 1)), x0,
                                 _precision_near_a_power_of_two(edges), p)


def test_lift_works_at_full_precision_only_in_its_last_step(monkeypatch):
    # the targets are fixed from N + delta down, so every f and f' that the
    # lift evaluates sees an x below the second-to-last target,
    # p^(ceil((N + delta)/2) + delta); the last step evaluates neither
    rng = random.Random(1904)
    seen = []
    evaluate = IntPolynomial.__call__
    monkeypatch.setattr(IntPolynomial, "__call__",
                        lambda g, x: seen.append(x) or evaluate(g, x))

    def lifts(p):
        for j in range(1, 11):
            for N in (2**j + 1, 2**j + 8):
                if N * math.log2(p) > PADIC_BITS_BOUND:
                    continue
                if p == 2:
                    # T^2 - u from the seed 1 (delta = 1), and T^4 - a
                    # near an odd x0 (delta = 2)
                    u = 8 * rng.randrange(1, 2**N) + 1
                    yield IntPolynomial((-u, 0, 1)), 1, N, 1
                    x0 = rng.randrange(1, 16, 2)
                    a = x0**4 + 2 ** (5 + rng.randint(0, 3)) * rng.randrange(1, 10**6, 2)
                    yield IntPolynomial((-a, 0, 0, 0, 1)), x0, N, 2
                else:
                    # T^2 - u from a root mod p (delta = 0)
                    u = pow(rng.randrange(1, p ** N), 2, p ** (N + 4))
                    if u % p:
                        yield IntPolynomial((-u, 0, 1)), sqrt_mod_prime(u, p), N, 0

    for p in (2, 3, 1013):
        for f, x0, N, delta in lifts(p):
            seen.clear()
            root = hensel_lift(f, x0, N, p=p).integer_rep()
            lifted = seen[:]
            assert f(x0) != 0 and f(root) % p**N == 0, (p, N, f)
            assert _naive_vp(f.derivative()(x0), p) == delta
            bound = p ** (-(-(N + delta) // 2) + delta)
            assert all(0 <= x < bound for x in lifted), (p, N, f, max(lifted), bound)


def test_hensel_matches_per_step_loop_from_padic_seeds():
    rng = random.Random(1404)
    for p in (2, 3, 7, 1009):
        for _ in range(60):
            f, x0 = _random_liftable(rng, p)
            # the integer representative of the element x0 + O(p^12)
            _assert_lift_matches(f, x0 % p**12 or p**12, rng.randint(1, 40), p)


def test_hensel_n_equals_one_and_exact_roots():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 1009):
        for _ in range(50):
            f, x0 = _random_liftable(rng, p)
            _assert_lift_matches(f, x0, 1, p)
        for _ in range(20):
            # (T - r)(T + t) at its exact integer root r, and a linear f
            # that reaches its exact root after one step
            r, t = rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**3)
            f = IntPolynomial((-r * t, t - r, 1))
            assert f(r) == 0
            _assert_lift_matches(f, r, rng.randint(1, 30), p)
            _assert_lift_matches(IntPolynomial((-r, 1)), r + p ** rng.randint(1, 9), 20, p)
    assert hensel_lift(IntPolynomial((0, 1)), 0, 5, p=3).is_zero


# ---------------------------------------------------------------------------
# unit_sqrt: its own Newton loop against the polynomial route it replaced


def _polynomial_unit_sqrt(u: int, p: int, k: int) -> int | None:
    """unit_sqrt by the route it used to take: hensel_lift on the
    IntPolynomial T^2 - u, read back through integer_rep, then normalized."""
    if p == 2:
        if u % 8 != 1:
            return None
        root = hensel_lift(IntPolynomial((-u, 0, 1)), 1, k, p).integer_rep() % 2 ** (k - 1)
        return 2 ** (k - 1) - root if root % 4 == 3 else root
    r0 = sqrt_mod_prime(u, p)
    if r0 is None:
        return None
    root = hensel_lift(IntPolynomial((-u, 0, 1)), r0, k, p).integer_rep()
    return p ** k - root if root % p > (p - 1) // 2 else root


def _sqrt_precisions(p: int) -> list[int]:
    """Every k to 136 (from 3 at p = 2), and up to the precision bound,
    p^k <= 2^PADIC_BITS_BOUND, each 2^j - 1, 2^j and 2^j + 1, where the
    schedule's halvings change, and the largest k itself."""
    top = int(PADIC_BITS_BOUND / math.log2(p))
    ks = set(range(3 if p == 2 else 1, 137)) | {top}
    for j in range(2, top.bit_length() + 1):
        ks |= {k for k in (2**j - 1, 2**j, 2**j + 1) if k <= top}
    return sorted(ks)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 1009, 1013])
def test_unit_sqrt_matches_the_polynomial_route(p):
    rng = random.Random(5150 + p)
    p = Prime(p)
    for k in _sqrt_precisions(p):
        mod = p**k
        # random units (at 2 half of them 1 mod 8, so that most have roots),
        # and exact squares, whose seed can be an exact integer root
        units = [rng.randrange(1, mod) for _ in range(3)]
        units += [8 * rng.randrange(mod // 8) + 1 if p == 2 else rng.randrange(1, mod)
                  for _ in range(3)]
        units += [r * r % mod for r in (rng.randrange(1, 60), rng.randrange(1, mod))]
        # a non-residue mod p, or a unit that is not 1 mod 8: no root
        if p == 2:
            units.append((8 * rng.randrange(mod // 8) + rng.choice((3, 5, 7))) % mod)
        else:
            units.append((p * rng.randrange(mod // p) + smallest_nonresidue(p)) % mod)
        for u in units:
            if u % p == 0:
                continue
            root = unit_sqrt(u, p, k)
            assert root == _polynomial_unit_sqrt(u, p, k), (u, p, k)
            if p == 2:
                assert (root is None) == (u % 8 != 1), (u, k)
                if root is not None:
                    # one digit is lost: the root is read mod 2^(k-1)
                    assert root % 4 == 1 and root < 2 ** (k - 1), (u, k)
                    assert (root * root - u) % 2**k == 0, (u, k)
            else:
                assert (root is None) == (legendre(u, p) == -1), (u, p, k)
                if root is not None:
                    assert 1 <= root % p <= (p - 1) // 2 and root < mod, (u, p, k)
                    assert (root * root - u) % mod == 0, (u, p, k)


def test_unit_sqrt_matches_the_uncached_schedule_as_entries_are_evicted():
    # every (p, k) twice, in a shuffled order: far more distinct pairs than
    # the schedule cache holds, so entries are evicted and computed again
    rng = random.Random(33)
    pairs = [(Prime(p), k) for p in (2, 3, 5, 7, 11, 13, 1009, 1013, 10007)
             for k in range(3 if p == 2 else 1, 201)]
    order = pairs * 2
    rng.shuffle(order)
    rational._lift_schedule.cache_clear()
    for p, k in order:
        mod = p**k
        # a random unit (at 2, one that is 1 mod 8) and a square
        u = 8 * rng.randrange(mod // 8) + 1 if p == 2 else rng.randrange(1, mod)
        for u in (u, rng.randrange(1, mod) ** 2 % mod):
            if u % p:
                assert unit_sqrt(u, p, k) == old_unit_sqrt(u, p, k), (u, p, k)
    info = rational._lift_schedule.cache_info()
    assert info.maxsize == info.currsize == 32
    assert info.misses > len(pairs), info


# ---------------------------------------------------------------------------
# valuations: O(log v) divisions against one division per digit

VALUATION_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 1009, 2**61 - 1])
NONZERO = st.integers(min_value=-(10**40), max_value=10**40).filter(lambda n: n != 0)


@settings(max_examples=300, deadline=None)
@given(VALUATION_PRIMES, st.integers(min_value=0, max_value=400), NONZERO)
def test_int_valuation_matches_naive_loop(p, v, u):
    n = u * p**v
    r = _naive_vp(n, p)
    assert int_valuation(n, p) == (r, n // p**r)
    assert int_valuation(-n, p) == (r, -n // p**r)


@settings(max_examples=200, deadline=None)
@given(VALUATION_PRIMES, st.integers(min_value=0, max_value=400), NONZERO, NONZERO)
def test_rational_valuations_match_naive_loop(p, v, num, den):
    x = Fraction(num, abs(den) * p**v)
    r = _naive_vp(x.numerator, p) - _naive_vp(x.denominator, p)
    assert vp(x, p) == r
    assert vp_split(x, p) == (r, x / Fraction(p) ** r)
    assert vp(-x, p) == r
    assert vp(Fraction(0), p) is INFINITY and vp_split(0, p) is INFINITY


def test_valuation_needs_a_base_of_at_least_2():
    for p in (1, 0, -1, -3):
        with pytest.raises(ValueError):
            int_valuation(12, p)
        with pytest.raises(ValueError):
            vp(12, p)


# ---------------------------------------------------------------------------
# modular square roots: Atkin's formula at p = 5 (mod 8) and one
# Tonelli-Shanks loop at every other odd prime, with no separate Euler
# test, against a search and against Euler's criterion followed by
# a^((p+1)/4) or Tonelli-Shanks


def test_sqrt_core_matches_sqrt_mod_prime():
    # 17 and 97 are 1 mod 16 and 1 mod 32, so Tonelli-Shanks descends
    for p in (3, 5, 7, 13, 17, 97, 1009, 1013):
        roots = {r * r % p: r for r in range(1, (p + 1) // 2)}
        for a in range(1, p):
            assert sqrt_mod_prime(a, p) == roots.get(a), (a, p)
            assert sqrt_mod_prime(a + 5 * p, Prime(p)) == roots.get(a), (a, p)



def _old_sqrt_mod_prime(a, p):
    """The route sqrt_mod_prime took before it spent one exponentiation per
    root: Euler's criterion, then a^((p+1)/4) or Tonelli-Shanks with a pow
    per non-residue candidate."""
    a %= p
    if a == 0:
        raise ValueError("a must be prime to p")
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
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


#: Primes of each class mod 8; 257, 7681, 12289 and 65537 are 1 + q 2^s with
#: s = 8, 9, 12 and 16, so Tonelli-Shanks climbs a tall 2-Sylow tower.
_SQRT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 73, 89, 97, 113,
                1009, 1013, 257, 7681, 12289, 65537)


def test_sqrt_mod_prime_matches_euler_then_tonelli_shanks_on_every_residue():
    assert {p % 8 for p in _SQRT_PRIMES} == {1, 3, 5, 7}
    for p in _SQRT_PRIMES:
        assert [sqrt_mod_prime(a, p) for a in range(1, p)] == [
            _old_sqrt_mod_prime(a, p) for a in range(1, p)], p
        with pytest.raises(ValueError):
            sqrt_mod_prime(3 * p, p)


def _next_prime(n):
    n |= 1
    while not rational.is_probable_prime(n):
        n += 2
    return n


def test_sqrt_mod_prime_matches_euler_then_tonelli_shanks_on_large_primes():
    # 200 seeded 40-48-bit primes, each with five residues and five
    # non-residues
    rng = random.Random(20261019)
    classes = set()
    for _ in range(200):
        p = _next_prime(rng.getrandbits(rng.randint(40, 48)) | 1 << 39)
        classes.add(p % 8)
        residues = [pow(rng.randrange(1, p), 2, p) for _ in range(5)]
        z = rng.randrange(2, p)
        while legendre(z, p) != -1:
            z = rng.randrange(2, p)
        nonresidues = [z * r % p for r in residues]
        for a in residues:
            r = sqrt_mod_prime(a, p)
            assert r == _old_sqrt_mod_prime(a, p) and r * r % p == a, (a, p)
        for a in nonresidues:
            assert sqrt_mod_prime(a, p) is None and _old_sqrt_mod_prime(a, p) is None, (a, p)
    assert classes == {1, 3, 5, 7}


def test_smallest_nonresidue_matches_euler_criterion_below_10_4():
    for p in primes_below(10**4)[1:]:
        u = 2
        while pow(u, (p - 1) // 2, p) == 1:
            u += 1
        assert smallest_nonresidue(p) == u, p


def test_sqrt_mod_prime_searches_for_the_non_residue_once_per_prime(monkeypatch):
    # at 1009 (least non-residue 11, a 2^4 tower) most roots need
    # Tonelli-Shanks' c; the search for 11 runs on the first of them only
    calls = []
    real = rational._jacobi
    monkeypatch.setattr(rational, "_jacobi", lambda a, n: calls.append((a, n)) or real(a, n))
    smallest_nonresidue.cache_clear()
    for a in range(1, 1001):
        sqrt_mod_prime(a, 1009)
    assert calls == [(u, 1009) for u in range(2, 12)]


def test_correspondence_closed_form_matches_the_hand_table_below_10_4():
    for p in primes_below(10**4):
        assert ext_char_correspondence(p) == ext_char_table_by_hand(p), p


def test_attached_character_closed_form_matches_the_square_class_search():
    # seeded d of height <= 10^6 with a factor p^k, |k| <= 3, in the
    # numerator or the denominator
    rng = random.Random(30)
    for p in (2, 3, 5, 7, 11, 13, 1009, 1013):
        exponents = [k for k in range(-3, 4) if p ** abs(k) <= 10**6]
        for _ in range(600):
            k = rng.choice(exponents)
            bound = 10**6 // p ** abs(k)
            d = Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.randint(1, bound))
            d *= Fraction(p) ** k
            assert LocalCharacter.attached_to_extension(d, p) == attached_character_by_search(d, p), (d, p)


def _old_crt_pair(r1, m1, r2, m2):
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return (r1 + m1 * t) % (m1 * m2)


def _old_sqrt_mod_squarefree_general(a, b, primes):
    """The pairwise-CRT enumeration that the CRT basis replaced: every
    combination of the roots mod each prime, glued one prime at a time with
    one modular inverse per combination, then the least folded root."""
    b = abs(b)
    residues = [(0, 1)]
    for p in primes:
        if p == 2:
            roots = [a % 2]
        elif a % p == 0:
            roots = [0]
        else:
            r = sqrt_mod_prime(a, p)
            if r is None:
                return None
            roots = [r, p - r] if r != p - r else [r]
        residues = [(_old_crt_pair(d, m, r, p), m * p) for d, m in residues for r in roots]
    candidates = []
    for d, m in residues:
        assert m == b
        d %= b
        if 2 * d > b:
            d = b - d
        candidates.append(d)
    return min(candidates)


def _any_root(d, ps, b, rng):
    """A root of the same a mod b as the root d, with a random sign mod each
    prime of b and a random multiple of b added: what a caller may carry."""
    b = abs(b)
    root = rng.randint(-3, 3) * b
    for p in ps:
        q = b // p
        root += rng.choice((1, -1)) * d * q * pow(q, -1, p)
    return root


def test_crt_basis_matches_the_pairwise_enumeration():
    # b of 1 to 8 primes, even in a third of the draws, of either sign; a is
    # 0, a multiple of one prime of b, a square plus a multiple of b (so a
    # root exists), or arbitrary.  In a third of the draws with a root, a
    # root is carried in too, drawn from a stream of its own, and must give
    # the same least root.
    rng, carry = random.Random(20261019), random.Random(1019)
    primes = primes_below(200)
    kinds = [0, 0, 0, 0]
    carried = 0
    for _ in range(4000):
        ps = rng.sample(primes, rng.randint(1, 8))
        if rng.random() < 0.3 and 2 not in ps:
            ps[0] = 2
        ps.sort()
        b = math.prod(ps) * rng.choice((1, -1))
        kind = rng.randrange(4)
        if kind == 0:
            a = 0
        elif kind == 1:
            a = rng.choice(ps) * rng.randint(-10**6, 10**6)
        elif kind == 2:
            a = rng.randint(0, 10**6) ** 2 + rng.randint(-5, 5) * b
        else:
            a = rng.randint(-10**12, 10**12)
        got = rational._sqrt_mod_squarefree_general(a, b, ps)
        assert got == _old_sqrt_mod_squarefree_general(a, b, ps), (a, b, ps)
        assert got is not None or kind != 2, (a, b)
        if got is not None:
            assert (got * got - a) % b == 0 and 0 <= 2 * got <= abs(b), (a, b, got)
            kinds[kind] += 1
            if carry.random() < 1 / 3:
                root = _any_root(got, ps, b, carry)
                assert rational._sqrt_mod_squarefree_general(a, b, ps, root) == got, (a, b, root)
                carried += 1
    assert min(kinds) > 100, kinds  # every kind of input reached a root
    assert carried > 500, carried


def test_one_prime_root_search_matches_the_pairwise_enumeration(monkeypatch):
    # b = +-p returns before any CRT basis is built: b = +-2, p | a, a
    # residue (alone and with a carried root) and a non-residue, against the
    # enumeration and, for p < 200, the least root by search
    rng = random.Random(1009)
    primes = primes_below(200) + [1009, 10007, 999983, 2**31 - 1, 2**61 - 1]
    for p in primes:
        for b in (p, -p):
            cases = [rng.randint(-10**6, 10**6) * p, 0]
            if p == 2:
                cases += [rng.randint(-10**6, 10**6) for _ in range(10)]
            else:
                for _ in range(10):
                    x = rng.randrange(1, p)
                    a = x * x + rng.randint(-5, 5) * p
                    cases.append(a)
                    z = rng.randrange(1, p)
                    while sqrt_mod_prime(z, p) is not None:
                        z = rng.randrange(1, p)
                    cases.append(z + rng.randint(-5, 5) * p)
            for a in cases:
                got = rational._sqrt_mod_squarefree_general(a, b, [p])
                assert got == _old_sqrt_mod_squarefree_general(a, b, [p]), (a, b)
                if p < 200:
                    roots = [d for d in range(p // 2 + 1) if (d * d - a) % p == 0]
                    assert got == (roots[0] if roots else None), (a, b)
                if got is not None:
                    root = _any_root(got, [p], b, rng)
                    assert rational._sqrt_mod_squarefree_general(a, b, [p], root) == got
    # with a carried root no exponentiation runs: no basis inverse, no root
    p = Prime(10007)
    calls = []
    monkeypatch.setattr(rational, "pow", lambda *args: calls.append(args) or pow(*args),
                        raising=False)
    assert rational._sqrt_mod_squarefree_general(3**2 + 7 * p, -p, [p], 3 + 5 * p) == 3
    assert rational._sqrt_mod_squarefree_general(5 * p, p, [p]) == 0
    assert calls == []


# ---------------------------------------------------------------------------
# Legendre descent: carrying each frame's d down against a fresh least root
# at every level


def _old_descent(a, b, primes_a, primes_b, depth=0):
    """The descent before it carried d down: a fresh least root of a mod b
    at every level, and c split through rational_factor_exponents."""
    assert depth < 64
    if a == 1:
        return 1, 0, 1, depth
    if b == 1:
        return 0, 1, 1, depth
    if abs(a) > abs(b):
        y, x, z, reached = _old_descent(b, a, primes_b, primes_a, depth)
        return x, y, z, reached
    d = rational._sqrt_mod_squarefree_general(a, b, primes_b)
    if d * d == a:
        return 1, 0, d, depth
    c = (d * d - a) // b
    e, f, _, primes_e = rational._squarefree_core(*rational_factor_exponents(c))
    X, Y, Z, reached = _old_descent(a, e, primes_a, primes_e, depth + 1)
    x, y, z = conic.descent_step(conic.DescentFrame(a, b, c, d), (X * f, Y, Z * f), "backward")
    if z == 0:
        x, y, z = (1 - b) * x, (1 + b) * y, 2 * b * y
    g = math.gcd(x, y, z)
    return x // g, y // g, z // g, reached


def _solvable_squarefree_pairs(seed, count):
    """Signed squarefree a, b of one to three primes of 10-48 bits, with
    every Hilbert symbol +1, and their primes."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a, b = (rng.choice((1, -1)) * math.prod(
            _next_prime(rng.getrandbits(rng.randint(10, 48 // k)) | 1 << 9) for _ in range(k))
            for k in (rng.randint(1, 3), rng.randint(1, 3)))
        fa, fb = factorize(a), factorize(b)
        if (fa.is_squarefree() and fb.is_squarefree() and math.gcd(a, b) == 1
                and not hilbert_vector(a, b).minus_places):
            pairs.append((a, b, [p for p, _ in fa], [p for p, _ in fb]))
    return pairs


_DESCENT_PAIRS = _solvable_squarefree_pairs(20261019, 300)


def test_descent_matches_the_fresh_root_descent():
    depths = []
    for a, b, primes_a, primes_b in _DESCENT_PAIRS:
        x, y, z, frames = conic._descent(a, b, primes_a, primes_b)
        assert (x, y, z, len(frames)) == _old_descent(a, b, primes_a, primes_b), (a, b)
        depths.append(len(frames))
    assert max(depths) >= 4  # the pairs reach deep descents


def test_descent_takes_no_root_mod_a_prime_of_a_frames_e(monkeypatch):
    # A level that keeps the order of the form its frame hands down takes
    # its roots from that frame's d; only the top level and a level that
    # swaps call sqrt_mod_prime, once for each odd prime of b that does not
    # divide a.  The levels are read from the frames afterwards.
    calls, expected, fresh, carried = [], [], [], []
    saved = 0
    root = rational.sqrt_mod_prime
    monkeypatch.setattr(rational, "sqrt_mod_prime",
                        lambda a, p: calls.append((a % p, p)) or root(a, p))
    for a, b, primes_a, primes_b in _DESCENT_PAIRS[:100]:
        calls.clear()
        *_, frames = conic._descent(a, b, primes_a, primes_b)
        needed_fresh, needed_carried = [], []
        for level, (frame, _, swapped) in enumerate(frames):
            needed = [(frame.a % p, p) for p in rational._exponent_dict(frame.b)
                      if p != 2 and frame.a % p]
            (needed_fresh if level == 0 or swapped else needed_carried).extend(needed)
        carried += [call for call in calls if call in needed_carried and call not in needed_fresh]
        fresh += sorted(calls)
        expected += sorted(needed_fresh)
        saved += len(needed_carried)
    assert carried == []
    assert fresh == expected
    assert saved > len(fresh) // 4, (saved, len(fresh))


def _descent_inputs():
    """(a0, b0, primes_a, primes_b) for _DESCENT_PAIRS and for each solvable
    pair of the [-40, 40]^2 grid, and the pair solve_conic takes."""
    for a, b, primes_a, primes_b in _DESCENT_PAIRS:
        yield (a, b, primes_a, primes_b), (a, b)
    for a in range(-40, 41):
        for b in range(-40, 41):
            if a and b and not hilbert_vector(a, b).minus_places:
                a0, b0 = (rational._squarefree_core(*rational_factor_exponents(t))[0]
                          for t in (a, b))
                primes = [[p for p, _ in factorize(t)] for t in (a0, b0)]
                yield (a0, b0, *primes), (a, b)


def test_descent_frames_chain_from_the_input_to_a_base_form():
    # each frame's <a, e>, e the squarefree part of c = e f^2, is the next
    # frame's form, swapped where that frame says so; the first frame's is
    # the input's, the last one's has a coefficient 1; and the list is one
    # frame per level of solve_conic's descent_depth
    for (a, b, primes_a, primes_b), pair in _descent_inputs():
        *_, frames = conic._descent(a, b, primes_a, primes_b)
        form = (a, b)
        for frame, f, swapped in frames:
            assert (frame.a, frame.b) == (form[::-1] if swapped else form), (a, b)
            e = frame.c // (f * f)
            assert e * f * f == frame.c, (a, b)
            assert all(v == 1 for v in rational._exponent_dict(e).values()), (a, b)
            form = (frame.a, e)
        assert 1 in form, (a, b)
        assert len(frames) == solve_conic(*pair).descent_depth, (a, b)


# ---------------------------------------------------------------------------
# the one local reduction: local_unit and its callers against the old
# vp_split route of oracles.old_vp_split and oracles.old_unit_residue


def _old_square_class(x, p):
    if p < 2 or not rational.is_probable_prime(p):
        raise ValueError(f"{p} is not a prime")
    split = old_vp_split(x, p)
    if split is INFINITY:
        raise ValueError("x must be nonzero")
    v = split[0]
    return _class_rep(p, v, old_unit_residue(x, 8 if p == 2 else p, p, v))


def _old_from_rational(x, p, precision):
    if p < 2 or not rational.is_probable_prime(p):
        raise ValueError(f"{p} is not a prime")
    x = Fraction(x)
    if x == 0:
        return PAdicElement.zero(p)
    v = old_vp_split(x, p)[0]
    return PAdicElement(p, v, old_unit_residue(x, p**precision, p, v), precision)


def _old_p_frac_part(x, p):
    if not rational.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v = old_vp_split(x, p)[0]
    if v >= 0:
        return Fraction(0)
    q = p ** (-v)
    return Fraction(old_unit_residue(x, q, p, v), q)


def _outcome(fn, *args):
    """fn's value, or the class of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


LOCAL_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 1009])
# small factors of 2 and of p in numerator and denominator, so that units
# that are even at odd p (the lambda_4/lambda_8 case) come up often
LOCAL_INTS = st.builds(
    lambda s, t, u: s * 2**t * u,
    st.sampled_from([-1, 1]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=10**6),
)


def _at(p, v, num, den):
    """num/den * p^v as an int when it is one, else as a Fraction."""
    x = Fraction(num, den) * Fraction(p) ** v
    return x.numerator if x.denominator == 1 else x


@settings(max_examples=300, deadline=None)
@given(VALUATION_PRIMES, st.integers(min_value=-400, max_value=400), NONZERO, NONZERO,
       st.integers(min_value=1, max_value=6))
def test_local_unit_matches_vp_split_then_unit_residue(p, v, num, den, k):
    x = _at(p, v, num, abs(den))
    r, u = vp_split(x, p)
    for m in (p**k, 8) if p == 2 else (p**k,):
        assert rational.local_unit(x, p, m) == (r, unit_residue(u, m))
        assert rational.local_unit(-x, p, m) == (r, unit_residue(-u, m))
    assert vp(x, p) == r


def test_local_unit_rejects_zero():
    for p in (2, 3):
        with pytest.raises(ValueError):
            rational.local_unit(0, p, p)
        with pytest.raises(ValueError):
            rational.local_unit(Fraction(0), p, 8)


def _hilbert_candidates(a, b):
    places = {INF_PLACE, *(Place.finite(q) for q in (2, 3, 5, 7))}
    for x in (a, b):
        places.update(Place.finite(q) for q, _ in rational_factor_exponents(x)[1])
    return sorted(places)


@settings(max_examples=200, deadline=None)
@given(LOCAL_PRIMES, st.integers(-5, 5), LOCAL_INTS, LOCAL_INTS,
       LOCAL_PRIMES, st.integers(-5, 5), LOCAL_INTS, LOCAL_INTS)
def test_hilbert_symbol_matches_per_place_oracle(p, v, num, den, q, w, num2, den2):
    a, b = _at(p, v, num, abs(den)), _at(q, w, num2, abs(den2))
    for place in _hilbert_candidates(a, b):
        expected = _per_place_symbol(Fraction(a), Fraction(b), place)
        assert hilbert_symbol(a, b, place) == expected, (a, b, place)
        assert hilbert_symbol(Fraction(a), Fraction(b), place) == expected


@settings(max_examples=400, deadline=None)
@given(LOCAL_PRIMES, st.integers(-3, 3), LOCAL_INTS, LOCAL_INTS,
       st.sets(st.sampled_from([4, 8, "p"])), st.booleans(), st.booleans())
def test_local_callers_match_the_vp_split_route(p, v, num, den, factors, nu, zero):
    x = 0 if zero else _at(p, v, num, abs(den))
    # the factors local at p: lambda_4 and lambda_8 at 2, lambda_p elsewhere
    fs = frozenset(p if f == "p" else f for f in factors if (f == "p") != (p == 2))
    chi = LocalCharacter(Place.finite(p), QuadraticCharacter(fs), int(nu))
    assert _outcome(chi.value, x) == _outcome(old_eval_local, chi, x), (chi, x)
    assert _outcome(legendre, x, p) == _outcome(old_legendre, x, p), (x, p)
    assert _outcome(square_class, x, p) == _outcome(_old_square_class, x, p), (x, p)
    assert _outcome(p_frac_part, x, p) == _outcome(_old_p_frac_part, x, p), (x, p)
    for precision in (1, 3, 20):
        new = _outcome(PAdicElement.from_rational, x, p, precision)
        assert new == _outcome(_old_from_rational, x, p, precision), (x, p, precision)


def test_every_local_character_matches_the_vp_split_route():
    # each local character at p (8 at 2, 4 at an odd p) on seeded rationals
    # of height <= 10^6 times p^k, |k| <= 3, and on 0
    rng = random.Random(32)
    for p in (2, 3, 5, 7, 1009, 1013):
        subsets = ((), (4,), (8,), (4, 8)) if p == 2 else ((), (p,))
        chars = [LocalCharacter(Place.finite(p), QuadraticCharacter(frozenset(fs)), nu)
                 for fs in subsets for nu in (0, 1)]
        xs = [0] + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
                    * Fraction(p) ** rng.randint(-3, 3) for _ in range(300)]
        assert len(set(chars)) == len(chars) == (8 if p == 2 else 4)
        for chi in chars:
            for x in xs:
                assert _outcome(chi.value, x) == _outcome(old_eval_local, chi, x), (chi, x)


def _old_eval(chi, x):
    """QuadraticCharacter.eval through eps4, eps8 and eps_p, one factor at
    a time, each reading x again."""
    if x == 0:
        raise ValueError("x must be nonzero")
    e = 0
    for f in chi.factors:
        e += eps4(x) if f == 4 else eps8(x) if f == 8 else eps_p(x, f)
    return (-1) ** (e % 2)


@settings(max_examples=400, deadline=None)
@given(LOCAL_PRIMES, st.integers(-3, 3), LOCAL_INTS, LOCAL_INTS,
       st.sets(st.sampled_from([4, 8, 3, 5, 7, 1009])), st.booleans())
def test_eval_matches_the_per_factor_route(p, v, num, den, factors, zero):
    x = 0 if zero else _at(p, v, num, abs(den))
    chi = QuadraticCharacter(frozenset(factors))
    assert _outcome(chi.eval, x) == _outcome(_old_eval, chi, x), (chi, x)


def _fraction_verify(w, a, b):
    """LocalWitness.verify in Fraction arithmetic."""
    err = Fraction(a) * w.x**2 + Fraction(b) * w.y**2 - 1
    if w.place.is_infinite:
        return abs(err) <= WITNESS_TOLERANCE if w.approximate else err == 0
    return err == 0 or vp(err, w.place.prime) >= w.precision


@settings(max_examples=150, deadline=None)
@given(LOCAL_PRIMES, LOCAL_INTS, LOCAL_INTS, LOCAL_INTS, LOCAL_INTS,
       st.integers(min_value=4, max_value=40), st.integers(min_value=-6, max_value=6))
def test_witness_verify_in_integers_matches_fraction_evaluation(p, an, ad, bn, bd, prec, dk):
    a, b = Fraction(an, abs(ad)), Fraction(bn, abs(bd))
    w = local_solve_witness(a, b, p, precision=prec)
    if w is None:
        return
    assert w.verify(a, b) and _fraction_verify(w, a, b)
    for k in (prec + dk, prec, prec - 1, dk):
        for t in (1, -3, Fraction(1, 7)):
            shift = t * Fraction(p) ** k
            for moved in (
                LocalWitness(w.place, w.x + shift, w.y, w.precision),
                LocalWitness(w.place, w.x, w.y - shift, w.precision),
                LocalWitness(w.place, w.x + shift, w.y + shift, w.precision + dk),
            ):
                assert moved.verify(a, b) == _fraction_verify(moved, a, b), (a, b, p, k, t)


@settings(max_examples=300, deadline=None)
@given(LOCAL_PRIMES, small_rationals, small_rationals, small_rationals, small_rationals,
       st.integers(min_value=-3, max_value=8))
def test_witness_verify_in_integers_on_arbitrary_points(p, a, b, x, y, prec):
    w = LocalWitness(Place.finite(p), x, y, prec)
    assert w.verify(a, b) == _fraction_verify(w, a, b)
    for approximate in (False, True):
        w = LocalWitness(INF_PLACE, x, y, 0, approximate)
        assert w.verify(a, b) == _fraction_verify(w, a, b), (a, b, x, y, approximate)


def test_real_witness_verify_in_integers_matches_fraction_evaluation():
    # exact and approximate real witnesses, as found and with one coordinate
    # moved by 1/d^2, d its denominator: an exact point no longer solves; an
    # approximate one, whose nonzero coordinate has a denominator near 2^64,
    # stays within WITNESS_TOLERANCE unless its zero coordinate moves by 1
    rng = random.Random(1272)
    seen = set()
    for _ in range(300):
        a, b = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))
                for _ in range(2))
        w = local_solve_witness(a, b, "inf")
        if w is None:
            continue
        seen.add(w.approximate)
        assert w.verify(a, b) and _fraction_verify(w, a, b), (a, b)
        for i in (0, 1):
            point = [w.x, w.y]
            d = point[i].denominator
            point[i] += Fraction(1, d * d)
            moved = LocalWitness(INF_PLACE, *point, 0, w.approximate)
            assert moved.verify(a, b) == _fraction_verify(moved, a, b), (a, b, i)
            assert moved.verify(a, b) == (w.approximate and d > 1), (a, b, i)
    assert seen == {False, True}
    # errors at, just inside and just outside the tolerance, on both sides:
    # a = (1 + err - b y^2) / x^2 puts a x^2 + b y^2 - 1 at err exactly
    tol, eps = Fraction(WITNESS_TOLERANCE), Fraction(1, 10**30)
    for x, y, b in ((Fraction(1), Fraction(0), 3), (Fraction(3, 7), Fraction(-5, 11), -2),
                    (Fraction(2**70 + 1, 2**35), Fraction(1, 3**40), Fraction(7, 5))):
        for err, inside in ((0, True), (tol, True), (tol - eps, True), (tol + eps, False),
                            (-tol, True), (-tol + eps, True), (-tol - eps, False)):
            a = (1 + err - b * y * y) / (x * x)
            for approximate in (False, True):
                w = LocalWitness(INF_PLACE, x, y, 0, approximate)
                assert w.verify(a, b) == _fraction_verify(w, a, b), (x, y, b, err)
                assert w.verify(a, b) == (inside if approximate else err == 0), (x, y, b, err)


# ---------------------------------------------------------------------------
# local_solve_witness: outputs recorded before each input was reduced at p
# only once, one row per branch of the square-class case table, and a hash
# over a seeded sweep of primes, p-power scalings and precisions

GOLDEN_WITNESSES = [
    (2, 7, 7, 6, Fraction(1, 116646786350), 0),  # unit a is a square
    (3, 5, 7, 6, 136819206063, 1),  # two non-residues
    (5, 3, 2, 8, 9593, 2),  # two units at 2
    (3, 6, 2, 8, 26893, 1),  # unit and uniformizer at 2
    (-6, 10, 2, 8, Fraction(3525, 2), Fraction(1, 10)),  # two uniformizers at 2
]

WITNESS_SWEEP_SHA256 = "96df9bd8602342cb6ff4c23a553365810292daafa53a1e77e9101bf117575501"


@pytest.mark.parametrize("a, b, p, precision, x, y", GOLDEN_WITNESSES)
def test_local_witness_golden_branches(a, b, p, precision, x, y):
    w = local_solve_witness(a, b, p, precision)
    assert (w.x, w.y) == (x, y)
    assert w.verify(a, b)


def test_local_witness_sweep_hash():
    rng = random.Random(12)
    h = hashlib.sha256()
    for p in (2, 3, 5, 7, 1009, 1013):
        for precision in (1, 2, 5, 32, 128):
            for i in range(-3, 4):
                for j in range(-3, 4):
                    a, b = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))
                            * Fraction(p) ** e for e in (i, j))
                    w = local_solve_witness(a, b, p, precision)
                    h.update(f"{a} {b} {p} {precision}: {w and (w.x, w.y)}\n".encode())
    assert h.hexdigest() == WITNESS_SWEEP_SHA256


def test_local_witness_reduces_each_input_once(local_calls, monkeypatch):
    # a finite-place witness reads a and b from one local_unit call each,
    # and neither the symbol, the square classes nor the roots reduce them
    # again: the case table and the roots work on those two residues
    again = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            again.append(name)
            return real(*args, **kwargs)
        return wrapper

    for owner, name in (("hilbert", "hilbert_symbol"), ("padic", "square_class"),
                        ("padic", "padic_sqrt")):
        wrapper = counting(name, getattr(importlib.import_module(f"qrlab.{owner}"), name))
        for module in ("padic", "hilbert"):
            module = importlib.import_module(f"qrlab.{module}")
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    real_from_rational = PAdicElement.__dict__["from_rational"].__func__
    monkeypatch.setattr(PAdicElement, "from_rational",
                        classmethod(counting("from_rational", real_from_rational)))
    # the roots are lifted on plain ints: no polynomial, no element and no
    # hensel_lift call on the way
    for cls in (IntPolynomial, PAdicElement):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    monkeypatch.setattr(padic, "hensel_lift", counting("hensel_lift", hensel_lift))
    cases = [row[:4] for row in GOLDEN_WITNESSES] + [
        (5, 2, 2, 8),  # symbol -1
        (4, 3, 7, 10), (1, 3, 2, 10), (9, 1, 5, 1),  # roots that are exact integers
        (Fraction(6, 49), Fraction(-15, 7), 7, 32), (Fraction(2, 9), 3 * 81, 3, 5),
        (7, 2, 1009, 40), (-3 * 1013**3, Fraction(5, 1013), 1013, 128),
    ]
    for a, b, p, precision in cases:
        for v in (p, Place.finite(p)):
            local_calls["local_unit"] = 0
            local_solve_witness(a, b, v, precision)
            assert local_calls["local_unit"] == 2, (a, b, p, local_calls)
            assert again == [], (a, b, p, again)


def test_unit_sqrt_lifts_in_its_own_loop_beside_hensel_lift(monkeypatch):
    # hensel_lift evaluates f and f', and unit_sqrt lifts in a loop of its
    # own in rational, on the same schedule: it evaluates no polynomial, and
    # the two roots agree up to sign
    evaluated = []
    evaluate = IntPolynomial.__call__
    monkeypatch.setattr(IntPolynomial, "__call__",
                        lambda g, x: evaluated.append(g) or evaluate(g, x))
    assert padic.unit_sqrt is rational.unit_sqrt
    for u, p, k, r0 in ((2, 7, 20, 3), (17, 2, 10, 1), (3 * 1013 + 4, 1013, 40, 2)):
        f = IntPolynomial((-u, 0, 1))
        lifted = hensel_lift(f, r0, k, p=p).integer_rep()
        assert set(evaluated) == {f, f.derivative()}, (u, p, k)
        evaluated.clear()
        root = unit_sqrt(u, Prime(p), k)
        assert evaluated == [], (u, p, k)
        mod = p ** (k - 1) if p == 2 else p**k
        assert root in (lifted % mod, -lifted % mod)
