"""Differential tests that pin the fast paths to slower, older routes:
hilbert_vector against brute-force local solvability and against the
per-place evaluation through legendre/eps4/eps8, factorize against trial
division and sympy (with the cofactors that trial division to 10^3 leaves
to Miller-Rabin and rho), solve_conic against recorded certificate points,
hensel_lift's precision-doubling schedule against the per-step loop it
replaced, the logarithmic valuation against the one-division-per-digit
loop, local_unit and its callers against the old route that built the unit
as a Fraction, and LocalWitness.verify in integers against its Fraction
evaluation.  Also the certified-prime type Prime, and how many primality
tests each public route makes."""

import hashlib
import importlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_prime_trial, primes_below, slow_hilbert
from qrlab import rational
from qrlab.conic import solve_conic
from qrlab.analytic import LocalCharacter, local_root_number, p_frac_part, root_number_product
from qrlab.hilbert import (
    LocalWitness,
    ext_char_correspondence,
    hilbert_symbol,
    hilbert_vector,
    local_solve_witness,
)
from qrlab.padic import (
    IntPolynomial,
    PAdicElement,
    PrecisionLossError,
    _class_rep,
    digits,
    from_digits,
    hensel_lift,
    padic_sqrt,
    square_class,
    teichmuller,
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
    eps_p,
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


# ---------------------------------------------------------------------------
# factorize


def test_factorize_exhaustive_small():
    prime = {}
    for n in range(2, 10**5 + 1):
        f = factorize(n)
        assert f.value() == n
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
    # two must fail Miller-Rabin and be split by rho
    assert TRIAL_DIVISION_LIMIT == 10**3
    calls = []
    for name in ("is_probable_prime", "_pollard_rho"):
        real = getattr(rational, name)
        monkeypatch.setattr(rational, name,
                            lambda n, real=real, name=name: calls.append((name, n)) or real(n))
    for n, factors in ((1009**2, ((1009, 2),)), (1009 * 1013, ((1009, 1), (1013, 1)))):
        calls.clear()
        assert factorize(n).factors == factors
        assert calls == [("is_probable_prime", n), ("_pollard_rho", n)], n


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


def test_small_primes_are_the_primes_up_to_the_trial_limit():
    assert rational._SMALL_PRIMES == tuple(
        n for n in range(TRIAL_DIVISION_LIMIT + 1) if is_prime_trial(n)
    )
    assert len(rational._SMALL_PRIMES) == 168
    assert rational._SMALL_PRIMORIAL == math.prod(rational._SMALL_PRIMES)


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


def test_factorize_and_places_yield_primes():
    for n in (2 * 3**4 * 1009, -(2**61 - 1) * 1000003, 1009**2, 2**96):
        assert all(type(p) is Prime for p, _ in factorize(n).factors), n
        assert all(type(p) is Prime for p, _ in rational_factor_exponents(Fraction(7, n))[1])
    for p in (2, 3, 1009):
        assert type(Place.finite(p).prime) is Prime
        assert type(Place.parse(str(p)).prime) is Prime
        assert type(PAdicElement.from_rational(Fraction(1, 3), p, 4).prime) is Prime


def test_trusted_place_equals_the_validated_one():
    for p in (2, 3, 1009, 2**61 - 1):
        assert Place.finite(Prime(p)) == Place.finite(p)
        assert hash(Place.finite(Prime(p))) == hash(Place.finite(p))
        assert Place.finite(p).json_value() == p and str(Place.finite(p)) == str(p)
    for bad in (1, 9, PSI_13):
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
            lambda: from_digits([1, 1], p),
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
    rng = random.Random(7)
    for p in (2, 3, 13, 1009, 1013):
        for _ in range(20):
            a, b = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))
                    for _ in range(2))
            primality_calls.clear()
            local_solve_witness(a, b, p, precision=64)
            assert primality_calls == [p], (a, b, p)
            place = Place.finite(p)
            primality_calls.clear()
            local_solve_witness(a, b, place, precision=64)
            assert primality_calls == [], (a, b, p)


def test_padic_arithmetic_tests_no_prime(primality_calls):
    x = PAdicElement(1009, 1, 5, 20)
    y = PAdicElement.from_rational(Fraction(7, 3), 1009, 20)
    primality_calls.clear()
    for z in (x + y, x - y, x * y, x / y, x ** 3, x ** -2, -x, x.truncate(5)):
        assert z.prime == 1009
    assert padic_sqrt(y * y) is not None
    assert len(digits(y, "teichmuller")) == 20
    square_class(y)
    assert primality_calls == []


def test_root_numbers_test_no_prime_once_the_character_is_built(primality_calls):
    chars = [LocalCharacter.attached_to_extension(d, p)
             for d, p in ((-1, 2), (2, 2), (-10, 2), (3, 3), (-7, 7), (7 * 5, 1009), (1013, 1013))]
    chars += [LocalCharacter(Place.finite(p), QuadraticCharacter(frozenset({p}), nu))
              for p in (3, 101) for nu in (None, p)]
    primality_calls.clear()
    for chi in chars:
        assert abs(local_root_number(chi).modulus() - 1) < 1e-9
    for d in (-1, 2, -15, 6 * 101, -(2 * 3 * 5 * 7 * 11 * 13)):
        assert root_number_product(d).distance(1) < 1e-9
    assert primality_calls == []


@pytest.fixture
def local_calls(monkeypatch):
    """Counts QuadraticCharacter constructions, and vp and local_unit calls
    made through every qrlab binding."""
    calls = {"QuadraticCharacter": 0, "vp": 0, "local_unit": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    real_post_init = QuadraticCharacter.__post_init__
    monkeypatch.setattr(QuadraticCharacter, "__post_init__",
                        counting("QuadraticCharacter", real_post_init))
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
        for nu in (None, p):
            chi = LocalCharacter(Place.finite(p), QuadraticCharacter(frozenset({p}), nu))
            for gamma in (None, Fraction(5 * p, 7 if p != 7 else 11)):
                for key in local_calls:
                    local_calls[key] = 0
                local_root_number(chi, gamma=gamma)
                counts.add((nu is None, gamma is None, tuple(sorted(local_calls.items()))))
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


def _assert_lift_matches(f, x0, N: int, p: int):
    seed = x0.integer_rep() if isinstance(x0, PAdicElement) else x0
    try:
        want = _per_step_lift(f, seed, N, p)
    except ValueError:
        with pytest.raises(ValueError):
            hensel_lift(f, x0, N, p=p)
        return
    if want == 0 and f(seed) != 0:
        with pytest.raises(PrecisionLossError):
            hensel_lift(f, x0, N, p=p)
        return
    got = hensel_lift(f, x0, N, p=p)
    if f(seed) == 0:
        # the exact-root shortcut keeps N digits of the exact root's unit
        exact = PAdicElement.zero(p) if seed == 0 else PAdicElement.from_rational(seed, p, N)
        assert got == exact, (f, x0, N, p)
        return
    assert got.integer_rep() == want and got.abs_precision == N, (f, x0, N, p)


def _random_liftable(rng: random.Random, p: int):
    """(f, x0) with f(x0) = 0 (mod p^k) for a random k >= 1: f = g - g(x0) + c
    for a random g and c = p^k * r, so v_p(f(x0)) >= k and f'(x0) = g'(x0)."""
    x0 = rng.randrange(-(p**6), p**6)
    g = [rng.randrange(-(p**4), p**4) for _ in range(rng.randint(2, 6))]
    c = p ** rng.randint(1, 24) * rng.randrange(-50, 51)
    g[0] += c - IntPolynomial(tuple(g))(x0)
    return IntPolynomial(tuple(g)), x0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1009])
def test_hensel_matches_per_step_loop_random(p):
    rng = random.Random(40000 + p)
    for _ in range(400):
        f, x0 = _random_liftable(rng, p)
        _assert_lift_matches(f, x0, rng.randint(1, 60), p)


def test_hensel_matches_per_step_loop_delta_2_to_4():
    rng = random.Random(4918)
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
    # delta from the seed instead: T^2 - a near a root divisible by p
    for p in (3, 5, 7):
        for _ in range(40):
            x0 = p * rng.randrange(1, p**4) * (1 if rng.random() < 0.5 else p)
            delta = _naive_vp(2 * x0, p)
            a = x0 * x0 + p ** (2 * delta + 1 + rng.randint(0, 4)) * rng.randrange(1, 10**4)
            _assert_lift_matches(IntPolynomial((-a, 0, 1)), x0, rng.randint(1, 50), p)


def test_hensel_matches_per_step_loop_from_padic_seeds():
    rng = random.Random(1404)
    for p in (2, 3, 7, 1009):
        for _ in range(60):
            f, x0 = _random_liftable(rng, p)
            seed = PAdicElement.from_rational(x0 % p**12 or p**12, p, 40)
            _assert_lift_matches(f, seed, rng.randint(1, 40), p)


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
# modular square roots: Euler's criterion and Tonelli-Shanks against a search


def test_sqrt_core_matches_sqrt_mod_prime():
    # 17 and 97 are 1 mod 16 and 1 mod 32, so Tonelli-Shanks descends
    for p in (3, 5, 7, 13, 17, 97, 1009, 1013):
        roots = {r * r % p: r for r in range(1, (p + 1) // 2)}
        for a in range(1, p):
            assert sqrt_mod_prime(a, p) == roots.get(a), (a, p)
            assert sqrt_mod_prime(a + 5 * p, Prime(p)) == roots.get(a), (a, p)


# ---------------------------------------------------------------------------
# the one local reduction: local_unit and its callers against the old
# vp_split route, which built the unit as a Fraction and reduced it with
# unit_residue(x, m, p, v)


def _old_vp_split(x, p):
    x = Fraction(x)
    if x == 0:
        return INFINITY
    r, num = int_valuation(x.numerator, p)
    if r:
        return r, Fraction(num, x.denominator)
    r, den = int_valuation(x.denominator, p)
    return -r, Fraction(num, den)


def _old_unit_residue(x, m, p=1, v=0):
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if v > 0:
        num //= p**v
    elif v < 0:
        den //= p**-v
    if math.gcd(den, m) != 1 or math.gcd(num, m) != 1:
        raise ValueError(f"{x} is not a unit modulo {m}")
    return num * pow(den, -1, m) % m


def _old_legendre(a, p):
    if p == 2 or not rational.is_probable_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    split = _old_vp_split(a, p)
    if split is INFINITY:
        raise ValueError("a must be nonzero")
    r, u = split
    if r != 0:
        raise ValueError("not a unit")
    return 1 if pow(_old_unit_residue(u, p), (p - 1) // 2, p) == 1 else -1


def _old_eval_local(chi, x, p):
    split = _old_vp_split(x, p)
    if split is INFINITY:
        raise ValueError("x must be nonzero")
    m, u = split
    e = 0
    for f in chi.factors:
        if f == 4:
            e += (_old_unit_residue(u, 4) - 1) // 2
        elif f == 8:
            r = _old_unit_residue(u, 8)
            e += (r * r - 1) // 8 % 2
        else:
            if f != p:
                raise ValueError(f"factor {f} is not local at {p}")
            e += 0 if _old_legendre(u, f) == 1 else 1
    if chi.unramified_sign_prime is not None:
        if chi.unramified_sign_prime != p:
            raise ValueError("nu factor is not local at requested prime")
        e += m
    return (-1) ** (e % 2)


def _old_square_class(x, p):
    if p < 2 or not rational.is_probable_prime(p):
        raise ValueError(f"{p} is not a prime")
    split = _old_vp_split(x, p)
    if split is INFINITY:
        raise ValueError("x must be nonzero")
    v = split[0]
    return _class_rep(p, v, _old_unit_residue(x, 8 if p == 2 else p, p, v))


def _old_from_rational(x, p, precision):
    if p < 2 or not rational.is_probable_prime(p):
        raise ValueError(f"{p} is not a prime")
    x = Fraction(x)
    if x == 0:
        return PAdicElement.zero(p)
    v = _old_vp_split(x, p)[0]
    return PAdicElement(p, v, _old_unit_residue(x, p**precision, p, v), precision)


def _old_p_frac_part(x, p):
    if not rational.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v = _old_vp_split(x, p)[0]
    if v >= 0:
        return Fraction(0)
    q = p ** (-v)
    return Fraction(_old_unit_residue(x, q, p, v), q)


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
        if place.is_infinite:
            continue
        r = place.prime
        ea, eb = (PAdicElement.from_rational(x, r, 6) for x in (a, b))
        assert hilbert_symbol(ea, eb, r) == expected, (a, b, r)
        assert hilbert_symbol(ea, b, r) == expected
        assert hilbert_symbol(a, eb, r) == expected


@settings(max_examples=400, deadline=None)
@given(LOCAL_PRIMES, st.integers(-3, 3), LOCAL_INTS, LOCAL_INTS,
       st.sets(st.sampled_from([4, 8, "p", 3, 5])), st.booleans(), st.booleans())
def test_local_callers_match_the_vp_split_route(p, v, num, den, factors, nu, zero):
    x = 0 if zero else _at(p, v, num, abs(den))
    fs = frozenset(p if f == "p" else f for f in factors if (f, p) != ("p", 2))
    chi = QuadraticCharacter(fs, p if nu else None)
    assert _outcome(chi.eval_local, x, p) == _outcome(_old_eval_local, chi, x, p), (chi, x, p)
    assert _outcome(legendre, x, p) == _outcome(_old_legendre, x, p), (x, p)
    assert _outcome(square_class, x, p) == _outcome(_old_square_class, x, p), (x, p)
    assert _outcome(p_frac_part, x, p) == _outcome(_old_p_frac_part, x, p), (x, p)
    for precision in (1, 3, 20):
        new = _outcome(PAdicElement.from_rational, x, p, precision)
        assert new == _outcome(_old_from_rational, x, p, precision), (x, p, precision)


def _old_eval(chi, x):
    """QuadraticCharacter.eval through eps4, eps8 and eps_p, one factor at
    a time, each reading x again."""
    if x == 0:
        raise ValueError("x must be nonzero")
    e = 0
    for f in chi.factors:
        e += eps4(x) if f == 4 else eps8(x) if f == 8 else eps_p(x, f)
    if chi.unramified_sign_prime is not None:
        e += vp(x, chi.unramified_sign_prime)
    return (-1) ** (e % 2)


@settings(max_examples=400, deadline=None)
@given(LOCAL_PRIMES, st.integers(-3, 3), LOCAL_INTS, LOCAL_INTS,
       st.sets(st.sampled_from([4, 8, 3, 5, 7, 1009])), st.sampled_from([None, 2, 3, 7]),
       st.booleans())
def test_eval_matches_the_per_factor_route(p, v, num, den, factors, nu, zero):
    x = 0 if zero else _at(p, v, num, abs(den))
    chi = QuadraticCharacter(frozenset(factors), nu)
    assert _outcome(chi.eval, x) == _outcome(_old_eval, chi, x), (chi, x)


def test_eval_local_reads_lambda4_lambda8_on_the_whole_unit():
    # at p = 3 the unit 5 is 2 mod 3 but 1 mod 4 and 5 mod 8, and the unit 2
    # is not a 2-adic unit at all
    l4, l8 = QuadraticCharacter(frozenset({4})), QuadraticCharacter(frozenset({8}))
    assert l4.eval_local(Fraction(45), 3) == 1
    assert l8.eval_local(Fraction(5, 9), 3) == -1
    for chi in (l4, l8, l4.times(l8)):
        with pytest.raises(ValueError):
            chi.eval_local(18, 3)
        with pytest.raises(ValueError):
            chi.eval_local(Fraction(9, 2), 3)


def _fraction_verify(w, a, b):
    """LocalWitness.verify at a finite place, in Fraction arithmetic."""
    err = Fraction(a) * w.x**2 + Fraction(b) * w.y**2 - 1
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
