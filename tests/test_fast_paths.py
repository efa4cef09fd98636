"""Differential tests that pin the factor-once fast paths to slower, older
routes: hilbert_vector against brute-force local solvability and against the
per-place evaluation through legendre/eps4/eps8, factorize against trial
division and sympy, and solve_conic against recorded certificate points."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_prime_trial, slow_hilbert
from qrlab.conic import solve_conic
from qrlab.hilbert import hilbert_vector
from qrlab.rational import (
    INF_PLACE,
    Place,
    factorize,
    rational_factor_exponents,
    vp_split,
)
from qrlab.symbols import eps4, eps8, eps_inf, eps_p

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
