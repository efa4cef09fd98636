"""The acceptance gate: one test per top-level claim, each printing a
single pass/fail line (with elapsed time where a budget applies).

Run with plain pytest; the summary lines bypass output capture so they
always appear in the log.
"""

import random
import time
from fractions import Fraction

from oracles import is_prime_trial, primes_below, unit_group_product
from qrlab.analytic import (
    LocalCharacter,
    conductor_exponent,
    local_root_number,
    root_number_product,
    von_staudt_W,
)
from qrlab.conic import solve_conic
from qrlab.hilbert import (
    hilbert_symbol,
    hilbert_vector,
    local_solve_witness,
    is_local_norm,
)
from qrlab.padic import IntPolynomial, PAdicElement, hensel_lift, padic_sqrt, sqrt_series_1p8x, teichmuller
from qrlab.rational import INF_PLACE, Place, factorize, rational_factor_exponents, vp
from qrlab.symbols import (
    bost_demo,
    binomial_primality,
    ext_char_correspondence,
    gauss_lemma_sign,
    group_product_sign,
    lattice_counts,
    legendre,
    reciprocity_check,
)

SQUARE_CLASSES = {
    2: [1, 5, -1, -5, 2, 10, -2, -10],
    3: [1, 2, 3, 6],
    5: [1, 2, 5, 10],
    7: [1, 3, 7, 21],
    11: [1, 2, 11, 22],
}


class _Criterion:
    """Times a named check and prints exactly one summary line."""

    def __init__(self, capsys, number, name, budget=None):
        self.capsys, self.number, self.name, self.budget = capsys, number, name, budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        ok = exc_type is None and (self.budget is None or elapsed <= self.budget)
        stamp = f" [{elapsed:.2f}s" + (f" / {self.budget:.0f}s]" if self.budget else "]")
        with self.capsys.disabled():
            print(f"criterion {self.number:>2} {self.name}: {'PASS' if ok else 'FAIL'}{stamp}")
        if exc_type is None and self.budget is not None and elapsed > self.budget:
            raise AssertionError(f"over budget: {elapsed:.2f}s > {self.budget}s")
        return False


def test_01_reciprocity_scan(capsys):
    with _Criterion(capsys, 1, "reciprocity scan p,q < 1000", budget=10.0):
        primes = [p for p in primes_below(1000) if p > 2]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                assert reciprocity_check(p, q), (p, q)
        assert len(primes) == 167


def test_02_gauss_lemma_and_lattice(capsys):
    with _Criterion(capsys, 2, "Gauss lemma oracle and lattice counts"):
        for p in (q for q in primes_below(200) if q > 2):
            for a in range(1, p):
                assert gauss_lemma_sign(a, p) == legendre(a, p), (a, p)
        odd = [q for q in primes_below(100) if q > 2]
        for i, p in enumerate(odd):
            for q in odd[i + 1 :]:
                m, n = lattice_counts(p, q)
                assert (-1) ** m == legendre(q, p), (p, q)
                assert (m + n) % 2 == ((p - 1) // 2) * ((q - 1) // 2) % 2, (p, q)


def _support_product(a, b):
    places = {INF_PLACE, Place.finite(2)}
    for x in (a, b):
        _, exps = rational_factor_exponents(x)
        places.update(Place.finite(p) for p, _ in exps)
    prod = 1
    for v in places:
        prod *= hilbert_symbol(a, b, v)
    return prod


def test_03_product_formula(capsys):
    with _Criterion(capsys, 3, "Hilbert product formula, 10^4 random pairs", budget=30.0):
        rng = random.Random(2012)
        for _ in range(10 ** 4):
            a = Fraction(rng.randint(1, 10 ** 6) * rng.choice((1, -1)), rng.randint(1, 10 ** 6))
            b = Fraction(rng.randint(1, 10 ** 6) * rng.choice((1, -1)), rng.randint(1, 10 ** 6))
            assert _support_product(a, b) == 1, (a, b)
        # the five-row case table over distinct odd primes, verbatim
        for p, q in ((3, 5), (7, 11), (13, 17), (3, 19), (5, 23)):
            pp, qq = (p - 1) // 2, (q - 1) // 2
            assert hilbert_symbol(p, q, "inf") == 1
            assert hilbert_symbol(p, q, 2) == (-1) ** (pp * qq)
            assert hilbert_symbol(p, q, p) == legendre(q, p)
            assert hilbert_symbol(p, q, q) == legendre(p, q)
            for ell in (29, 31):
                if ell not in (p, q):
                    assert hilbert_symbol(p, q, ell) == 1
        assert hilbert_symbol(-1, -1, "inf") == -1
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_vector(-1, -1).support == (INF_PLACE, Place.finite(2))


def test_04_witness_iff_symbol(capsys):
    with _Criterion(capsys, 4, "local witnesses iff symbol +1, 32 digits"):
        for p in (2, 3, 5, 7):
            for a in SQUARE_CLASSES[p]:
                for b in SQUARE_CLASSES[p]:
                    w = local_solve_witness(a, b, p, precision=32)
                    if hilbert_symbol(a, b, p) == 1:
                        assert w is not None, (a, b, p)
                        assert w.precision >= 32
                        assert w.verify(a, b), (a, b, p)
                    else:
                        assert w is None, (a, b, p)


def test_05_hasse_minkowski_scan(capsys):
    with _Criterion(capsys, 5, "conic scan, squarefree |a|,|b| <= 50", budget=60.0):
        values = [n for n in range(-50, 51) if n and factorize(n).is_squarefree()]
        for a in values:
            for b in values:
                cert = solve_conic(a, b)
                obstructed = bool(hilbert_vector(a, b).minus_places)
                assert (cert.outcome == "obstruction") == obstructed, (a, b)
                if cert.outcome == "solution":
                    assert a * cert.x ** 2 + b * cert.y ** 2 == 1, (a, b)
                else:
                    assert len(cert.places) % 2 == 0 and cert.places, (a, b)


def test_06_hensel_teichmuller(capsys):
    with _Criterion(capsys, 6, "Hensel roots mod p^32, Teichmuller laws p <= 13"):
        cases = [
            (IntPolynomial((-17, 0, 1)), 1, 2),
            (IntPolynomial((-17, 0, 1)), 2, 13),
            (IntPolynomial((-2, 0, 1)), 3, 7),
            (IntPolynomial((-2, 0, 0, 1)), 3, 5),
        ]
        for f, x0, p in cases:
            root = hensel_lift(f, x0, 32, p=p)
            assert root.abs_precision >= 32
            assert vp(Fraction(f(root.integer_rep())), p) >= 32, (f, p)
        assert hensel_lift(IntPolynomial((-17, 0, 1)), 1, 32, p=2).integer_rep() % 16 == 9
        assert hensel_lift(IntPolynomial((-2, 0, 1)), 3, 32, p=7).integer_rep() % 49 == 10
        for p in (2, 3, 5, 7, 11, 13):
            mod = p ** 32
            omega = {a: teichmuller(a, p, 32).integer_rep() % mod for a in range(1, p)}
            for a in range(1, p):
                assert pow(omega[a], p, mod) == omega[a], (a, p)
                for b in range(1, p):
                    ab = omega[a * b % p] if (a * b) % p else 0
                    assert omega[a] * omega[b] % mod == ab, (a, b, p)


def test_07_two_adic_series(capsys):
    with _Criterion(capsys, 7, "sqrt(1+8x) series vs Hensel square root, 20 digits"):
        rng = random.Random(8)
        for _ in range(100):
            x = rng.randint(0, 2 ** 20)
            if x == 0:
                x = 1
            k = 20
            y = sqrt_series_1p8x(x, k)
            r = padic_sqrt(PAdicElement.from_rational(Fraction(1 + 8 * x), 2, k))
            got = (1 + y.integer_rep()) % 2 ** (k - 1)
            assert got % 4 == 1
            assert got == r.unit % 2 ** (k - 1), x


def test_08_von_staudt(capsys):
    with _Criterion(capsys, 8, "von Staudt-Clausen W_k integral, k <= 60", budget=5.0):
        for k in range(2, 61, 2):
            von_staudt_W(k)  # raises on a non-integral value


def test_09_root_numbers(capsys):
    with _Criterion(capsys, 9, "root numbers: modulus, gamma choice, product", budget=10.0):
        for d in range(-50, 51):
            if d == 0 or not factorize(d).is_squarefree():
                continue
            w = root_number_product(d)
            assert abs(w - complex(1, 0)) < 1e-6, d
        for p in (q for q in primes_below(100) if q > 2):
            chi = LocalCharacter.attached_to_extension(-p if p % 4 == 3 else p, p)
            w = local_root_number(chi)
            assert abs(abs(w) - 1) < 1e-9, p
        for d, p in ((-1, 2), (2, 2), (3, 3), (5, 5)):
            chi = LocalCharacter.attached_to_extension(d, p)
            a = conductor_exponent(chi)
            base = local_root_number(chi)
            for unit in (3, 5, 7):
                if unit % p == 0:
                    continue
                w = local_root_number(chi, gamma=Fraction(p) ** a * unit)
                assert abs(base - w) < 1e-9, (d, p, unit)


def test_10_bost(capsys):
    with _Criterion(capsys, 10, "Mersenne character demo", budget=1.0):
        r = bost_demo()
        assert r.two_power_residue == 92
        assert r.p_residue == 91
        assert r.sign_euler == r.sign_factored


def test_11_extension_character_correspondence(capsys):
    with _Criterion(capsys, 11, "norm groups match characters, p <= 11"):
        rng = random.Random(6)
        for p in (2, 3, 5, 7, 11):
            for b, chi in ext_char_correspondence(p):
                samples = list(SQUARE_CLASSES[p])
                samples += [
                    rep * rng.randint(1, 30) ** 2 for rep in SQUARE_CLASSES[p] for _ in range(3)
                ]
                for a in samples:
                    assert is_local_norm(a, b, p) == (chi.value(a) == 1), (a, b, p)


def test_12_structure_checks(capsys):
    with _Criterion(capsys, 12, "unit-group products, binomial primality, Gram matrix"):
        for m in range(1, 501):
            assert group_product_sign(m) == unit_group_product(m), m
        for n in range(2, 2001):
            assert binomial_primality(n) == is_prime_trial(n), n
        basis = (5, -1, 2)
        expected = [[1, 1, -1], [1, -1, 1], [-1, 1, 1]]
        gram = [[hilbert_symbol(a, b, 2) for b in basis] for a in basis]
        assert gram == expected
