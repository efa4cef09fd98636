"""Differential tests against sympy: the Legendre symbol, square roots mod
a prime, mod a squarefree number and mod p^k (through padic_sqrt), and the
solvability of a x^2 + b y^2 + c z^2 = 0.  Each test skips when sympy is
missing; CI installs it and fails on such a skip."""

import itertools
import math
import random

import pytest

from qrlab.conic import legendre_ternary
from qrlab.padic import PAdicElement, padic_sqrt
from qrlab.rational import factorize, sqrt_mod_prime, sqrt_mod_squarefree
from qrlab.symbols import legendre

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 97, 1009, 1013)


def test_legendre_against_is_quad_residue():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1)
    for p in ODD_PRIMES:
        for a in [*range(-p, p), *(rng.randrange(-(10**12), 10**12) for _ in range(50))]:
            if a % p:
                want = 1 if sympy.ntheory.is_quad_residue(a, p) else -1
                assert legendre(a, p) == want, (a, p)


def test_sqrt_mod_prime_against_sqrt_mod():
    sympy = pytest.importorskip("sympy")
    for p in ODD_PRIMES:
        for a in range(1, p):
            roots = sympy.ntheory.sqrt_mod(a, p, all_roots=True)
            want = min((r for r in roots if r <= (p - 1) // 2), default=None)
            assert sqrt_mod_prime(a, p) == want, (a, p)


def test_sqrt_mod_squarefree_against_sqrt_mod():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2)
    for b in range(2, 400):
        if not factorize(b).is_squarefree():
            continue
        for a in [rng.randrange(-(10**6), 10**6) for _ in range(6)]:
            if math.gcd(a, b) != 1:
                continue
            roots = sympy.ntheory.sqrt_mod(a, b, all_roots=True)
            want = min((r for r in roots if 2 * r <= b), default=None)
            assert sqrt_mod_squarefree(a, b) == want, (a, b)
            assert sqrt_mod_squarefree(a, -b) == want, (a, -b)


def test_padic_sqrt_against_sqrt_mod_prime_powers():
    # the root of a unit u mod p^k is the one whose first digit is at most
    # (p-1)/2, and it keeps all k digits at odd p
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for p in ODD_PRIMES:
        for k in (1, 2, 3, 7, 20):
            for _ in range(12):
                u = rng.randrange(1, p**k)
                if u % p == 0:
                    continue
                v = 2 * rng.randint(-3, 3)
                roots = sympy.ntheory.sqrt_mod(u, p**k, all_roots=True)
                root = padic_sqrt(PAdicElement(p, v, u, k))
                if not roots:
                    assert root is None, (u, p, k)
                    continue
                want = next(r for r in roots if r % p <= (p - 1) // 2)
                assert root == PAdicElement(p, v // 2, want, k), (u, p, k)


def test_legendre_ternary_solvability_against_diop_ternary_quadratic():
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic

    x, y, z = sympy.symbols("x y z", integer=True)
    coefficients = [n for n in range(-11, 12) if n and factorize(n).is_squarefree()]
    triples = 0
    for a, b, c in itertools.combinations(coefficients, 3):
        if abs(a * b * c) == 1 or math.gcd(a, b) * math.gcd(b, c) * math.gcd(c, a) != 1:
            continue
        triples += 1
        solvable = diop_ternary_quadratic(a * x**2 + b * y**2 + c * z**2) != (None, None, None)
        assert (legendre_ternary(a, b, c) is not None) == solvable, (a, b, c)
    assert triples > 200
