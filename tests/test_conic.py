"""Rational points on a x^2 + b y^2 = 1: the descent step and frame
invariants, the full local-global solver with certificates, the ternary
form, and the global norm test."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

from oracles import global_norm_by_solve_conic, squarefree_split, ternary_by_solve_conic
from qrlab.conic import (
    ConicCertificate,
    DescentFrame,
    _descent,
    descent_step,
    global_is_norm,
    legendre_ternary,
    solve_conic,
)
from qrlab.hilbert import hilbert_symbol, hilbert_vector
from qrlab import rational
from qrlab.rational import (
    INF_PLACE,
    FactorizationError,
    Place,
    _sqrt_mod_squarefree_general,
    factorize,
    rational_factor_exponents,
    sqrt_mod_squarefree,
)

small_rationals = st.fractions(
    min_value=Fraction(-60), max_value=Fraction(60), max_denominator=40
).filter(lambda x: x != 0)


# ---------------------------------------------------------------------------
# frames and the descent step

def test_frame_validation():
    DescentFrame(2, 7, 1, 3)  # 9 - 2 = 7
    with pytest.raises(ValueError):
        DescentFrame(2, 7, 1, 2)  # identity fails
    with pytest.raises(ValueError):
        DescentFrame(2, 7, 0, 3)
    with pytest.raises(ValueError):
        DescentFrame(-5, 2, 7, 3)  # 9 + 5 = 14 but d > |b|/2
    with pytest.raises(ValueError):
        DescentFrame(1, -3, -1, -2)  # negative d


def test_descent_step_example():
    frame = DescentFrame(2, 7, 1, 3)
    assert descent_step(frame, (1, 1, 3), "forward") == (6, 7, 11)
    # the reverse composite scales by d^2 - a = 7
    assert descent_step(frame, (6, 7, 11), "backward") == (7, 7, 21)


def test_descent_step_rejects():
    frame = DescentFrame(2, 7, 1, 3)
    with pytest.raises(ValueError):
        descent_step(frame, (0, 0, 0), "forward")
    with pytest.raises(ValueError):
        descent_step(frame, (1, 1, 4), "forward")  # not a solution
    with pytest.raises(ValueError):
        descent_step(frame, (1, 1, 3), "sideways")


def _build_frame(b: int, s: int):
    """A frame around the S-solution (1, 1, s) of a x^2 + b y^2 = s^2."""
    a = s * s - b
    if a == 0 or abs(b) < 2:
        return None
    d = s % abs(b)
    if 2 * d > abs(b):
        d = abs(b) - d
    c = (d * d - a) // b
    if c == 0:
        return None
    return DescentFrame(a, b, c, d)


@given(st.integers(-80, 80), st.integers(-80, 80))
def test_descent_step_preserves_solutions(b, s):
    frame = _build_frame(b, s)
    assume(frame is not None)
    a, c = frame.a, frame.c
    w, z, t = descent_step(frame, (1, 1, s), "forward")
    assert a * w * w + c * z * z == t * t
    if (w, z, t) != (0, 0, 0):
        x, y, u = descent_step(frame, (w, z, t), "backward")
        assert a * x * x + frame.b * y * y == u * u
        # backward . forward is multiplication by d^2 - a
        k = Fraction(frame.d ** 2 - a)
        assert (x, y, u) == (k, k, k * s)


@given(st.integers(-80, 80), st.integers(-80, 80))
def test_descent_step_keeps_integer_triples(b, s):
    # int in, int out, equal to the Fraction route, in both directions
    frame = _build_frame(b, s)
    assume(frame is not None)
    sol = (1, 1, s)
    for direction in ("forward", "backward"):
        got = descent_step(frame, sol, direction)
        assert all(type(t) is int for t in got)
        assert got == descent_step(frame, tuple(map(Fraction, sol)), direction)
        if got == (0, 0, 0):
            break
        sol = got


# ---------------------------------------------------------------------------
# the solver

def test_solve_example():
    cert = solve_conic(2, 7)
    assert cert.outcome == "solution"
    assert 2 * cert.x ** 2 + 7 * cert.y ** 2 == 1
    assert (cert.x, cert.y) == (Fraction(1, 3), Fraction(-1, 3))
    assert cert.places == ()
    assert cert.verify()


def test_solve_obstruction():
    cert = solve_conic(-1, -1)
    assert cert.outcome == "obstruction"
    assert cert.x is None and cert.y is None
    assert cert.places == (INF_PLACE, Place.finite(2))
    assert cert.verify()
    # an even number of places, each carrying symbol -1
    cert = solve_conic(3, 5)
    assert len(cert.places) % 2 == 0 and len(cert.places) >= 2
    assert all(hilbert_symbol(3, 5, v) == -1 for v in cert.places)


def test_solve_rational_inputs():
    cert = solve_conic(Fraction(1, 2), Fraction(1, 2))
    assert cert.outcome == "solution"
    assert cert.x ** 2 + cert.y ** 2 == 2
    cert = solve_conic(Fraction(9, 4), Fraction(-5, 49))
    assert cert.a * cert.x ** 2 + cert.b * cert.y ** 2 == 1


def test_solve_square_coefficients():
    cert = solve_conic(9, 16)
    assert (cert.x, cert.y) == (Fraction(1, 3), 0)
    cert = solve_conic(Fraction(1, 4), 3)
    assert (cert.x, cert.y) == (2, 0)


def test_solve_rejects_zero():
    with pytest.raises(ValueError):
        solve_conic(0, 5)
    with pytest.raises(ValueError):
        solve_conic(5, Fraction(0))


def test_solution_normalization():
    # lexicographically least sign flip with x >= 0: y leaves as -|y|
    cert = solve_conic(2, 7)
    assert cert.x >= 0 >= cert.y


def test_certificate_json():
    sol = solve_conic(2, 7).to_json()
    assert sol == {
        "a": "2", "b": "7", "outcome": "solution",
        "x": "1/3", "y": "-1/3", "places": [],
    }
    obs = solve_conic(-1, Fraction(-1, 3)).to_json()
    assert obs["outcome"] == "obstruction"
    assert obs["x"] is None and obs["y"] is None
    assert obs["places"][0] == "inf" and all(
        p == "inf" or isinstance(p, int) for p in obs["places"]
    )


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))


def _points_on_conics(rng: random.Random):
    """(a, b, x, y) with a x^2 + b y^2 = 1: random b and nonzero x and y
    fix a; x = 0 fixes b = 1/y^2 and y = 0 fixes a = 1/x^2."""
    for i in range(600):
        x, y = _random_rational(rng), _random_rational(rng)
        if i % 3 == 1:
            yield _random_rational(rng), 1 / y**2, Fraction(0), y
        elif i % 3 == 2:
            yield 1 / x**2, _random_rational(rng), x, Fraction(0)
        else:
            b = _random_rational(rng)
            yield (1 - b * y**2) / x**2, b, x, y


def test_certificate_verify_agrees_with_fraction_evaluation():
    rng = random.Random(1993)
    for a, b, x, y in _points_on_conics(rng):
        assert a * x**2 + b * y**2 == 1
        assert ConicCertificate(a, b, "solution", x=x, y=y).verify(), (a, b, x, y)
        # the same x and y on an unrelated conic
        a2, b2 = _random_rational(rng), _random_rational(rng)
        expected = a2 * x**2 + b2 * y**2 == 1
        assert ConicCertificate(a2, b2, "solution", x=x, y=y).verify() == expected


def test_certificate_verify_rejects_a_moved_numerator():
    rng = random.Random(2017)
    points = list(_points_on_conics(rng))
    points += [(Fraction(a), Fraction(b), c.x, c.y)
               for a, b in ((2, 7), (3764609993, 1698764789), (-7, 11), (1, 5))
               for c in [solve_conic(a, b)]]
    for a, b, x, y in points:
        for step in (1, -1):
            moved = Fraction(x.numerator + step, x.denominator)
            assert not ConicCertificate(a, b, "solution", x=moved, y=y).verify(), (a, b, x, y)
            moved = Fraction(y.numerator + step, y.denominator)
            assert not ConicCertificate(a, b, "solution", x=x, y=moved).verify(), (a, b, x, y)
            if x:  # with x = 0, a plays no part in the equation
                moved = Fraction(a.numerator + step, a.denominator)
                assert not ConicCertificate(moved, b, "solution", x=x, y=y).verify(), (a, b, x, y)


def test_depth_is_logged():
    assert solve_conic(2, 7).descent_depth >= 1
    assert solve_conic(1, 5).descent_depth == 0


def test_solver_scan():
    # solvable exactly when no local obstruction, and points are exact
    for a in range(-24, 25):
        for b in range(-24, 25):
            if a == 0 or b == 0:
                continue
            cert = solve_conic(a, b)
            obstructed = bool(hilbert_vector(a, b).minus_places)
            assert (cert.outcome == "obstruction") == obstructed, (a, b)
            assert cert.verify(), (a, b)


# ---------------------------------------------------------------------------
# the integer-triple descent against the Fraction descent it replaced

def _fraction_descent(a, b, depth=0):
    """Legendre descent that turns each level's triple back into an affine
    Fraction point (x, y) on a x^2 + b y^2 = 1, with its own formula for
    the isotropic case: the route the integer-triple descent replaced,
    kept as its oracle."""
    if a == 1:
        return Fraction(1), Fraction(0), depth
    if b == 1:
        return Fraction(0), Fraction(1), depth
    if abs(a) > abs(b):
        y, x, reached = _fraction_descent(b, a, depth)
        return x, y, reached
    d = _sqrt_mod_squarefree_general(a % abs(b), abs(b), [p for p, _ in factorize(b)])
    if d * d == a:
        return Fraction(1, d), Fraction(0), depth
    c = (d * d - a) // b
    fc = factorize(c)
    e, f = squarefree_split(fc.sign, fc.factors)
    X, Y, reached = _fraction_descent(a, e, depth + 1)
    x, y, s = descent_step(DescentFrame(a, b, c, d), (X, Y / f, Fraction(1)), "backward")
    if s != 0:
        return x / s, y / s, reached
    t = (1 - Fraction(b)) / (2 * b * y)
    return t * x, t * y + 1, reached


def _fraction_solve(a, b):
    """(outcome, x, y, places, depth) of solve_conic by the Fraction route."""
    a, b = Fraction(a), Fraction(b)
    vector = hilbert_vector(a, b)
    if vector.minus_places:
        return "obstruction", None, None, vector.support, 0
    (a0, sa), (b0, sb) = (squarefree_split(*rational_factor_exponents(t)) for t in (a, b))
    X, Y, depth = _fraction_descent(a0, b0)
    return "solution", abs(X / sa), -abs(Y / sb), (), depth


def _assert_matches_fraction_route(a, b):
    cert = solve_conic(a, b)
    got = (cert.outcome, cert.x, cert.y, cert.places, cert.descent_depth)
    assert got == _fraction_solve(a, b), (a, b)


def test_descent_matches_fraction_route_small():
    for a in range(-60, 61):
        for b in range(-60, 61):
            if a and b:
                _assert_matches_fraction_route(a, b)


def test_descent_matches_fraction_route_height_1e9():
    # 1000 pairs of height 10^9 (almost all obstructed), then 1000 solvable
    # ones: a of height 10^9 and b = (1 - a x^2) / y^2, x and y of height 10
    import random

    rng = random.Random(20261018)

    def draw(h):
        return Fraction(rng.randint(1, h) * rng.choice((1, -1)), rng.randint(1, h))

    for _ in range(1000):
        _assert_matches_fraction_route(draw(10 ** 9), draw(10 ** 9))
    solved = 0
    for _ in range(1000):
        a = draw(10 ** 9)
        b = (1 - a * draw(10) ** 2) / draw(10) ** 2
        if b:
            _assert_matches_fraction_route(a, b)
            solved += 1
    assert solved > 900


def test_descent_returns_primitive_triples():
    for a in range(-40, 41):
        for b in range(-40, 41):
            if not (a and b) or hilbert_vector(a, b).minus_places:
                continue
            a0, b0 = (squarefree_split(*rational_factor_exponents(t))[0] for t in (a, b))
            primes_a = [p for p, _ in factorize(a0)]
            primes_b = [p for p, _ in factorize(b0)]
            x, y, z, _ = _descent(a0, b0, primes_a, primes_b)
            assert z != 0 and math.gcd(x, y, z) == 1, (a, b)
            assert all(type(t) is int for t in (x, y, z))
            assert a0 * x * x + b0 * y * y == z * z, (a, b)


def test_descent_isotropic_branch():
    # the frame a = -3, b = 3, c = 1, d = 0 steps the sub-solution (0, 1, 1)
    # back to (-1, 1, 0), an isotropic vector of -3 x^2 + 3 y^2; the second
    # intersection ((1 - b) x, (1 + b) y, 2 b y) = (2, 4, 6) is (1, 2, 3)
    assert descent_step(DescentFrame(-3, 3, 1, 0), (0, 1, 1), "backward") == (-1, 1, 0)
    x, y, z, frames = _descent(-3, 3, [3], [3])
    assert (x, y, z, len(frames)) == (1, 2, 3, 1)
    assert frames == [(DescentFrame(-3, 3, 1, 0), 1, False)]
    cert = solve_conic(-3, 3)
    assert (cert.x, cert.y, cert.descent_depth) == (Fraction(1, 3), Fraction(-2, 3), 1)
    _assert_matches_fraction_route(-3, 3)


@given(small_rationals, small_rationals)
@settings(max_examples=150, deadline=None)
def test_solver_certificates_verify(a, b):
    cert = solve_conic(a, b)
    assert cert.verify()
    if cert.outcome == "solution":
        assert a * cert.x ** 2 + b * cert.y ** 2 == 1
        assert cert.x >= 0 >= cert.y
    else:
        assert len(cert.places) % 2 == 0


# ---------------------------------------------------------------------------
# the ternary form

def test_ternary_example():
    assert legendre_ternary(1, 1, -2) == (1, 1, 1)


def test_ternary_solutions_are_primitive_zeros():
    for (a, b, c) in ((2, 3, -5), (1, 5, -6), (3, 5, -2), (-7, 2, 5), (1, 1, -1)):
        sol = legendre_ternary(a, b, c)
        assert sol is not None, (a, b, c)
        x, y, z = sol
        assert a * x * x + b * y * y + c * z * z == 0
        assert math.gcd(math.gcd(x, y), z) == 1
        assert (x, y, z) != (0, 0, 0)
        assert x >= 0 and y >= 0 and z >= 0


def test_ternary_unsolvable():
    assert legendre_ternary(1, 1, 1) is None      # definite
    assert legendre_ternary(-1, -1, -1) is None   # definite
    assert legendre_ternary(3, 5, -7) is None     # -bc = 35 is not a square mod 3
    assert legendre_ternary(1, 3, 5) is None


def test_ternary_rejects():
    with pytest.raises(ValueError):
        legendre_ternary(4, 3, -1)  # abc not squarefree
    with pytest.raises(ValueError):
        legendre_ternary(2, 6, -1)  # shared prime
    with pytest.raises(ValueError):
        legendre_ternary(0, 1, -1)



@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-300, 300).filter(bool), min_size=3, max_size=3))
def test_ternary_squarefree_check_matches_the_product(abc):
    # a, b, c apart and pairwise prime against factoring the product
    a, b, c = abc
    try:
        legendre_ternary(a, b, c)
        refused = False
    except ValueError as err:
        assert str(err) == "a b c must be squarefree"
        refused = True
    assert refused == (not factorize(a * b * c).is_squarefree()), abc


def test_ternary_factors_no_product(monkeypatch):
    # two 40-bit primes: factoring their product took rho ~0.8 s; factored
    # apart, each is certified by Miller-Rabin alone
    calls = []
    rho = rational._pollard_rho
    monkeypatch.setattr(rational, "_pollard_rho", lambda n: calls.append(n) or rho(n))
    assert legendre_ternary(1099511640127, 1099512615433, -1) is None
    assert legendre_ternary(140737488367699, 140737489342987, -1) is None
    assert calls == []


def test_ternary_keeps_the_workload_bound():
    # each coefficient is below 2^96, the product is not
    with pytest.raises(FactorizationError, match="workload bound"):
        legendre_ternary(2**40 + 15, 2**40 + 99, 2**17 - 1)


def _outcome(f, *args):
    """What a call returns, or the type and text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err).__name__, str(err)


def test_ternary_matches_the_solve_conic_route():
    # every triple, refused ones included: each coefficient factored once
    # against the route that checked gcds and factored c three times
    values = [n for n in range(-30, 31) if n]
    for a in values:
        for b in values:
            for c in values:
                assert (_outcome(legendre_ternary, a, b, c)
                        == _outcome(ternary_by_solve_conic, a, b, c)), (a, b, c)


def test_ternary_and_norm_factor_each_coefficient_once(monkeypatch):
    # two 40-bit primes: one factorize of their product runs rho once, ~0.8 s
    p, q = 1099511640127, 1099512615433
    calls = []
    rho = rational._pollard_rho
    monkeypatch.setattr(rational, "_pollard_rho", lambda n: calls.append(n) or rho(n))
    assert legendre_ternary(1, -1, p * q) == (
        604463459567532621139995, 604463459567532621139996, 1)
    assert calls == [p * q]
    calls.clear()
    cert = global_is_norm(p * q, -1)
    assert not cert.is_norm and [str(v) for v in cert.places] == ["2", str(p)]
    assert calls == [p * q]


def _ternary_brute(a, b, c, bound=12):
    for x in range(bound):
        for y in range(bound):
            for z in range(bound):
                if (x, y, z) != (0, 0, 0) and a * x * x + b * y * y + c * z * z == 0:
                    return True
    return False


def test_ternary_matches_brute_force():
    cases = [
        (a, b, c)
        for a in range(-7, 8)
        for b in range(-7, 8)
        for c in range(-7, 8)
        if a * b * c != 0 and factorize(a * b * c).is_squarefree()
    ]
    for a, b, c in cases:
        got = legendre_ternary(a, b, c) is not None
        if _ternary_brute(a, b, c):
            assert got, (a, b, c)


def _legendre_conditions_hold(a, b, c):
    """Legendre's classical conditions on a x^2 + b y^2 + c z^2 (a b c
    squarefree): mixed signs, and -bc, -ca, -ab squares modulo |a|, |b|,
    |c| respectively.  These residue tests decided solvability in
    legendre_ternary before solve_conic's obstruction did."""
    if a > 0 and b > 0 and c > 0 or a < 0 and b < 0 and c < 0:
        return False
    return all(abs(m) == 1 or sqrt_mod_squarefree(s, m) is not None
               for s, m in ((-b * c, a), (-c * a, b), (-a * b, c)))


def test_ternary_is_none_exactly_when_legendres_conditions_fail():
    values = [n for n in range(-30, 31) if n and factorize(n).is_squarefree()]
    solvable = unsolvable = 0
    for a in values:
        for b in values:
            if math.gcd(a, b) != 1:
                continue
            for c in values:
                if math.gcd(a * b, c) != 1:
                    continue  # a b c is squarefree exactly when they are coprime
                holds = _legendre_conditions_hold(a, b, c)
                assert (legendre_ternary(a, b, c) is not None) == holds, (a, b, c)
                solvable += holds
                unsolvable += not holds
    assert solvable > 1000 and unsolvable > 1000, (solvable, unsolvable)


# ---------------------------------------------------------------------------
# the norm test

def test_norm_example():
    cert = global_is_norm(2, 7)
    assert cert.is_norm
    assert cert.z ** 2 - 7 * cert.y ** 2 == 2
    assert cert.verify()


def test_norm_failure():
    cert = global_is_norm(5, 2)
    assert not cert.is_norm and cert.y is None
    assert len(cert.places) >= 2
    assert cert.verify()


def test_norm_square_b():
    # split algebra: everything is a norm
    cert = global_is_norm(7, 9)
    assert cert.is_norm and cert.z ** 2 - 9 * cert.y ** 2 == 7
    cert = global_is_norm(Fraction(-3, 5), Fraction(4, 49))
    assert cert.is_norm
    assert cert.z ** 2 - cert.b * cert.y ** 2 == cert.a


def test_norm_rejects_zero():
    with pytest.raises(ValueError):
        global_is_norm(0, 3)
    with pytest.raises(ValueError):
        global_is_norm(3, 0)


def _norm_height_part(rng):
    primes = (-1, 2, 3, 5, 7, 11, 13, 1009, 1013)
    return math.prod(rng.choices(primes, k=rng.randint(0, 5))) * rng.randint(-9, 9)


def test_norm_matches_the_solve_conic_route():
    # a and b share primes, so -b/a cancels; zeros and square b included
    rng = random.Random(20261019)
    pairs = [tuple(Fraction(_norm_height_part(rng), abs(_norm_height_part(rng)) or 1)
                   for _ in range(2)) for _ in range(1500)]
    pairs += [
        (2, 2**97),                          # b past the bound, -b/a within it
        (3 * 2**50, -5 * 2**97),
        (Fraction(2**60, 3), Fraction(2**100, 9)),
        (Fraction(1, 2**90), 3**59),         # a and b within it, -b/a past it
        (2**97, 3),
    ]
    for a, b in pairs:
        assert _outcome(global_is_norm, a, b) == _outcome(global_norm_by_solve_conic, a, b), (a, b)
    with pytest.raises(FactorizationError, match="workload bound"):
        global_is_norm(Fraction(1, 2**90), 3**59)


@given(small_rationals, small_rationals)
@settings(max_examples=120, deadline=None)
def test_norm_iff_trivial_symbol_vector(a, b):
    cert = global_is_norm(a, b)
    assert cert.verify()
    assert cert.is_norm == (not hilbert_vector(a, b).minus_places)
