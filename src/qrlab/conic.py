"""Global solver for a x^2 + b y^2 = 1 over Q: decide solvability from the
local symbol vector, and when solvable produce an exact rational point by
Legendre descent.  Includes the ternary variant a x^2 + b y^2 + c z^2 = 0
and the global norm test for quadratic extensions.

The descent is one loop down, which records a frame d^2 - a = b c per
level in a list, and one loop up that list, which moves a primitive integer
triple (x, y, z) with a x^2 + b y^2 = z^2 from each form <a, c> back to
<a, b>; the rational point is formed once, from the final triple.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qrlab.hilbert import _conic_residual, _vector_from_exponents, hilbert_symbol
from qrlab.rational import (
    FactorizationError,
    Rat,
    Record,
    _exponent_dict,
    _set,
    _sqrt_mod_squarefree_general,
    _squarefree_core,
    check_factor_bound,
    is_rational_square,
)

Triple = tuple[Rat, Rat, Rat]


class DescentFrame(Record):
    """Nonzero integers a, b, c and d in [0, |b|/2] with d^2 - a = b c."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if 0 in (a, b, c):
            raise ValueError("frame coefficients must be nonzero")
        if d * d - a != b * c:
            raise ValueError("frame identity d^2 - a = b c fails")
        if not 0 <= 2 * d <= abs(b):
            raise ValueError("d must lie in [0, |b|/2]")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)


def descent_step(frame: DescentFrame, sol, direction: str) -> Triple:
    """Move a solution between a x^2 + b y^2 = s^2 (the S side) and
    a w^2 + c z^2 = t^2 (the T side); the two directions are mutually
    inverse up to scaling by the nonzero constant d^2 - a.  Entries are
    ints or Fractions; integer triples stay integers."""
    x, y, s = sol
    if x == y == s == 0:
        raise ValueError("the zero triple is not a projective solution")
    a, b, c, d = frame.a, frame.b, frame.c, frame.d
    if direction == "forward":
        if a * x * x + b * y * y != s * s:
            raise ValueError("input does not solve a x^2 + b y^2 = s^2")
        return (d * x + s, b * y, a * x + d * s)
    if direction == "backward":
        if a * x * x + c * y * y != s * s:
            raise ValueError("input does not solve a w^2 + c z^2 = t^2")
        return (d * x - s, c * y, -a * x + d * s)
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# certificates

class ConicCertificate(Record):
    """Outcome of solve_conic: an exact point or the even set of places
    carrying the local obstruction."""

    __slots__ = ("a", "b", "outcome", "x", "y", "places", "descent_depth")

    def __init__(
        self,
        a: Fraction,
        b: Fraction,
        outcome: str,  # "solution" | "obstruction"
        x: Fraction | None = None,
        y: Fraction | None = None,
        places: tuple = (),
        descent_depth: int = 0,
    ):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "outcome", outcome)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "places", places)
        _set(self, "descent_depth", descent_depth)

    def verify(self) -> bool:
        if self.outcome == "solution":
            return _conic_residual(self.a, self.b, self.x, self.y)[0] == 0
        return (
            len(self.places) > 0
            and len(self.places) % 2 == 0
            and all(hilbert_symbol(self.a, self.b, v) == -1 for v in self.places)
        )

    def to_json(self) -> dict:
        return {
            "a": str(Fraction(self.a)),
            "b": str(Fraction(self.b)),
            "outcome": self.outcome,
            "x": None if self.x is None else str(Fraction(self.x)),
            "y": None if self.y is None else str(Fraction(self.y)),
            "places": [v.json_value() for v in self.places],
        }


# ---------------------------------------------------------------------------
# the descent itself

_MAX_DEPTH = 64


def _descent(a: int, b: int, primes_a, primes_b) -> tuple[int, int, int, list]:
    """A primitive integer triple (x, y, z), z != 0, with a x^2 + b y^2 = z^2
    for squarefree integers a, b whose symbol vector is everywhere +1, and
    the frame list: one (DescentFrame, f, swapped) per level, top first.

    The loop down swaps a and b where |a| > |b|, takes the least root d of
    a mod b, splits c = (d^2 - a) / b once into e f^2 and goes on to
    <a, e>; a and b stay squarefree and a != 1, so c != 0.  primes_a and
    primes_b are the primes of a and b, and each level hands those of e
    down, so no level factors a or b again.  d^2 - a = b c makes d a root
    of a mod e, so the next level reads its root from d, unless it swaps.
    The loop up lifts the base triple through the frames in reverse."""
    frames, root = [], None
    while a != 1 and b != 1:
        swapped = abs(a) > abs(b)
        if swapped:
            a, b, primes_a, primes_b, root = b, a, primes_b, primes_a, None
        # |a| <= |b|, |b| >= 2: the local conditions provide the least d in
        # [0, |b|/2] with d^2 = a (mod |b|)
        d = _sqrt_mod_squarefree_general(a, b, primes_b, root)
        assert d is not None, (a, b)
        c = (d * d - a) // b
        # c is an integer, so the split's denominator is 1
        e, f, _, primes_e = _squarefree_core(1 if c > 0 else -1, _exponent_dict(c).items())
        frames.append((DescentFrame(a, b, c, d), f, swapped))
        assert len(frames) < _MAX_DEPTH, "descent failed to terminate"
        b, primes_b, root = e, primes_e, d
    x, y, z = (1, 0, 1) if a == 1 else (0, 1, 1)
    for frame, f, swapped in reversed(frames):
        x, y, z = descent_step(frame, (x * f, y, z * f), "backward")
        if z == 0:
            # isotropic: the line through (x : y : 0) and (0 : 1 : 1) meets
            # the conic again at ((1 - b) x : (1 + b) y : 2 b y)
            x, y, z = (1 - frame.b) * x, (1 + frame.b) * y, 2 * frame.b * y
        g = math.gcd(x, y, z)
        x, y, z = x // g, y // g, z // g
        if swapped:
            x, y = y, x
    return x, y, z, frames


def solve_conic(a: Rat, b: Rat) -> ConicCertificate:
    """Hasse-Minkowski for the conic a x^2 + b y^2 = 1: an exact rational
    point when every local symbol is +1, the obstruction places otherwise."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("coefficients must be nonzero")
    return _solve(a, b, _exponent_dict(a), _exponent_dict(b))


def _quotient(vx: dict, vy: dict) -> dict:
    """The exponent dict of x / y from those of x and y."""
    exps = dict(vx)
    for p, e in vy.items():
        exps[p] = exps.get(p, 0) - e
    return {p: e for p, e in exps.items() if e}


def _solve(a: Fraction, b: Fraction, va: dict, vb: dict) -> ConicCertificate:
    """solve_conic on nonzero Fractions a and b whose exponent dicts
    (_exponent_dict's) are va and vb: one factorization of each serves the
    symbol vector and the squarefree split."""
    vector = _vector_from_exponents(a, b, va, vb)
    if vector.minus_places:
        cert = ConicCertificate(a, b, "obstruction", places=vector.support)
        assert cert.verify()
        return cert
    # scale to squarefree integers: a x^2 = a0 (sa x)^2, sa = num_a / den_a
    a0, num_a, den_a, primes_a = _squarefree_core(1 if a > 0 else -1, va.items())
    b0, num_b, den_b, primes_b = _squarefree_core(1 if b > 0 else -1, vb.items())
    X, Y, Z, frames = _descent(a0, b0, primes_a, primes_b)
    # x = X / (Z sa) and y = Y / (Z sb), of the four sign flips the one with x >= 0 >= y
    x, y = abs(Fraction(X * den_a, Z * num_a)), -abs(Fraction(Y * den_b, Z * num_b))
    cert = ConicCertificate(a, b, "solution", x=x, y=y, descent_depth=len(frames))
    assert cert.verify(), (a, b, x, y)
    return cert


# ---------------------------------------------------------------------------
# the ternary form

def legendre_ternary(a: int, b: int, c: int) -> tuple[int, int, int] | None:
    """A nonzero integer zero of a x^2 + b y^2 + c z^2 (a b c squarefree),
    or None when the conic (-a/c) x^2 + (-b/c) y^2 = 1 has a local
    obstruction: by Hasse-Minkowski, exactly when one of Legendre's
    conditions fails (mixed signs, and -bc, -ca, -ab squares modulo |a|,
    |b|, |c| respectively).

    a, b and c are each factored once, and the product never is: a b c is
    squarefree exactly when no prime occurs twice among their factors, and
    the exponents of -a/c and -b/c are read from the same factors."""
    if a * b * c == 0:
        raise ValueError("coefficients must be nonzero")
    check_factor_bound(a * b * c)
    va, vb, vc = (_exponent_dict(t) for t in (a, b, c))
    if sum(e for v in (va, vb, vc) for e in v.values()) != len({*va, *vb, *vc}):
        raise ValueError("a b c must be squarefree")
    cert = _solve(Fraction(-a, c), Fraction(-b, c), _quotient(va, vc), _quotient(vb, vc))
    if cert.outcome == "obstruction":
        return None
    # z is the least common denominator, so the triple is primitive
    z = math.lcm(cert.x.denominator, cert.y.denominator)
    return int(abs(cert.x * z)), int(abs(cert.y * z)), z


# ---------------------------------------------------------------------------
# the global norm test

class NormCertificate(Record):
    """a = z^2 - b y^2 when is_norm; otherwise the failing places."""

    __slots__ = ("a", "b", "is_norm", "y", "z", "places")

    def __init__(
        self,
        a: Fraction,
        b: Fraction,
        is_norm: bool,
        y: Fraction | None = None,
        z: Fraction | None = None,
        places: tuple = (),
    ):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "is_norm", is_norm)
        _set(self, "y", y)
        _set(self, "z", z)
        _set(self, "places", places)

    def verify(self) -> bool:
        if self.is_norm:
            return self.z ** 2 - self.b * self.y ** 2 == self.a
        return len(self.places) > 0


def global_is_norm(a: Rat, b: Rat) -> NormCertificate:
    """Whether a is a norm from Q(sqrt(b)), i.e. a = z^2 - b y^2 has a
    rational solution; local-global reduces this to the symbol vector."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    rb = is_rational_square(b)
    if rb is not None:
        # norm map of the split algebra is onto: factor a = (z-ty)(z+ty)
        z = (a + 1) / 2
        y = (a - 1) / (2 * rb)
        cert = NormCertificate(a, b, True, y=y, z=z)
        assert cert.verify()
        return cert
    # a and b are each factored once, and -b/a is held to the workload
    # bound as a whole; a b past the bound with -b/a within it is read from
    # -b/a itself
    q = -b / a
    check_factor_bound(q)
    va = _exponent_dict(a)
    try:
        vq = _quotient(_exponent_dict(b), va)
    except FactorizationError:
        vq = _exponent_dict(q)
    conic = _solve(1 / a, q, _quotient({}, va), vq)
    if conic.outcome == "obstruction":
        return NormCertificate(a, b, False, places=conic.places)
    cert = NormCertificate(a, b, True, y=conic.y, z=conic.x)
    assert cert.verify()
    return cert
