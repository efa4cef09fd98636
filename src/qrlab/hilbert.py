"""The quadratic Hilbert symbol (a,b)_v at every place of Q, the product
formula, constructive local solvability witnesses for a x^2 + b y^2 = 1,
and norm-group membership, on rational alone.

Symbols are computed exactly from closed forms on signs, valuations and
unit residues; witnesses are the only finite-precision artifacts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qrlab.rational import (
    DEFAULT_PRECISION,
    INF_PLACE,
    TWO_PLACE,
    Place,
    PlaceLike,
    Rat,
    Record,
    _exponent_dict,
    _set,
    int_valuation,
    is_rational_square,
    local_unit,
    unit_sqrt,
)


def _symbol_exponent(p: int, alpha: int, ua: int, beta: int, ub: int) -> int:
    """The e in {0, 1} with (a,b)_p = (-1)^e for a = p^alpha u, b = p^beta u',
    from the closed forms (Serre, A Course in Arithmetic, III.1.2).  ua and
    ub are the residues of the units u, u' mod 8 when p = 2, mod p otherwise;
    a Legendre symbol is evaluated only when its exponent is odd."""
    if p == 2:
        e = (ua - 1) // 2 * ((ub - 1) // 2)  # eps4(u) eps4(u')
        e += beta * ((ua * ua - 1) // 8) + alpha * ((ub * ub - 1) // 8)
        return e % 2
    e = (p - 1) // 2 if alpha % 2 and beta % 2 else 0  # eps_p(-1)
    if beta % 2 and pow(ua, (p - 1) // 2, p) != 1:
        e += 1
    if alpha % 2 and pow(ub, (p - 1) // 2, p) != 1:
        e += 1
    return e % 2


def hilbert_symbol(a: Rat, b: Rat, v: PlaceLike) -> int:
    """(a,b)_v for nonzero rationals a and b: +1 iff a x^2 + b y^2 = z^2
    has a nontrivial solution in Q_v, from the closed forms on valuations
    and unit residues."""
    if not a or not b:
        raise ValueError("inputs must be nonzero")
    place = Place.parse(v)
    if place.is_infinite:
        return -1 if a < 0 and b < 0 else 1
    p = place.prime
    m = 8 if p == 2 else p
    (alpha, ua), (beta, ub) = local_unit(a, p, m), local_unit(b, p, m)
    return (-1) ** _symbol_exponent(p, alpha, ua, beta, ub)


# ---------------------------------------------------------------------------
# the full symbol vector and the product formula

class SymbolVector(Record):
    """The family ((a,b)_v)_v, stored by its finite -1 support."""

    __slots__ = ("minus_places",)

    def __init__(self, minus_places: frozenset):
        if len(minus_places) % 2:
            raise ValueError("the -1 support of a symbol vector must be even")
        _set(self, "minus_places", minus_places)

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.minus_places, key=Place._sort_key))

    def to_json(self) -> dict:
        return {
            "support": [
                {"place": v.json_value(), "sign": -1} for v in self.support
            ]
        }


def _vector_from_exponents(a: Rat, b: Rat, va: dict, vb: dict) -> SymbolVector:
    """hilbert_vector from the exponent dicts of a and b (_exponent_dict's,
    keyed by Primes), on A = a_n a_d and B = b_n b_d.  A unit u = n/d is
    read as n d = u d^2: at odd p it has the Legendre symbol of u, and at 2
    the residue of u mod 8 (odd squares are 1 mod 8), so no inverse is
    taken.  p divides a_n or a_d, never both, so a's unit at p is read from
    the exact quotient A / p^|v_p(a)|.  _symbol_exponent runs at 2 and at
    odd primes of both a and b.  At an odd p of a alone, beta = 0 and B is
    a unit, so the closed form reduces to e = [alpha odd] [(B/p) = -1]: one
    Euler criterion, none for even alpha; so at odd primes of b alone on A."""
    A, B = a.numerator * a.denominator, b.numerator * b.denominator
    minus = [INF_PLACE] if A < 0 and B < 0 else []
    alpha, beta = va.get(2, 0), vb.get(2, 0)
    if _symbol_exponent(2, alpha, (A >> abs(alpha)) % 8, beta, (B >> abs(beta)) % 8):
        minus.append(TWO_PLACE)
    for p, alpha in va.items():
        beta = vb.get(p, 0)
        if p == 2 or not (beta or alpha % 2):
            continue
        if beta:
            ua, ub = A // p ** abs(alpha) % p, B // p ** abs(beta) % p
            e = _symbol_exponent(p, alpha, ua, beta, ub)
        else:
            e = pow(B % p, (p - 1) // 2, p) != 1
        if e:
            minus.append(Place.finite(p))
    for p, beta in vb.items():
        if beta % 2 and p != 2 and p not in va and pow(A % p, (p - 1) // 2, p) != 1:
            minus.append(Place.finite(p))
    return SymbolVector(frozenset(minus))


def hilbert_vector(a: Rat, b: Rat) -> SymbolVector:
    """All local symbols of (a, b); support is within {inf, 2} and the primes
    of a and b, and the -1 count is even (the product formula).

    The numerator and denominator of a and b are each factored once, into
    the exponent dicts the symbols read their valuations from; a unit's
    square class is taken at 2, at shared primes and at odd exponents only,
    and a Place is built only where the symbol is -1."""
    if not a or not b:
        raise ValueError("inputs must be nonzero")
    return _vector_from_exponents(a, b, _exponent_dict(a), _exponent_dict(b))


# ---------------------------------------------------------------------------
# local witnesses

#: How far from 0 a x^2 + b y^2 - 1 may be for an approximate real witness.
WITNESS_TOLERANCE = 1e-9


def _conic_residual(a: Rat, b: Rat, x: Rat, y: Rat) -> tuple[int, int]:
    """(N, D) with a x^2 + b y^2 - 1 = N / D over the common denominator
    D = ad bd xd^2 yd^2 > 0, in integers: the one exact check of a point
    on the conic, for witnesses and certificates alike."""
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    xd2, yd2 = xd * xd, yd * yd
    D = ad * bd * xd2 * yd2
    return an * bd * xn * xn * yd2 + bn * ad * yn * yn * xd2 - D, D


class LocalWitness(Record):
    """x, y with a x^2 + b y^2 = 1 in Q_v, exact to `precision` p-adic digits
    at a finite place; at infinity exact unless flagged approximate."""

    __slots__ = ("place", "x", "y", "precision", "approximate")

    def __init__(
        self, place: Place, x: Fraction, y: Fraction, precision: int, approximate: bool = False
    ):
        _set(self, "place", place)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "precision", precision)
        _set(self, "approximate", approximate)

    def verify(self, a: Rat, b: Rat) -> bool:
        """Whether a x^2 + b y^2 - 1 is 0 at infinity (within
        WITNESS_TOLERANCE if approximate), or has p-adic valuation >=
        precision at p."""
        N, D = _conic_residual(a, b, self.x, self.y)
        if self.place.is_infinite:
            if self.approximate:
                tn, td = WITNESS_TOLERANCE.as_integer_ratio()
                return abs(N) * td <= tn * D
            return N == 0
        # v_p(N / D) = v_p(N) - v_p(D) >= precision exactly when
        # p^(precision + v_p(D)) divides N (which N = 0 does)
        k = self.precision + int_valuation(D, self.place.prime)[0]
        return k <= 0 or N % self.place.prime**k == 0


_SEARCH_DENOMS = 16
_SEARCH_RANGE = 12


def _infinite_witness(a: Rat, b: Rat) -> LocalWitness:
    """Exact witness when a square coordinate works or a small rational point
    exists; otherwise a float witness flagged approximate."""
    ra = is_rational_square(a) if a > 0 else None
    if ra:
        return LocalWitness(INF_PLACE, Fraction(1) / ra, Fraction(0), 0)
    rb = is_rational_square(b) if b > 0 else None
    if rb:
        return LocalWitness(INF_PLACE, Fraction(0), Fraction(1) / rb, 0)
    # bounded search for an exact rational point
    for den in range(1, _SEARCH_DENOMS + 1):
        for num in range(0, _SEARCH_RANGE * den + 1):
            y = Fraction(num, den)
            rest = (1 - b * y * y) / a
            if rest < 0:
                continue
            r = is_rational_square(rest)
            if r is not None:
                return LocalWitness(INF_PLACE, r, y, 0)
    # approximate fallback: solve along whichever axis is positive
    if a > 0:
        return LocalWitness(INF_PLACE, _inverse_sqrt(a), Fraction(0), 0, approximate=True)
    return LocalWitness(INF_PLACE, Fraction(0), _inverse_sqrt(b), 0, approximate=True)


def _inverse_sqrt(x: Fraction) -> Fraction:
    """1/sqrt(x) for x > 0 to about 64 bits of relative precision, by integer
    square roots: sqrt(den/num) = isqrt(den * 4^k / num) / 2^k with k chosen
    to put the radicand near 2^128.  No float conversion, so no overflow or
    underflow whatever the size of x."""
    num, den = x.numerator, x.denominator
    k = (128 - den.bit_length() + num.bit_length()) // 2
    if k >= 0:
        return Fraction(math.isqrt((den << 2 * k) // num), 1 << k)
    return Fraction(math.isqrt(den // (num << -2 * k)) << -k)


def _unit_witness(
    ua: int, ub: int, beta: int, p: int, k: int, mod: int
) -> tuple[Fraction, Fraction]:
    """(x, y) with A x^2 + p^beta B y^2 = 1 to k digits, for beta in {0, 1}
    and p-adic units A, B of residues ua, ub mod p^k = mod with (A, p^beta
    B)_p = +1.  Every square root is rational.unit_sqrt's on a residue mod
    p^k, on ints."""
    r = unit_sqrt(ua, p, k)
    if r is not None:
        return Fraction(1, r), Fraction(0)
    inv = pow(ua, -1, mod)
    if beta:
        # for odd p the symbol is lambda_p(A), so A would be a square; at 2
        # it leaves A = 1 - 2B (mod 8), and y = 1
        return Fraction(unit_sqrt((1 - 2 * ub) * inv % mod, p, k)), Fraction(1)
    r = unit_sqrt(ub, p, k)
    if r is not None:
        return Fraction(0), Fraction(1, r)
    if p == 2:
        # neither unit is 1 mod 8; symbol +1 forces A or B = 5 (mod 8)
        if ua % 8 == 5:
            return Fraction(unit_sqrt((1 - 4 * ub) * inv % mod, p, k)), Fraction(2)
        return Fraction(2), Fraction(unit_sqrt((1 - 4 * ua) * pow(ub, -1, mod) % mod, p, k))
    # both non-residues: {A x^2} and {1 - B y^2} each cover (p+1)/2
    # residues, so they intersect at a nonzero common value
    for y0 in range(1, p):
        t = (1 - ub * y0 * y0) * inv % mod
        r = unit_sqrt(t, p, k) if t % p else None
        if r is not None:
            return Fraction(r), Fraction(y0)
    raise AssertionError("counting argument found no intersection")


_PRECISION_BUFFER = 8


def local_solve_witness(
    a: Rat, b: Rat, v: PlaceLike, precision: int = DEFAULT_PRECISION
) -> LocalWitness | None:
    """A constructive solution of a x^2 + b y^2 = 1 in Q_v, or None exactly
    when the Hilbert symbol is -1.

    At a finite place a and b are each reduced once, to a valuation and a
    unit residue mod p^K.  The symbol is read from those residues, and the
    square-class case table is walked on them: a and b lose even powers
    of p, so both have valuation 0 or 1, and every square root is a Hensel
    lift of a residue mod p^K.  K is `precision` plus a buffer of digits,
    because the table spends some: the case of two uniformizers divides by
    2p, and a root at p = 2 is known only mod 2^(K-1).  The real place
    needs no precision and ignores it.
    """
    place = Place.parse(v)
    if a == 0 or b == 0:
        raise ValueError("inputs must be nonzero")
    if place.is_infinite:
        return None if a < 0 and b < 0 else _infinite_witness(a, b)
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    p = place.prime
    K = precision + _PRECISION_BUFFER
    pK = p**K
    va, ua = local_unit(a, p, pK)
    vb, ub = local_unit(b, p, pK)
    m = 8 if p == 2 else p
    if _symbol_exponent(p, va, ua % m, vb, ub % m):
        return None
    # a = sa^2 p^(va % 2) A and b = sb^2 p^(vb % 2) B, sa = p^ea and
    # sb = p^eb; mostly ea = eb = 0, and then nothing is scaled
    ea, eb = va // 2, vb // 2
    if va % 2 == 0:
        x, y = _unit_witness(ua, ub, vb % 2, p, K, pK)
    elif vb % 2 == 0:
        y, x = _unit_witness(ub, ua, 1, p, K, pK)
    else:
        # a'' = -a b / (sa sb p)^2 is a unit, and br = b / sb^2: a witness
        # (w, z) of (a'', br) gives one of (ar, br), ar = a / sa^2
        br = b / Fraction(p) ** (2 * eb) if eb else Fraction(b)
        w, z = _unit_witness(-ua * ub % pK, ub, 1, p, K, pK)
        if z == 0:
            # a'' = 1/w^2: ar x^2 + br y^2 = ((br y)^2 - a''(p x)^2)/br
            x, y = (br - 1) * w / (2 * p), (1 + br) / (2 * br)
        else:
            # br = (1/z)^2 - a''(w/z)^2
            x, y = w / (p * z), 1 / (br * z)
    if ea:
        x /= Fraction(p) ** ea
    if eb:
        y /= Fraction(p) ** eb
    witness = LocalWitness(place, x, y, precision)
    assert witness.verify(a, b), (a, b, p, witness)
    return witness


def is_local_norm(a: Rat, b: Rat, v: PlaceLike) -> bool:
    """Whether a is a norm from Q_v(sqrt(b)): when b is a square the norm map
    is the identity, and otherwise membership is detected by the symbol."""
    return hilbert_symbol(a, b, v) == 1

