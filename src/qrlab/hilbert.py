"""The quadratic Hilbert symbol (a,b)_v at every place of Q, the product
formula, constructive local solvability witnesses for a x^2 + b y^2 = 1,
norm-group membership, and the quadratic-extension/character dictionary.

Symbols are computed exactly from closed forms on valuations and unit
residues; witnesses are the only finite-precision artifacts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qrlab.padic import PAdicElement, unit_sqrt
from qrlab.rational import (
    INF_PLACE,
    TWO_PLACE,
    Place,
    Prime,
    Rat,
    Record,
    _set,
    int_valuation,
    is_rational_square,
    local_residue,
    local_unit,
    rational_factor_exponents,
)
from qrlab.symbols import QuadraticCharacter, eps_inf, smallest_nonresidue

PlaceLike = Place | int | str


def _coerce_place(v: PlaceLike) -> Place:
    if isinstance(v, Place):
        return v
    if isinstance(v, int):
        return Place.finite(v)
    return Place.parse(v)


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


def hilbert_symbol(a, b, v: PlaceLike) -> int:
    """(a,b)_v: +1 iff a x^2 + b y^2 = z^2 has a nontrivial solution in Q_v,
    from the closed forms on valuations and unit residues."""
    place = _coerce_place(v)
    if place.is_infinite:
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise ValueError("inputs must be nonzero")
        return (-1) ** (eps_inf(a) * eps_inf(b))
    p = place.prime
    m = 8 if p == 2 else p
    split = []
    for x in (a, b):
        if not isinstance(x, PAdicElement):
            split.append(local_unit(x, p, m))
            continue
        if x.is_zero:
            raise ValueError("inputs must be nonzero")
        if x.prime != p:
            raise ValueError(f"element lives at {x.prime}, not {p}")
        if p == 2 and x.precision < 3:
            raise ValueError("need 3 unit digits at 2")
        split.append((x.valuation, x.unit % m))
    (alpha, ua), (beta, ub) = split
    return (-1) ** _symbol_exponent(p, alpha, ua, beta, ub)


# ---------------------------------------------------------------------------
# the full symbol vector and the product formula

class SymbolVector(Record):
    """The family ((a,b)_v)_v, stored by its finite -1 support."""

    __slots__ = ("minus_places",)

    def __init__(self, minus_places: frozenset):
        _set(self, "minus_places", minus_places)
        self.__post_init__()

    def __post_init__(self):
        if len(self.minus_places) % 2:
            raise ValueError("the -1 support of a symbol vector must be even")

    def sign_at(self, v: PlaceLike) -> int:
        return -1 if _coerce_place(v) in self.minus_places else 1

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.minus_places))

    def product(self) -> int:
        return (-1) ** len(self.minus_places)

    def to_json(self) -> dict:
        return {
            "support": [
                {"place": v.json_value(), "sign": -1} for v in self.support
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymbolVector":
        minus = set()
        for entry in data.get("support", ()):
            if entry["sign"] == -1:
                minus.add(Place.parse(str(entry["place"])))
            elif entry["sign"] != 1:
                raise ValueError(f"bad sign {entry['sign']}")
        return cls(frozenset(minus))


def _vector_from_exponents(a: Fraction, b: Fraction, exps_a, exps_b) -> SymbolVector:
    """hilbert_vector from the signed exponents of a and b, as returned by
    rational_factor_exponents, whose primes are Primes already."""
    va, vb = dict(exps_a), dict(exps_b)
    minus = [INF_PLACE] if a < 0 and b < 0 else []
    for p in {2, *va, *vb}:
        alpha, beta = va.get(p, 0), vb.get(p, 0)
        m = 8 if p == 2 else p
        # at odd p the symbol reads u_a only if beta is odd, u_b only if alpha is
        ua = local_residue(a, p, alpha, m) if p == 2 or beta % 2 else 1
        ub = local_residue(b, p, beta, m) if p == 2 or alpha % 2 else 1
        if _symbol_exponent(p, alpha, ua, beta, ub):
            minus.append(TWO_PLACE if p == 2 else Place.finite(p))
    return SymbolVector(frozenset(minus))


def hilbert_vector(a: Rat, b: Rat) -> SymbolVector:
    """All local symbols of (a, b); support is within {inf, 2} and the primes
    of a and b, and the -1 count is even (the product formula).

    The numerator and denominator of a and b are each factored once.  The
    valuations come from those factorizations, a unit residue is taken only
    where the symbol reads it, and a Place is built only where the symbol
    is -1."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("inputs must be nonzero")
    _, exps_a = rational_factor_exponents(a)
    _, exps_b = rational_factor_exponents(b)
    return _vector_from_exponents(a, b, exps_a, exps_b)


# ---------------------------------------------------------------------------
# local witnesses

#: How far from 0 a x^2 + b y^2 - 1 may be for an approximate real witness.
WITNESS_TOLERANCE = 1e-9


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
        if self.place.is_infinite:
            err = Fraction(a) * self.x ** 2 + Fraction(b) * self.y ** 2 - 1
            if self.approximate:
                return abs(err) <= WITNESS_TOLERANCE
            return err == 0
        # err = N / D over the common denominator D = ad bd xd^2 yd^2, in
        # integers: v_p(err) = v_p(N) - v_p(D) >= precision exactly when
        # p^(precision + v_p(D)) divides N (which N = 0 does)
        a, b = (t if isinstance(t, (int, Fraction)) else Fraction(t) for t in (a, b))
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        xn, xd, yn, yd = self.x.numerator, self.x.denominator, self.y.numerator, self.y.denominator
        xd2, yd2 = xd * xd, yd * yd
        D = ad * bd * xd2 * yd2
        N = an * bd * xn * xn * yd2 + bn * ad * yn * yn * xd2 - D
        k = self.precision + int_valuation(D, self.place.prime)[0]
        return k <= 0 or N % self.place.prime**k == 0


_SEARCH_DENOMS = 16
_SEARCH_RANGE = 12


def _infinite_witness(a: Fraction, b: Fraction) -> LocalWitness:
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


def _unit_witness(ua: int, ub: int, beta: int, p: int, k: int) -> tuple[Fraction, Fraction]:
    """(x, y) with A x^2 + p^beta B y^2 = 1 to k digits, for beta in {0, 1}
    and p-adic units A, B of residues ua, ub mod p^k with (A, p^beta B)_p = +1.
    Every square root is unit_sqrt's on a residue mod p^k."""
    mod = p**k
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
    a: Rat, b: Rat, v: PlaceLike, precision: int = 32
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
    place = _coerce_place(v)
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("inputs must be nonzero")
    if place.is_infinite:
        return None if a < 0 and b < 0 else _infinite_witness(a, b)
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    p = place.prime
    K = precision + _PRECISION_BUFFER
    va, ua = local_unit(a, p, p**K)
    vb, ub = local_unit(b, p, p**K)
    m = 8 if p == 2 else p
    if _symbol_exponent(p, va, ua % m, vb, ub % m):
        return None
    # a = sa^2 p^(va % 2) A and b = sb^2 p^(vb % 2) B, sa and sb powers of p
    sa, sb = Fraction(p) ** (va // 2), Fraction(p) ** (vb // 2)
    if va % 2 == 0:
        x, y = _unit_witness(ua, ub, vb % 2, p, K)
    elif vb % 2 == 0:
        y, x = _unit_witness(ub, ua, 1, p, K)
    else:
        # a'' = -a b / (sa sb p)^2 is a unit, and br = b / sb^2: a witness
        # (w, z) of (a'', br) gives one of (ar, br), ar = a / sa^2
        br = b / sb**2
        w, z = _unit_witness(-ua * ub % p**K, ub, 1, p, K)
        if z == 0:
            # a'' = 1/w^2: ar x^2 + br y^2 = ((br y)^2 - a''(p x)^2)/br
            x, y = (br - 1) * w / (2 * p), (1 + br) / (2 * br)
        else:
            # br = (1/z)^2 - a''(w/z)^2
            x, y = w / (p * z), 1 / (br * z)
    witness = LocalWitness(place, x / sa, y / sb, precision)
    assert witness.verify(a, b), (a, b, p, witness)
    return witness


def is_local_norm(a: Rat, b: Rat, v: PlaceLike) -> bool:
    """Whether a is a norm from Q_v(sqrt(b)): when b is a square the norm map
    is the identity, and otherwise membership is detected by the symbol."""
    return hilbert_symbol(a, b, v) == 1


# ---------------------------------------------------------------------------
# quadratic extensions <-> characters

def _nu(p: int) -> QuadraticCharacter:
    return QuadraticCharacter(frozenset(), unramified_sign_prime=p)


def ext_char_correspondence(p: int) -> list[tuple[int, QuadraticCharacter]]:
    """The dictionary between quadratic extensions Q_p(sqrt(b)) (b running
    over the nontrivial square classes) and the quadratic characters of
    Q_p^x with kernel the norm group: chi_b(a) = (a, b)_p."""
    p = Prime(p)
    if p == 2:
        nu = _nu(p)
        l4 = QuadraticCharacter(frozenset({4}))
        l8 = QuadraticCharacter(frozenset({8}))
        return [
            (5, nu),
            (-1, l4),
            (-5, nu.times(l4)),
            (2, l8),
            (10, nu.times(l8)),
            (-2, l4.times(l8)),
            (-10, nu.times(l4).times(l8)),
        ]
    u = smallest_nonresidue(p)
    nu = _nu(p)
    lp = QuadraticCharacter(frozenset({p}))
    return [(u, nu), (-p, lp), (-u * p, nu.times(lp))]
