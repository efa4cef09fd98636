"""Quadratic characters of (Z/mZ)^x and of Q_v^x: the Legendre character,
the mod-4 and mod-8 sign characters, Gauss's lemma, the reciprocity law
with its lattice-count proof, the composite characters psi_a and chi_a,
the global characters (products of lambda_4, lambda_8 and lambda_p), the
local ones (a global character of the units times a power of the place's
sign: sign(x) at the real place, nu_p(x) = (-1)^v_p(x) at p), and the table
pairing each quadratic extension Q_p(sqrt(d)) with the character of its
norm group, computed from one closed form.

Sign values are plain ints in {+1,-1}.  The mod-4, mod-8 and archimedean
signs each have an epsilon twin returning an element of {0,1} (the exponent
in sign = (-1)^eps), and exponent bookkeeping is done mod 2 in those twins to
keep signs and exponents from being mixed up.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qrlab.rational import (
    INF_PLACE,
    Place,
    PlaceLike,
    Prime,
    Rat,
    Record,
    _set,
    factorize,
    local_unit,
    odd_prime,
    smallest_nonresidue,
    unit_residue,
)


# ---------------------------------------------------------------------------
# the three primitive characters and the archimedean sign

def eps4(a: Rat) -> int:
    """(a-1)/2 mod 2 for a 2-adic unit a: 0 iff a = 1 (mod 4)."""
    return (unit_residue(a, 4) - 1) // 2


def lambda4(a: Rat) -> int:
    return (-1) ** eps4(a)


def eps8(a: Rat) -> int:
    """(a^2-1)/8 mod 2 for a 2-adic unit a: 0 iff a = +-1 (mod 8)."""
    r = unit_residue(a, 8)
    return (r * r - 1) // 8 % 2


def lambda8(a: Rat) -> int:
    return (-1) ** eps8(a)


def eps_inf(a: Rat) -> int:
    """0 for positive a, 1 for negative a."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("sign of 0 is undefined")
    return 0 if a > 0 else 1


def sign_inf(a: Rat) -> int:
    return (-1) ** eps_inf(a)


def legendre(a: Rat, p: int) -> int:
    """The quadratic character of the unit a modulo the odd prime p, by
    Euler's criterion a^((p-1)/2); inputs with v_p(a) != 0 are rejected."""
    p = odd_prime(p)
    r, u = local_unit(a, p, p)
    if r != 0:
        raise ValueError(f"v_{p}({a}) = {r} != 0: not a unit at {p}")
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# Gauss's lemma and the lattice-count proof of reciprocity

#: Largest p gauss_lemma_sign accepts: it takes (p-1)/2 steps.
GAUSS_LEMMA_BOUND = 10**7

#: Largest p*q lattice_counts accepts: it visits (p-1)(q-1)/4 grid points.
LATTICE_BOUND = 10**7


def gauss_lemma_sign(a: int, p: int) -> int:
    """lambda_p(a) as the product of the signs e_a(x) over the section
    S = [1, (p-1)/2], where e_a(x) is the sign of the representative of ax
    in [-(p-1)/2, (p-1)/2].  Kept as an independent O(p) oracle for legendre."""
    if p > GAUSS_LEMMA_BOUND:
        raise ValueError(f"p = {p} exceeds the Gauss-lemma workload bound {GAUSS_LEMMA_BOUND}")
    odd_prime(p)  # p stays a plain int for the loop
    if math.gcd(a, p) != 1:
        raise ValueError("gcd(a, p) must be 1")
    h = (p - 1) // 2
    a %= p
    return (-1) ** sum(a * x % p > h for x in range(1, h + 1))


def lattice_counts(p: int, q: int) -> tuple[int, int]:
    """(M, N) over the grid [1,p']x[1,q']: M counts qx-py in [-p',-1] and
    N counts qx-py in [1,q'], so that (-1)^M = lambda_p(q), (-1)^N =
    lambda_q(p), and M+N = p'q' (mod 2)."""
    if p == q:
        raise ValueError("p and q must be distinct")
    if p * q > LATTICE_BOUND:
        raise ValueError(f"p*q = {p * q} exceeds the lattice workload bound {LATTICE_BOUND}")
    odd_prime(p)  # p and q stay plain ints for the loop
    odd_prime(q)
    pp, qq = (p - 1) // 2, (q - 1) // 2
    m = n = 0
    for x in range(1, pp + 1):
        qx = q * x
        for y in range(1, qq + 1):
            t = qx - p * y
            if -pp <= t <= -1:
                m += 1
            elif 1 <= t <= qq:
                n += 1
    return m, n


def reciprocity_check(p: int, q: int) -> bool:
    """lambda_p(q) = lambda_q(lambda_4(p) p), plus both supplementary laws
    lambda_p(-1) = lambda_4(p) and lambda_p(2) = lambda_8(p)."""
    p, q = odd_prime(p), odd_prime(q)
    law = legendre(q, p) == legendre(lambda4(p) * p, q)
    supp1 = legendre(-1, p) == lambda4(p)
    supp2 = legendre(2, p) == lambda8(p)
    return law and supp1 and supp2


# ---------------------------------------------------------------------------
# structural quadratic characters

#: The factors that read a unit mod 4 and mod 8.
_TWO_ADIC = frozenset({4, 8})


class QuadraticCharacter(Record):
    """A product of primitive quadratic characters, stored structurally:
    `factors` is a set drawn from {4, 8} and odd primes, 4 standing for
    the mod-4 sign character, 8 for the mod-8 one and an odd prime p
    (held as a Prime) for the Legendre character at p."""

    __slots__ = ("factors",)

    def __init__(self, factors: frozenset[int]):
        _set(self, "factors", frozenset(f if f in _TWO_ADIC else odd_prime(f) for f in factors))

    @property
    def modulus(self) -> int:
        return math.lcm(*self.factors)

    def _exponent(self, r: int) -> int:
        """e with (-1)^e the product of the factors at a unit whose residue
        is r: lambda_4 and lambda_8 read r mod 4 and mod 8 (r odd),
        lambda_f reads it mod f by Euler's criterion (r prime to f).  The
        one core of eval and LocalCharacter.value, on a plain int."""
        e = 0
        for f in self.factors:
            if f == 4:
                e += r % 4 == 3
            elif f == 8:
                e += r % 8 in (3, 5)
            else:
                e += pow(r, (f - 1) // 2, f) != 1
        return e

    def eval(self, x: Rat) -> int:
        """Global evaluation at x prime to the modulus (x odd when 4 or 8
        divides the modulus)."""
        if x == 0:
            raise ValueError("x must be nonzero")
        return (-1) ** (self._exponent(unit_residue(x, self.modulus)) % 2)

    def label(self) -> str:
        return "*".join(f"lambda_{f}" for f in sorted(self.factors)) or "1"


TRIVIAL_CHARACTER = QuadraticCharacter(frozenset())


class LocalCharacter(Record):
    """A character of Q_v^x of order dividing 2: quad on the units times
    the place's sign to the power r.  The sign is sign(x) at the real
    place, which admits no quad factor, and nu_p(x) = (-1)^v_p(x) at p,
    whose quad factors are drawn from {4, 8} (p = 2) or {p}.  Building one
    is the one check of a character's locality."""

    __slots__ = ("place", "quad", "r")

    def __init__(self, place: Place, quad: QuadraticCharacter = TRIVIAL_CHARACTER, r: int = 0):
        if r not in (0, 1):
            raise ValueError("r must be 0 or 1")
        p = place.prime  # None at the real place, where no factor is local
        if not quad.factors <= (_TWO_ADIC if p == 2 else {p}):
            raise ValueError(f"factors {set(quad.factors)} are not local at {place}")
        _set(self, "place", place)
        _set(self, "quad", quad)
        _set(self, "r", r)

    @classmethod
    def at_infinity(cls, r: int) -> "LocalCharacter":
        return cls(INF_PLACE, r=r)

    @classmethod
    def attached_to_extension(cls, d: Rat, v: PlaceLike) -> "LocalCharacter":
        """The character of Q_v^x with kernel the norms of Q_v(sqrt(d))."""
        d = Fraction(d)
        if d == 0:
            raise ValueError("d must be nonzero")
        place = Place.parse(v)
        if place.is_infinite:
            return cls(place, r=0 if d > 0 else 1)
        return _extension_character(d, place.prime)

    def value(self, x: Rat) -> int:
        """chi(x) in {+1, -1}; x nonzero rational."""
        if self.place.is_infinite:
            return sign_inf(x) if self.r else 1
        p = self.place.prime
        v, u = local_unit(x, p, 8 if p == 2 else p)
        return (-1) ** ((self.quad._exponent(u) + self.r * v) % 2)

    def label(self) -> str:
        sign = "sign" if self.place.is_infinite else f"nu_{self.place.prime}"
        parts = [sign] * self.r + [f"lambda_{f}" for f in sorted(self.quad.factors)]
        return "*".join(parts) or "1"


# ---------------------------------------------------------------------------
# quadratic extensions <-> characters

def _extension_character(d: Rat, p: int) -> LocalCharacter:
    """The character a -> (a, d)_p of Q_p^x, whose kernel is the norm group
    of Q_p(sqrt(d)): Serre's closed form for the Hilbert symbol (A Course in
    Arithmetic, III.1.2) read as a function of a.  With d = p^beta u, it is
    lambda_4^eps4(u) lambda_8^beta nu^eps8(u) at 2, and
    lambda_p^beta nu^(beta (p-1)/2 + [u is a non-residue]) at odd p."""
    beta, u = local_unit(d, p, 8 if p == 2 else p)
    beta %= 2
    factors = {8 if p == 2 else p} if beta else set()
    if p == 2:
        if u % 4 == 3:  # eps4(u)
            factors.add(4)
        nu = int(u % 8 in (3, 5))  # eps8(u)
    else:
        nu = (beta * (p - 1) // 2 + (pow(u, (p - 1) // 2, p) != 1)) % 2
    return LocalCharacter(Place.finite(p), QuadraticCharacter(frozenset(factors)), nu)


def ext_char_correspondence(p: int) -> list[tuple[int, LocalCharacter]]:
    """The dictionary between quadratic extensions Q_p(sqrt(b)) (b running
    over the nontrivial square classes) and the quadratic characters of
    Q_p^x with kernel the norm group: chi_b(a) = (a, b)_p."""
    p = Prime(p)
    if p == 2:
        reps = (5, -1, -5, 2, 10, -2, -10)
    else:
        u = smallest_nonresidue(p)
        reps = (u, -p, -u * p)
    return [(b, _extension_character(b, p)) for b in reps]


def psi(a: int, n: Rat) -> int:
    """psi_a(n) = prod of lambda_p(n) over primes p with v_p(a) odd."""
    if a % 2 == 0:
        raise ValueError("a must be odd")
    sign = 1
    for p, e in factorize(a).factors:
        if e % 2:
            sign *= legendre(n, p)
    return sign


def chi_character(a: int) -> QuadraticCharacter:
    """The character chi_a of G_{4|a|} attached to a squarefree a, built by
    the recipe: for positive odd b = l_1...l_r, chi_b = lambda_4^{eps_4(b)}
    lambda_{l_1}...lambda_{l_r}; then chi_{-b} = lambda_4 chi_b and
    chi_{2b} = lambda_8 chi_b."""
    fac = factorize(a)
    if not fac.is_squarefree():
        raise ValueError(f"{a} is not squarefree")
    odd_primes = frozenset(p for p, _ in fac.factors if p != 2)
    b = 1
    for p in odd_primes:
        b *= p
    factors = set(odd_primes)
    if eps4(b):
        factors ^= {4}
    if fac.sign < 0:
        factors ^= {4}
    if fac.vp(2):
        factors ^= {8}
    return QuadraticCharacter(frozenset(factors))


def kronecker_chi(a: int, x: int) -> int:
    """chi_a(x) for squarefree a and x prime to 4|a|."""
    if math.gcd(x, 4 * abs(a)) != 1:
        raise ValueError(f"gcd({x}, 4|a|) must be 1")
    return chi_character(a).eval(x)


def quadratic_char_basis(m: int) -> list[QuadraticCharacter]:
    """An independent generating set for the order-<=2 characters of G_m:
    lambda_p for each odd prime p | m, lambda_4 if 4 | m, lambda_8 if 8 | m."""
    if m <= 2:
        raise ValueError("m must be > 2")
    fac = factorize(m)
    basis = [
        QuadraticCharacter(frozenset({p})) for p, _ in fac.factors if p != 2
    ]
    if fac.vp(2) > 1:
        basis.append(QuadraticCharacter(frozenset({4})))
    if fac.vp(2) > 2:
        basis.append(QuadraticCharacter(frozenset({8})))
    return basis


def group_product_sign(m: int) -> int:
    """The product of all units mod m, as +-1: it is -1 exactly when G_m is
    cyclic of even order, i.e. for m = 4, m = l^a and m = 2 l^a (l odd)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m in (1, 2):
        return 1
    if m == 4:
        return -1
    fac = factorize(m)
    odd = [(p, e) for p, e in fac.factors if p != 2]
    v2 = fac.vp(2)
    if len(odd) == 1 and v2 <= 1:
        return -1
    return 1


#: Largest n binomial_primality accepts: its coefficients grow to ~n bits,
#: so a prime n costs O(n^2) bit operations.
BINOMIAL_PRIMALITY_BOUND = 3 * 10**4


def binomial_primality(n: int) -> bool:
    """Whether (T+1)^n = T^n + 1 in (Z/nZ)[T], i.e. all middle binomial
    coefficients vanish mod n; by the factorial-valuation identity this
    happens exactly when n is prime."""
    if n <= 1:
        raise ValueError("n must be > 1")
    if n > BINOMIAL_PRIMALITY_BOUND:
        raise ValueError(
            f"n = {n} exceeds the binomial-primality workload bound {BINOMIAL_PRIMALITY_BOUND}"
        )
    c = 1
    for k in range(1, n // 2 + 1):
        c = c * (n - k + 1) // k
        if c % n:
            return False
    return True


# ---------------------------------------------------------------------------
# the Mersenne showcase: lambda_p(2012) for p = 2^43112609 - 1

class MersenneCharacterResult(Record):
    __slots__ = (
        "exponent",
        "exponent_residue",
        "two_power_residue",
        "p_residue",
        "euler_argument",
        "sign_euler",
        "sign_factored",
    )

    def __init__(
        self,
        exponent: int,
        exponent_residue: int,  # 43112609 mod 502
        two_power_residue: int,  # 2^347 mod 503
        p_residue: int,  # p mod 503
        euler_argument: int,  # the residue fed to Euler's criterion mod 503
        sign_euler: int,
        sign_factored: int,  # cross-check via 91 = 7 * 13
    ):
        _set(self, "exponent", exponent)
        _set(self, "exponent_residue", exponent_residue)
        _set(self, "two_power_residue", two_power_residue)
        _set(self, "p_residue", p_residue)
        _set(self, "euler_argument", euler_argument)
        _set(self, "sign_euler", sign_euler)
        _set(self, "sign_factored", sign_factored)

    @property
    def sign(self) -> int:
        return self.sign_euler


def bost_demo() -> MersenneCharacterResult:
    """Compute lambda_p(2012) for the Mersenne prime p = 2^43112609 - 1
    without materializing p: 2012 = 2^2 * 503, so lambda_p(2012) =
    lambda_p(503), which reciprocity turns into a computation mod 503."""
    exponent = 43112609
    q = Prime(503)  # q = 3 (mod 4)
    # ord(2 mod 503) divides 502; reduce the Mersenne exponent mod 502.
    e = exponent % (q - 1)
    two_pow = pow(2, e, q)
    p_mod = two_pow - 1
    # p = 3 (mod 4), so lambda_p(q) = lambda_q(-p) = lambda_q(-(p mod q)).
    arg = (-p_mod) % q
    sign_euler = legendre(arg, q)
    # -91 = -1 * 7 * 13 gives an independent multiplicative route.
    sign_factored = legendre(-1, q)
    for f, exp in factorize(p_mod).factors:
        sign_factored *= legendre(f, q) ** exp
    return MersenneCharacterResult(
        exponent=exponent,
        exponent_residue=e,
        two_power_residue=two_pow,
        p_residue=p_mod,
        euler_argument=arg,
        sign_euler=sign_euler,
        sign_factored=sign_factored,
    )
