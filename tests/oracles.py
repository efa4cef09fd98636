"""Independent brute-force reference implementations used to pin down
expected values.  Everything here is deliberately naive: no modular
exponentiation tricks, no library calls into qrlab internals beyond plain
integer arithmetic, so that agreement with the package is meaningful.
The routes at the end are the exception: each is an earlier, slower route
to a public function, kept to pin the route that replaced it."""

import math
from fractions import Fraction


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    if n > 0:
        sieve[0:1] = b"\x00"
    if n > 1:
        sieve[1:2] = b"\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [i for i in range(n) if sieve[i]]


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def legendre_by_squares(a: int, p: int) -> int:
    """Membership of a mod p in the explicit set of nonzero squares."""
    squares = {x * x % p for x in range(1, p)}
    return 1 if a % p in squares else -1


def flips_by_hand(a: int, p: int) -> int:
    """Count of x in [1,(p-1)/2] whose representative of ax lands negative."""
    return sum(1 for x in range(1, (p - 1) // 2 + 1) if a * x % p > (p - 1) // 2)


def sqrt_mod_by_search(a: int, m: int):
    """Smallest root of x^2 = a (mod m) in [0, m/2], by full scan."""
    roots = [x for x in range(m) if (x * x - a) % m == 0]
    folded = sorted(min(x, m - x) for x in roots)
    return folded[0] if folded else None


def unit_group_product(m: int) -> int:
    """Product of all units mod m, mapped to +-1 (fails loudly otherwise)."""
    from math import gcd

    pr = 1
    for x in range(1, m + 1):
        if gcd(x, m) == 1:
            pr = pr * x % m
    if pr == 1 % m:
        return 1
    assert pr == m - 1, (m, pr)
    return -1


def power_sum_direct(k: int, n: int) -> int:
    """0^k + 1^k + ... + (n-1)^k, with 0^0 counted as 1."""
    return sum(m ** k for m in range(n))


def hensel_one_digit(f, df, x0: int, p: int, target: int) -> int:
    """Refine a simple root of f one p-adic digit at a time: the textbook
    induction, kept as an oracle for the Newton-style lift.

    f, df: callables on ints; x0: approximate root with v_p(f(x0)) > 2*delta
    where delta = v_p(df(x0)).  Returns the root mod p^target.
    """

    def vp(n):
        if n == 0:
            return 10 ** 9
        r = 0
        while n % p == 0:
            n //= p
            r += 1
        return r

    delta = vp(df(x0))
    m = vp(f(x0))
    assert m > 2 * delta, "hypothesis v_p(f(x0)) > 2 v_p(df(x0)) violated"
    x = x0 % p ** target
    while m < target + delta:
        # one digit: x <- x + t*p^(m-delta) with t killing the next term
        fd = df(x) // p ** delta
        t = (-(f(x) // p ** m) * pow(fd, -1, p)) % p
        x = (x + t * p ** (m - delta)) % p ** target
        m = min(vp(f(x)), target + delta)
    return x % p ** (target)


def slow_hilbert(a: Fraction, b: Fraction, p) -> int:
    """Solvability of a x^2 + b y^2 = z^2 in Q_p by exhaustive search on
    primitive triples mod p^k; p = 0 means the real place.  Only meant for
    small p and small heights.

    After stripping square factors the coefficients have valuation <= 1, and
    a primitive solution mod p^3 (p odd) resp. mod 2^6 lifts to Z_p by
    one-variable Hensel applied to whichever variable is a unit, so the
    search modulus below is exact, not heuristic.
    """
    a, b = Fraction(a), Fraction(b)
    if p == 0:
        return 1 if (a > 0 or b > 0) else -1
    # clear denominators and strip square factors: the symbol only depends
    # on square classes, and small valuations keep the modulus small
    a_int = a.numerator * a.denominator
    b_int = b.numerator * b.denominator

    def strip(n):
        while n % (p * p) == 0:
            n //= p * p
        return n

    a_int, b_int = strip(a_int), strip(b_int)
    mod = p ** 3 if p > 2 else 64
    all_squares = {z * z % mod for z in range(mod)}
    unit_squares = {z * z % mod for z in range(mod) if z % p}
    for x in range(mod):
        for y in range(mod):
            t = (a_int * x * x + b_int * y * y) % mod
            if x % p or y % p:
                if t in all_squares:
                    return 1
            elif t in unit_squares:
                return 1
    return -1


def _vp_int(n: int, p: int) -> int:
    r = 0
    while n and n % p == 0:
        n //= p
        r += 1
    return r


def bernoulli_by_series(k: int) -> Fraction:
    """B_k read off the power series T/(e^T - 1) by direct inversion of
    sum_n T^n/(n+1)!, independent of the recurrence."""
    a = [Fraction(1, math.factorial(n + 1)) for n in range(k + 1)]
    c = [Fraction(1)]
    for n in range(1, k + 1):
        c.append(-sum(a[j] * c[n - j] for j in range(1, n + 1)))
    return c[k] * math.factorial(k)


def bernoulli_table_by_recurrence(k: int) -> list[Fraction]:
    """[B_0, ..., B_k] from sum_{j<=m} C(m+1, j) B_j = 0 (so B_1 = -1/2),
    term by term on Fractions: O(k^2) growing-Fraction operations."""
    b = [Fraction(1)]
    for m in range(1, k + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def conductor_by_search(chi) -> int:
    """a(chi) for a local character at a finite place p: the least n <= 3
    with chi(x) = 1 on every unit x = 1 (mod p^n) modulo 8 (p = 2) or p,
    found by evaluating chi on each such x."""
    p = chi.place.prime
    modulus = 8 if p == 2 else p
    for n in range(4):
        step = min(p ** n, modulus)
        group = [x for x in range(1, modulus + 1) if x % p and (x - 1) % step == 0]
        if all(chi.value(x) == 1 for x in group):
            return n
    raise AssertionError("quadratic characters have conductor exponent <= 3")


def factorization_value(f) -> int:
    """sign * prod p^e: the integer a Factorization stands for."""
    n = f.sign
    for p, e in f.factors:
        n *= p ** e
    return n


def squarefree_split(sign: int, exps) -> tuple[int, Fraction]:
    """(n, s) with sign * prod p^e = n s^2 over the pairs (p, e), e signed:
    n the squarefree integer of the primes with odd e, s > 0 rational."""
    n, s = sign, Fraction(1)
    for p, e in exps:
        if e % 2:
            n *= p
        s *= Fraction(p) ** (e // 2)
    return n, s


def eps_p(a, p: int) -> int:
    """e in {0, 1} with (a/p) = (-1)^e for a rational a that is a unit at
    the odd prime p, by Euler's criterion; ValueError when it is not."""
    a = Fraction(a)
    if a.numerator % p == 0 or a.denominator % p == 0:
        raise ValueError(f"{a} is not a unit at {p}")
    r = a.numerator * pow(a.denominator, -1, p) % p
    return 0 if pow(r, (p - 1) // 2, p) == 1 else 1


def sign_at(vector, place) -> int:
    """The Hilbert symbol a symbol vector records at a place, given as a
    Place, an int prime or "inf", compared through its printed form."""
    return -1 if str(place) in {str(v) for v in vector.minus_places} else 1


def padic_value(x) -> Fraction:
    """p^v * unit of a p-adic element as an exact rational, 0 for zero."""
    if x.unit == 0:
        return Fraction(0)
    return Fraction(x.prime) ** x.valuation * x.unit


def unit_digit(x, i: int) -> int:
    """The i-th base-p digit of the unit of a p-adic element."""
    return x.unit // x.prime ** i % x.prime


def digits_value(ds, p: int) -> int:
    """sum d_i p^i mod p^len(ds): the integer a digit list stands for."""
    return sum(d * p ** i for i, d in enumerate(ds)) % p ** len(ds)


def ternary_by_solve_conic(a: int, b: int, c: int):
    """legendre_ternary by its older route, kept to pin the one that factors
    each coefficient once: a b c checked squarefree by gcds and factorize
    on each of a, b and c, then solve_conic(-a/c, -b/c), which factors c
    again for each argument."""
    from qrlab.conic import solve_conic
    from qrlab.rational import DEFAULT_FACTOR_BOUND, FactorizationError, factorize

    if a * b * c == 0:
        raise ValueError("coefficients must be nonzero")
    if abs(a * b * c) > DEFAULT_FACTOR_BOUND:
        raise FactorizationError(f"|n| exceeds workload bound {DEFAULT_FACTOR_BOUND}")
    if (math.gcd(a, b) != 1 or math.gcd(b, c) != 1 or math.gcd(a, c) != 1
            or not all(factorize(t).is_squarefree() for t in (a, b, c))):
        raise ValueError("a b c must be squarefree")
    cert = solve_conic(Fraction(-a, c), Fraction(-b, c))
    if cert.outcome == "obstruction":
        return None
    z = math.lcm(cert.x.denominator, cert.y.denominator)
    return int(abs(cert.x * z)), int(abs(cert.y * z)), z


def global_norm_by_solve_conic(a, b):
    """global_is_norm by its older route, kept to pin the one that factors
    a and b once each: solve_conic(1/a, -b/a), which factors a twice."""
    from qrlab.conic import NormCertificate, solve_conic
    from qrlab.rational import is_rational_square

    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    rb = is_rational_square(b)
    if rb is not None:
        return NormCertificate(a, b, True, y=(a - 1) / (2 * rb), z=(a + 1) / 2)
    conic = solve_conic(1 / a, -b / a)
    if conic.outcome == "obstruction":
        return NormCertificate(a, b, False, places=conic.places)
    return NormCertificate(a, b, True, y=conic.y, z=conic.x)


def ext_char_table_by_hand(p: int):
    """ext_char_correspondence by its older route, kept to pin the closed
    form that replaced it: the seven 2-adic characters and the three at an
    odd p, each written out as a product of nu, lambda_4, lambda_8 and
    lambda_p."""
    from qrlab.rational import Place, smallest_nonresidue
    from qrlab.symbols import LocalCharacter, QuadraticCharacter

    def chi(factors=(), nu=0):
        return LocalCharacter(Place.finite(p), QuadraticCharacter(frozenset(factors)), nu)

    if p == 2:
        return [
            (5, chi(nu=1)),
            (-1, chi({4})),
            (-5, chi({4}, 1)),
            (2, chi({8})),
            (10, chi({8}, 1)),
            (-2, chi({4, 8})),
            (-10, chi({4, 8}, 1)),
        ]
    u = smallest_nonresidue(p)
    return [(u, chi(nu=1)), (-p, chi({p})), (-u * p, chi({p}, 1))]


def attached_character_by_search(d, p: int):
    """LocalCharacter.attached_to_extension(d, p) by its older route, kept
    to pin the closed form that replaced it: the character of the table
    entry b with b d a square at p, or the trivial one when d is a square."""
    from qrlab.padic import square_class
    from qrlab.rational import Place
    from qrlab.symbols import LocalCharacter

    for b, chi in ext_char_table_by_hand(p):
        if square_class(b * Fraction(d), p) == 1:
            return chi
    return LocalCharacter(Place.finite(p))


# the one local reduction's older route: x = p^r u with the unit u built as
# a Fraction, then reduced mod m

def old_vp_split(x, p):
    from qrlab.rational import INFINITY, int_valuation

    x = Fraction(x)
    if x == 0:
        return INFINITY
    r, num = int_valuation(x.numerator, p)
    if r:
        return r, Fraction(num, x.denominator)
    r, den = int_valuation(x.denominator, p)
    return -r, Fraction(num, den)


def old_unit_residue(x, m, p=1, v=0):
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if v > 0:
        num //= p**v
    elif v < 0:
        den //= p**-v
    if math.gcd(den, m) != 1 or math.gcd(num, m) != 1:
        raise ValueError(f"{x} is not a unit modulo {m}")
    return num * pow(den, -1, m) % m


def old_legendre(a, p):
    from qrlab.rational import INFINITY, is_probable_prime

    if p == 2 or not is_probable_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    split = old_vp_split(a, p)
    if split is INFINITY:
        raise ValueError("a must be nonzero")
    r, u = split
    if r != 0:
        raise ValueError("not a unit")
    return 1 if pow(old_unit_residue(u, p), (p - 1) // 2, p) == 1 else -1


def old_eval_local(chi, x):
    """LocalCharacter.value by the vp_split route: x = p^m u by
    old_vp_split, each factor read from u one at a time, and nu_p^r from
    m."""
    from qrlab.rational import INFINITY

    p = chi.place.prime
    split = old_vp_split(x, p)
    if split is INFINITY:
        raise ValueError("x must be nonzero")
    m, u = split
    e = chi.r * m
    for f in chi.quad.factors:
        if f == 4:
            e += (old_unit_residue(u, 4) - 1) // 2
        elif f == 8:
            r = old_unit_residue(u, 8)
            e += (r * r - 1) // 8 % 2
        else:
            e += 0 if old_legendre(u, f) == 1 else 1
    return (-1) ** (e % 2)


def old_unit_sqrt(u, p, k):
    """unit_sqrt with its Newton schedule worked out again on every call:
    the targets t from k + d down, and each p^t and p^(t - 2d) as the loop
    reaches it."""
    from qrlab.rational import sqrt_mod_prime

    x, d, m = (1 if u % 8 == 1 else None, 1, 3) if p == 2 else (sqrt_mod_prime(u, p), 0, 1)
    if x is None:
        return None
    targets, t = [], k + d
    while t > m:
        targets.append(t)
        t = (t + 1) // 2 + d
    s = pow((2 * x) >> d, -1, p)
    for t in reversed(targets[1:]):
        mod = p ** (t - 2 * d)
        x = (x - ((x * x - u) >> d) * s) % (mod << 2 * d)
        s = s * (2 - ((2 * x) >> d) * s) % mod
    return (x - ((x * x - u) >> d) * s) % p ** (k - d)
