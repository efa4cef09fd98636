"""The benchmark's own arithmetic, used to draw inputs and to check outputs.

Nothing here imports qrlab: a check that called the function under test
would pass whatever that function returned.  The algorithms are chosen to
differ from qrlab's where that is cheap (the Jacobi symbol by reciprocity
rather than Euler's criterion, factorization by plain trial division).
"""

from __future__ import annotations

from fractions import Fraction

# Miller-Rabin with the first 13 primes as bases is a proof of primality
# below 3.3e24 (Sorenson and Webster 2015); every prime drawn here is < 2^48.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = [p for p in range(2, 1001) if all(p % d for d in range(2, int(p**0.5) + 1))]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The least prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def prime_divisors(n: int) -> set[int]:
    """Primes dividing n, by trial division; |n| <= 10^6 keeps this exact."""
    n = abs(n)
    if n > 10**6:
        raise ValueError("prime_divisors is only exact for |n| <= 10^6")
    out = set()
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.add(n)
    return out


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(x: Fraction, p: int):
    """v_p(x) for a rational x; None stands for v_p(0) = infinity."""
    if x == 0:
        return None
    return valuation(x.numerator, p) - valuation(x.denominator, p)


def _square_class_int(x: Fraction) -> int:
    """An integer in the square class of the nonzero rational x: n/d ~ n*d."""
    return x.numerator * x.denominator


def hilbert_symbol(a: Fraction, b: Fraction, p: int) -> int:
    """(a, b)_p from Serre, A Course in Arithmetic, III.1.2; p = 0 is the
    real place."""
    A, B = _square_class_int(a), _square_class_int(b)
    if p == 0:
        return -1 if A < 0 and B < 0 else 1
    alpha, beta = valuation(A, p), valuation(B, p)
    u, v = A // p**alpha, B // p**beta
    if p == 2:
        eps = lambda t: (t % 4 - 1) // 2
        omega = lambda t: ((t % 8) ** 2 - 1) // 8 % 2
        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    sign = -1 if alpha * beta * (p - 1) // 2 % 2 else 1
    return sign * jacobi(u, p) ** beta * jacobi(v, p) ** alpha


def minus_support(a: Fraction, b: Fraction) -> tuple[int, ...]:
    """The places where (a, b)_v = -1, sorted, 0 standing for the real place;
    a and b have numerators and denominators of at most 10^6."""
    places = {0, 2}
    for x in (a, b):
        places |= prime_divisors(x.numerator) | prime_divisors(x.denominator)
    return tuple(sorted(v for v in places if hilbert_symbol(a, b, v) == -1))


def conic_solvable(a: int, b: int) -> bool:
    """Legendre's criterion for a x^2 + b y^2 = 1 when a and b are distinct
    signed primes: not both negative, b a square mod |a|, a a square mod |b|."""
    if a < 0 and b < 0:
        return False
    return _is_square_mod_prime(b, abs(a)) and _is_square_mod_prime(a, abs(b))


def _is_square_mod_prime(x: int, p: int) -> bool:
    if p == 2:
        return True
    return jacobi(x, p) == 1


def padic_sqrt_text(x: Fraction, p: int, precision: int) -> str:
    """What `qrlab sqrt x -p p --prec k` prints for an odd prime p: "none"
    when x is not a square in Q_p, else the root whose first digit lies in
    [1, (p-1)/2], written as p^v * (d0 + d1*p + ...) + O(p^(v+k))."""
    v = rational_valuation(x, p)
    if v % 2:
        return "none"
    mod = p**precision
    unit = x / Fraction(p) ** v
    u = unit.numerator * pow(unit.denominator, -1, mod) % mod
    if jacobi(u, p) != 1:
        return "none"
    r = next(t for t in range(1, p) if (t * t - u) % p == 0)
    for _ in range(precision.bit_length() + 1):
        r = (r - (r * r - u) * pow(2 * r, -1, mod)) % mod
    if (r * r - u) % mod:
        raise ArithmeticError("Newton iteration did not converge")
    if r % p > (p - 1) // 2:
        r = mod - r
    terms = []
    for i in range(precision):
        d = r // p**i % p
        if d:
            terms.append(str(d) if i == 0 else f"{d}*{p}" if i == 1 else f"{d}*{p}^{i}")
    w = v // 2
    return f"{p}^{w} * ({' + '.join(terms)}) + O({p}^{w + precision})"
