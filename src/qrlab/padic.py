"""Finite-precision model of Q_p: elements in the normal form p^v * u with a
unit u tracked modulo p^k, exact-aware arithmetic, Hensel lifting, square
roots, Teichmuller representatives, digit expansions, the fractional part
<x>_p of an element or a rational, square classes, and the factorial
valuation and 2-adic binomial-series exercises.

Precision is relative: an element stores k unit digits, so its value is
known modulo p^(v+k).  Exact zero is a distinguished value, never a
"very small" element.  An element holds its prime as a `Prime`, so the
elements computed from it certify nothing again.  hensel_lift runs a
Newton loop on plain ints; a unit's root is rational.unit_sqrt's, lifted
on hensel_lift's schedule.
"""

from __future__ import annotations

import re
from fractions import Fraction

from qrlab.rational import (
    DEFAULT_PRECISION,
    INFINITY,
    PADIC_BITS_BOUND,
    PrecisionLossError,
    Prime,
    Rat,
    Record,
    _set,
    check_padic_size,
    int_valuation,
    local_unit,
    smallest_nonresidue,
    unit_sqrt,
    vp,
)

#: Most products mod p that vp_factorial spends on digit factorials, about
#: 0.5 s; a digit needs at most (p-1)/2, so no p below 10^7 is refused.
VP_FACTORIAL_BOUND = 5 * 10**6

#: Largest deg(f) * (b + 64) that hensel_lift accepts, b the larger bit size of x0
#: and p^(N+delta): f is evaluated exactly, at a word a step at least (<= ~0.4 s).
HENSEL_WORK_BOUND = 2**19


class PAdicElement(Record):
    """p^valuation * unit, with unit a residue mod p^precision prime to p.

    Exact zero is encoded as valuation = INFINITY with unit 0, precision 0.
    """

    __slots__ = ("prime", "valuation", "unit", "precision")

    def __init__(self, prime: int, valuation, unit: int, precision: int):
        p = Prime(prime)
        if valuation is INFINITY:
            if unit != 0 or precision != 0:
                raise ValueError("exact zero must have unit 0, precision 0")
        elif precision < 1:
            raise ValueError("precision must be >= 1")
        elif not 1 <= unit < p ** precision or unit % p == 0:
            raise ValueError(f"unit {unit} invalid mod {p}^{precision}")
        _set(self, "prime", p)
        _set(self, "valuation", valuation)  # int, or INFINITY for exact zero
        _set(self, "unit", unit)
        _set(self, "precision", precision)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PAdicElement":
        return cls(p, INFINITY, 0, 0)

    @classmethod
    def from_rational(cls, x: Rat, p: int, precision: int = DEFAULT_PRECISION) -> "PAdicElement":
        p = Prime(p)
        x = Fraction(x)
        if x == 0:
            return cls(p, INFINITY, 0, 0)
        if precision < 1:
            raise ValueError("precision must be >= 1")
        v, unit = local_unit(x, p, p ** precision)
        return cls(p, v, unit, precision)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is INFINITY

    @property
    def abs_precision(self):
        """The element is known modulo p^abs_precision."""
        if self.is_zero:
            return INFINITY
        return self.valuation + self.precision

    def integer_rep(self) -> int:
        """The canonical representative p^v * unit (valuation >= 0 only)."""
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise ValueError("element is not p-integral")
        return self.prime ** self.valuation * self.unit

    # -- arithmetic --------------------------------------------------------

    def _check_same_prime(self, other: "PAdicElement"):
        if not isinstance(other, PAdicElement):
            raise TypeError("p-adic arithmetic needs two p-adic elements")
        if self.prime != other.prime:
            raise ValueError(f"prime mismatch: {self.prime} vs {other.prime}")

    def __neg__(self) -> "PAdicElement":
        if self.is_zero:
            return self
        mod = self.prime ** self.precision
        return PAdicElement(self.prime, self.valuation, mod - self.unit, self.precision)

    def __add__(self, other: "PAdicElement") -> "PAdicElement":
        self._check_same_prime(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.prime
        # align at the common absolute precision and the smaller valuation
        abs_prec = min(self.abs_precision, other.abs_precision)
        v = min(self.valuation, other.valuation)
        mod = p ** (abs_prec - v)
        s = (
            self.unit * p ** (self.valuation - v)
            + other.unit * p ** (other.valuation - v)
        ) % mod
        if s == 0:
            raise PrecisionLossError(
                f"sum is 0 mod {p}^{abs_prec}: indistinguishable from zero"
            )
        shift, unit = int_valuation(s, p)
        unit %= p ** (abs_prec - v - shift)
        return PAdicElement(p, v + shift, unit, abs_prec - v - shift)

    def __sub__(self, other: "PAdicElement") -> "PAdicElement":
        return self + (-other)

    def __mul__(self, other: "PAdicElement") -> "PAdicElement":
        self._check_same_prime(other)
        if self.is_zero or other.is_zero:
            return PAdicElement(self.prime, INFINITY, 0, 0)
        k = min(self.precision, other.precision)
        mod = self.prime ** k
        return PAdicElement(
            self.prime,
            self.valuation + other.valuation,
            self.unit * other.unit % mod,
            k,
        )

    def __truediv__(self, other: "PAdicElement") -> "PAdicElement":
        self._check_same_prime(other)
        if other.is_zero:
            raise ZeroDivisionError("division by exact p-adic zero")
        if self.is_zero:
            return self
        k = min(self.precision, other.precision)
        mod = self.prime ** k
        inv = pow(other.unit, -1, mod)
        return PAdicElement(
            self.prime,
            self.valuation - other.valuation,
            self.unit * inv % mod,
            k,
        )

    def __str__(self) -> str:
        return format_padic(self)


def arith(op: str, x: PAdicElement, y: PAdicElement) -> PAdicElement:
    """Dispatch table for the four ring operations."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    raise ValueError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# integer polynomials

class IntPolynomial(Record):
    """Dense integer polynomial, constant coefficient first."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple):
        coeffs = tuple(int(c) for c in coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        _set(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(
            tuple(i * c for i, c in enumerate(self.coefficients))[1:]
        )


# ---------------------------------------------------------------------------
# Hensel lifting

def hensel_lift(f: IntPolynomial, x0: int, target_precision: int, p: int) -> PAdicElement:
    """Newton-refine an approximate root: from the integer seed x0 with
    v_p(f(x0)) = m > 2*delta, delta = v_p(f'(x0)), produce xi with
    f(xi) = 0 (mod p^N) and xi = x0 (mod p^(m-delta)).  That root is
    unique mod p^N, so f = 0, of which every x is a root, is refused, as
    is a nonzero constant f, which has none.  When f(x0) = 0 already,
    xi = x0 with N digits of its unit.  The lift runs on plain ints;
    rational.unit_sqrt runs the same schedule for T^2 - u, whose delta and
    m it knows.

    Schedule: Newton iteration with the precisions fixed from the top down
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 9; Brent &
    Zimmermann, Modern Computer Arithmetic, 4.2).  A step from a lower
    bound m on v_p(f(x)) reaches 2(m - delta), so the least m that reaches
    a target t is ceil(t/2) + delta.  The targets are t = N + delta, then
    t <- ceil(t/2) + delta while t exceeds v_p(f(x0)), which is measured
    once; the lift runs them upward from the last t <= v_p(f(x0)), and
    N + delta fixes the root mod p^N.  Each precision is the least that
    the next one allows, so only the last step works at full size, and
    the steps are as few as doubling from v_p(f(x0)) takes.

    The step from m toward t is x <- x - (f(x)/p^delta) * s mod p^t, with
    w = f'(x)/p^delta a unit and s = 1/w (mod p^(m-2*delta)).  The error
    in s leaves f(x)(1 - w*s) in f(x), of valuation >= m + (m - 2*delta)
    = 2(m - delta) >= t: no worse than the Taylor remainder h^2,
    v_p(h) >= m - delta.  w is inverted once, at x0; as x moves by
    multiples of p^(m-delta), w moves by multiples of p^(m-2*delta), so
    the old s is still good to m - 2*delta digits, and one Newton step
    s <- s(2 - w*s) mod p^(t-2*delta) doubles that to 2(m - 2*delta) >=
    t - 2*delta: the digits that the step from t needs.  A step's moduli
    are that one power p^(t-2*delta) and it times p^(2*delta); the last
    step only reduces its x mod p^N."""
    p = Prime(p)
    x = int(x0)
    N = target_precision
    if N < 1:
        raise ValueError("target precision must be >= 1")
    if not f.coefficients:
        raise ValueError("f = 0: every x is a root, so none is simple")
    if f.degree == 0:
        raise ValueError("f is a nonzero constant: it has no root")
    _check_hensel_work(f, max(x.bit_length(), N * (p - 1).bit_length()))

    fx = f(x)
    if fx == 0:
        # exact integer root: no refinement needed, and N digits of its unit
        if x == 0:
            return PAdicElement.zero(p)
        v, u = int_valuation(x, p)
        return PAdicElement(p, v, u % p ** N, N)
    fprime = f.derivative()
    dx = fprime(x)
    if dx == 0:
        raise ValueError("f'(x0) = 0: root is not simple")
    delta = int_valuation(dx, p)[0]
    m = int_valuation(fx, p)[0]
    if m <= 2 * delta:
        raise ValueError(
            f"Hensel hypothesis fails: v_p(f(x0)) = {m} <= 2*{delta} = 2*v_p(f'(x0))"
        )
    _check_hensel_work(f, (N + delta) * (p - 1).bit_length())
    targets = []
    t = N + delta
    while t > m:
        targets.append(t)
        t = (t + 1) // 2 + delta
    if targets:
        pd, pd2 = p ** delta, p ** (2 * delta)
        s = pow(dx // pd, -1, p ** (t - 2 * delta))
        for t in reversed(targets[1:]):
            mod = p ** (t - 2 * delta)
            x = (x - fx // pd * s) % (mod * pd2)
            s = s * (2 - fprime(x) // pd * s) % mod
            fx = f(x)
        x = x - fx // pd * s
    return _element_from_int(x, p, N)


def _check_hensel_work(f: IntPolynomial, bits: int) -> None:
    if f.degree * (bits + 64) > HENSEL_WORK_BOUND:
        raise ValueError(f"deg(f) = {f.degree} at {bits} bits exceeds the Hensel workload bound")


def _element_from_int(x: int, p: int, abs_precision: int) -> PAdicElement:
    """The element represented by the integer x known mod p^abs_precision."""
    x %= p ** abs_precision
    if x == 0:
        raise PrecisionLossError(
            f"value is 0 mod {p}^{abs_precision}: indistinguishable from zero"
        )
    v, u = int_valuation(x, p)
    return PAdicElement(p, v, u % p ** (abs_precision - v), abs_precision - v)


# ---------------------------------------------------------------------------
# square roots

def padic_sqrt(x: PAdicElement) -> PAdicElement | None:
    """The square root of x in Q_p if one exists: requires even valuation
    and a square unit (lambda_p(u) = +1 for odd p, u = 1 mod 8 for p = 2).
    The root's unit is unit_sqrt's, so it keeps one digit less at p = 2."""
    if x.is_zero:
        raise ValueError("square root of exact zero is trivially zero; pass a unit")
    p, v, k = x.prime, x.valuation, x.precision
    if v % 2:
        return None
    if p == 2 and k < 3:
        raise ValueError("need at least 3 unit digits to decide squareness at 2")
    root = unit_sqrt(x.unit, p, k)
    return None if root is None else PAdicElement(p, v // 2, root, k - 1 if p == 2 else k)


# ---------------------------------------------------------------------------
# Teichmuller representatives and the unit-group splitting

def teichmuller(a: int, p: int, precision: int = DEFAULT_PRECISION) -> PAdicElement:
    """omega(a): the unique root of T^p - T congruent to a mod p, as the
    limit of the p-power iteration a, a^p, a^(p^2), ..."""
    if not 0 <= a < p:
        raise ValueError(f"a must be a residue in [0, {p})")
    p = Prime(p)
    if a == 0:
        return PAdicElement(p, INFINITY, 0, 0)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return PAdicElement(p, 0, _teichmuller_unit(a, p, precision), precision)


def _teichmuller_unit(a: int, p: int, precision: int) -> int:
    """The unit of teichmuller(a, p, precision) for a residue a in [1, p):
    the p-power iteration, shared by teichmuller, unit_decompose and the
    Teichmuller digits."""
    mod = p ** precision
    x = a
    while True:
        y = pow(x, p, mod)
        if y == x:
            return x
        x = y


def unit_decompose(x: PAdicElement) -> tuple[PAdicElement, PAdicElement]:
    """Split a unit as x = tau * u1 with tau the Teichmuller representative
    of x mod p and u1 = 1 (mod p)."""
    if x.is_zero or x.valuation != 0:
        raise ValueError("x must be a p-adic unit")
    p, k = x.prime, x.precision
    tau = PAdicElement(p, 0, _teichmuller_unit(x.unit % p, p, k), k)
    u1 = x / tau
    return tau, u1


# ---------------------------------------------------------------------------
# factorial valuation

def vp_factorial(n: int, p: int) -> tuple[int, int]:
    """(v_p(n!), t_n) where v_p(n!) = (n - s_n)/(p-1) for the base-p digit
    sum s_n, and t_n = product of the factorials of the digits mod p, so
    that n! = (-p)^{v_p(n!)} t_n (mod p^{v_p(n!)+1}).  A digit d > (p-1)/2
    is read by Wilson's theorem, d! = (-1)^(d+1) / (p-1-d)! (mod p), so
    one pass of at most VP_FACTORIAL_BOUND products mod p serves them all."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = Prime(p)
    digits = []
    m = n
    while m:
        digits.append(m % p)
        m //= p
    val = (n - sum(digits)) // (p - 1)
    needed = sorted({min(d, p - 1 - d) for d in digits})
    if needed and needed[-1] > VP_FACTORIAL_BOUND:
        raise ValueError(f"a base-{p} digit of n needs {needed[-1]} products mod p, past "
                         f"the factorial workload bound {VP_FACTORIAL_BOUND}")
    fact, f, done = {}, 1, 0
    for m in needed:
        for j in range(done + 1, m + 1):
            f = f * j % p
        fact[m], done = f, m
    t = 1
    for d in digits:
        if 2 * d < p:
            t = t * fact[d] % p
        else:
            t = (-1) ** (d + 1) * t * pow(fact[p - 1 - d], -1, p) % p
    return val, t


# ---------------------------------------------------------------------------
# the 2-adic binomial series for sqrt(1+8x)

def sqrt_series_1p8x(x: int, precision: int = DEFAULT_PRECISION) -> PAdicElement:
    """y = sum_{n>=1} c_n (4x)^n / n! with c_n = prod_{0<=i<n} (1-2i): the
    binomial series for sqrt(1+8x) - 1, summed 2-adically.  As v_2(n!) =
    n - s_2(n), the n-th term is c_n x^n 2^(n + s_2(n)) over the odd part
    of n!, so digits below 2^k are settled by n < k, the sum runs on ints
    mod 2^k, and x is read only mod 2^k."""
    if precision < 3:
        raise ValueError("precision must be >= 3")
    k = precision
    mod = 2 ** k
    x %= mod
    # c_n, x^n and the inverse of the odd part of n!, mod 2^k
    y, c, power, inv = 0, 1, 1, 1
    for n in range(1, k):
        power = power * x % mod
        inv = inv * pow(n >> (n & -n).bit_length() - 1, -1, mod) % mod
        y = (y + (c * power << n + bin(n).count("1")) * inv) % mod
        c = c * (1 - 2 * n) % mod
    assert (1 + y) ** 2 % mod == (1 + 8 * x) % mod
    assert y % 4 == 0
    if y == 0:
        return PAdicElement.zero(2)
    return _element_from_int(y, 2, k)


# ---------------------------------------------------------------------------
# digit expansions

def digits(x: PAdicElement, scheme: str = "standard") -> list[int]:
    """Base-p digits of an element of Z_p, one per position 0..v+k-1.

    standard: digits in [0, p-1] with x = sum d_i p^i.
    teichmuller: digits t_i with t_i^p = t_i (mod p^K), K the digit count,
    and x = sum t_i p^i (mod p^K).
    """
    if x.is_zero:
        return []
    if x.valuation < 0:
        raise ValueError("digit expansion needs valuation >= 0")
    if scheme not in ("standard", "teichmuller"):
        raise ValueError(f"unknown digit scheme {scheme!r}")
    K = x.valuation + x.precision
    p = x.prime
    rem = x.integer_rep() % p ** K
    lifts = {0: 0}  # a Teichmuller digit depends only on its residue mod p
    out = []
    for _ in range(K):
        d = rem % p
        if scheme == "teichmuller":
            if d not in lifts:
                lifts[d] = _teichmuller_unit(d, p, K)
            d = lifts[d]
        out.append(d)
        rem = (rem - d) // p
    return out


# ---------------------------------------------------------------------------
# the p-adic fractional part

def p_frac_part(x: Rat | PAdicElement, p: int | None = None) -> Fraction:
    """<x>_p: the negative-power tail of the p-adic expansion, a rational
    in [0, 1) with denominator a power of p and x - <x>_p integral at p."""
    if isinstance(x, PAdicElement):
        if p not in (None, x.prime):
            raise ValueError(f"element lives at {x.prime}, not {p}")
        p = x.prime
        if x.is_zero or x.valuation >= 0:
            return Fraction(0)
        if x.abs_precision < 0:
            raise PrecisionLossError("tail digits below precision")
        q = p ** (-x.valuation)
        return Fraction(x.unit % q, q)
    p = Prime(p)
    v = vp(x, p)
    if v >= 0:  # INFINITY for x = 0
        return Fraction(0)
    q = p ** (-v)
    return Fraction(local_unit(x, p, q)[1], q)


# ---------------------------------------------------------------------------
# square classes of Q_p^x / (Q_p^x)^2

def square_class(x: PAdicElement | Rat, p: int | None = None) -> int:
    """A canonical representative of x modulo squares: for odd p one of
    {1, u, p, u*p} with u the least positive non-residue; for p = 2 one of
    {1, 5, -1, -5, 2, 10, -2, -10}."""
    if isinstance(x, PAdicElement):
        if x.is_zero:
            raise ValueError("x must be nonzero")
        if x.prime == 2 and x.precision < 3:
            raise ValueError("need 3 unit digits to classify at 2")
        return _class_rep(x.prime, x.valuation, x.unit)
    if p is None:
        raise ValueError("p required for rational input")
    p = Prime(p)
    return _class_rep(p, *local_unit(x, p, 8 if p == 2 else p))


def _class_rep(p: int, v: int, unit: int) -> int:
    """The square-class representative of p^v u from the unit's residue
    mod 8 (p = 2) or mod p, by Euler's criterion at odd p."""
    if p == 2:
        rep = {1: 1, 5: 5, 7: -1, 3: -5}[unit % 8]
    elif pow(unit, (p - 1) // 2, p) == 1:
        rep = 1
    else:
        rep = smallest_nonresidue(p)
    if v % 2:
        rep *= p
    return rep


# ---------------------------------------------------------------------------
# textual form

_PADIC_RE = re.compile(
    r"^(?P<p>\d+)\^(?P<v>-?\d+)\s*\*\s*\((?P<digits>[^)]*)\)\s*"
    r"\+\s*O\((?P<po>\d+)\^(?P<e>-?\d+)\)$"
)
_TERM_RE = re.compile(r"^(?P<d>\d+)(?:\*(?P<p>\d+)(?:\^(?P<i>\d+))?)?$")


def format_padic(x: PAdicElement) -> str:
    """`p^v * (d0 + d1*p + d2*p^2 + ...) + O(p^(v+k))`, zero digits omitted."""
    if x.is_zero:
        return "0"
    p = x.prime
    terms = []
    u = x.unit
    for i in range(x.precision):
        u, d = divmod(u, p)
        if d == 0:
            continue
        if i == 0:
            terms.append(str(d))
        elif i == 1:
            terms.append(f"{d}*{p}")
        else:
            terms.append(f"{d}*{p}^{i}")
    return f"{p}^{x.valuation} * ({' + '.join(terms)}) + O({p}^{x.abs_precision})"


def parse_padic(s: str) -> PAdicElement:
    """Inverse of format_padic, bit-exact.  The O-term, and the valuation
    when it is negative, must keep within PADIC_BITS_BOUND."""
    s = s.strip()
    if s == "0":
        raise ValueError("textual zero carries no prime; build it directly")
    m = _PADIC_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse p-adic literal {s!r}")
    p, v, e = int(m["p"]), int(m["v"]), int(m["e"])
    if int(m["po"]) != p:
        raise ValueError("prime mismatch between unit part and O-term")
    k = e - v
    if k < 1:
        raise ValueError("O-term must exceed the valuation")
    check_padic_size(p, e - min(v, 0))
    unit = 0
    for part in m["digits"].split("+"):
        part = part.strip()
        tm = _TERM_RE.match(part)
        if not tm:
            raise ValueError(f"bad digit term {part!r}")
        d = int(tm["d"])
        if tm["p"] is None:
            i = 0
        else:
            if int(tm["p"]) != p:
                raise ValueError("prime mismatch in digit term")
            i = 1 if tm["i"] is None else int(tm["i"])
            if i >= k:
                raise ValueError(f"digit term {part!r} lies beyond O({p}^{e})")
        if not 0 <= d < p:
            raise ValueError(f"digit {d} out of range for base {p}")
        unit += d * p ** i
    return PAdicElement(p, v, unit, k)
