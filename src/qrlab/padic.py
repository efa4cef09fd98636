"""Finite-precision model of Q_p: elements in the normal form p^v * u with a
unit u tracked modulo p^k, exact-aware arithmetic, Hensel lifting, square
roots, Teichmuller representatives, digit expansions, and the factorial
valuation and 2-adic binomial-series exercises.

Precision is relative: an element stores k unit digits, so its value is
known modulo p^(v+k).  Exact zero is a distinguished value, never a
"very small" element.  An element holds its prime as a `Prime`, so the
elements computed from it certify nothing again.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction

from qrlab.rational import (
    DEFAULT_PRECISION,
    INFINITY,
    PrecisionLossError,
    Prime,
    Rat,
    Record,
    _set,
    int_valuation,
    local_unit,
    sqrt_mod_prime,
)
from qrlab.symbols import smallest_nonresidue

#: Largest bit size of p^k for p-adic input from text or the command line,
#: k the --prec digits or the exponent of a textual O(p^k): p^k <= 2^1024.
#: Every p-adic command takes well under 1 s there.
PADIC_BITS_BOUND = 1024


class PAdicElement(Record):
    """p^valuation * unit, with unit a residue mod p^precision prime to p.

    Exact zero is encoded as valuation = INFINITY with unit 0, precision 0.
    """

    __slots__ = ("prime", "valuation", "unit", "precision")

    def __init__(self, prime: int, valuation, unit: int, precision: int):
        _set(self, "prime", prime)
        _set(self, "valuation", valuation)  # int, or INFINITY for exact zero
        _set(self, "unit", unit)
        _set(self, "precision", precision)
        self.__post_init__()

    def __post_init__(self):
        p = Prime(self.prime)
        _set(self, "prime", p)
        if self.valuation is INFINITY:
            if self.unit != 0 or self.precision != 0:
                raise ValueError("exact zero must have unit 0, precision 0")
            return
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if not 1 <= self.unit < p ** self.precision or self.unit % p == 0:
            raise ValueError(f"unit {self.unit} invalid mod {p}^{self.precision}")

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

    def unit_digit(self, i: int = 0) -> int:
        """The i-th base-p digit of the unit part."""
        if self.is_zero:
            raise ValueError("exact zero has no unit digits")
        if not 0 <= i < self.precision:
            raise ValueError(f"digit {i} beyond precision {self.precision}")
        return self.unit // self.prime ** i % self.prime

    def integer_rep(self) -> int:
        """The canonical representative p^v * unit (valuation >= 0 only)."""
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise ValueError("element is not p-integral")
        return self.prime ** self.valuation * self.unit

    def rational_rep(self) -> Fraction:
        """p^v * unit as an exact rational (any valuation)."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.prime) ** self.valuation * self.unit

    def truncate(self, precision: int) -> "PAdicElement":
        """Forget digits: reduce the relative precision to at most k."""
        if self.is_zero:
            return self
        k = min(self.precision, precision)
        if k < 1:
            raise ValueError("cannot truncate below one digit")
        return PAdicElement(self.prime, self.valuation, self.unit % self.prime ** k, k)

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

    def __pow__(self, n: int) -> "PAdicElement":
        if n < 0:
            base = PAdicElement(self.prime, 0, 1, self.precision) / self
            return base ** (-n)
        if self.is_zero:
            return PAdicElement(self.prime, 0, 1, 1) if n == 0 else self
        k = self.precision
        # pow is square-and-multiply on the unit; the valuation just scales
        return PAdicElement(self.prime, n * self.valuation, pow(self.unit, n, self.prime ** k), k)

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


def check_padic_size(p: int, k: int) -> None:
    """Refuse p^k above 2^PADIC_BITS_BOUND before anything computes it; a p
    below 2 is left for the primality check to refuse."""
    if p >= 2 and k > 0 and k * math.log2(p) > PADIC_BITS_BOUND:
        raise ValueError(
            f"{p}^{k} exceeds the p-adic workload bound of 2^{PADIC_BITS_BOUND}"
        )


# ---------------------------------------------------------------------------
# integer polynomials

class IntPolynomial(Record):
    """Dense integer polynomial, constant coefficient first."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple):
        _set(self, "coefficients", coefficients)
        self.__post_init__()

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
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

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        terms = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*T")
            else:
                terms.append(f"{c}*T^{i}")
        return " + ".join(terms).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Hensel lifting

def hensel_lift(
    f: IntPolynomial,
    x0: PAdicElement | int,
    target_precision: int,
    p: int | None = None,
) -> PAdicElement:
    """Newton-refine an approximate root: from v_p(f(x0)) = m > 2*delta with
    delta = v_p(f'(x0)), produce xi with f(xi) = 0 (mod p^N) and
    xi = x0 (mod p^(m-delta)).  That root is unique mod p^N.

    Schedule: Newton iteration with precision doubling (von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 9).  v_p(f(x)) is measured once,
    at x0; after that m is a lower bound on it, and each step sets
    m <- min(2(m - delta), N + delta) and works modulo p^m, until
    m = N + delta fixes the root mod p^(m-delta) = p^N.

    A step is x <- x - (f(x)/p^delta) * s with w = f'(x)/p^delta a unit and
    s = 1/w (mod p^(m-2*delta)).  The error in s leaves
    f(x)(1 - w*s) in f(x), of valuation >= m + (m - 2*delta) = 2(m - delta):
    no worse than the Taylor remainder h^2, v_p(h) = m - delta.  So s
    needs only m - 2*delta digits.  w is inverted once, at x0; as x moves by
    multiples of p^(m-delta), w moves by multiples of p^(m-2*delta), so the
    old s is still good to m - 2*delta digits, and one Newton step
    s <- s(2 - w*s) doubles that to the next step's m - 2*delta."""
    if isinstance(x0, PAdicElement):
        p = x0.prime
        if not x0.is_zero and x0.valuation < 0:
            raise ValueError("x0 must lie in Z_p")
        x = 0 if x0.is_zero else x0.integer_rep()
    else:
        if p is None:
            raise ValueError("p required when x0 is a plain integer")
        p = Prime(p)
        x = int(x0)
    N = target_precision
    if N < 1:
        raise ValueError("target precision must be >= 1")

    fprime = f.derivative()
    fx = f(x)
    if fx == 0:
        # exact integer root: no refinement needed, and N digits of its unit
        if x == 0:
            return PAdicElement.zero(p)
        v, u = int_valuation(x, p)
        return PAdicElement(p, v, u % p ** N, N)
    dx = fprime(x)
    if dx == 0:
        raise ValueError("f'(x0) = 0: root is not simple")
    delta = int_valuation(dx, p)[0]
    m = int_valuation(fx, p)[0]
    if m <= 2 * delta:
        raise ValueError(
            f"Hensel hypothesis fails: v_p(f(x0)) = {m} <= 2*{delta} = 2*v_p(f'(x0))"
        )
    if m < N + delta:
        pd = p ** delta
        s = pow(dx // pd, -1, p ** (m - 2 * delta))
        while True:
            m = min(2 * (m - delta), N + delta)
            x = (x - fx // pd * s) % p ** m
            if m == N + delta:
                break
            mod = p ** (m - 2 * delta)
            s = s * (2 - fprime(x) // pd * s) % mod
            fx = f(x)
    return _element_from_int(x % p ** N, p, N)


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


def unit_sqrt(u: int, p: int, k: int) -> int | None:
    """The normalized square root of the unit residue u mod p^k, or None
    when u is not a square in Z_p; p is a Prime, and k >= 3 at p = 2.

    For odd p the root is taken mod p^k with its first digit in
    [1, (p-1)/2].  At p = 2 the roots mod 2^k come in pairs +-r and
    r + 2^(k-1), so one digit is lost: the root is taken mod 2^(k-1) and
    is = 1 (mod 4).
    """
    if p == 2:
        if u % 8 != 1:
            return None
        root = hensel_lift(IntPolynomial((-u, 0, 1)), 1, k, p).integer_rep() % 2 ** (k - 1)
        return 2 ** (k - 1) - root if root % 4 == 3 else root
    r0 = sqrt_mod_prime(u, p)
    if r0 is None:
        return None
    root = hensel_lift(IntPolynomial((-u, 0, 1)), r0, k, p).integer_rep()
    return p ** k - root if root % p > (p - 1) // 2 else root


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
    that n! = (-p)^{v_p(n!)} t_n (mod p^{v_p(n!)+1})."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = Prime(p)
    digits = []
    m = n
    while m:
        digits.append(m % p)
        m //= p
    val = (n - sum(digits)) // (p - 1)
    t = 1
    for d in digits:
        t = t * math.factorial(d) % p
    return val, t % p


# ---------------------------------------------------------------------------
# the 2-adic binomial series for sqrt(1+8x)

def sqrt_series_1p8x(x: int, precision: int = DEFAULT_PRECISION) -> PAdicElement:
    """y = sum_{n>=1} c_n (4x)^n / n! with c_n = prod_{0<=i<n} (1-2i): the
    binomial series for sqrt(1+8x) - 1, summed 2-adically.  The n-th term
    has 2-valuation n + s_2(n), so digits below 2^k are settled by n < k."""
    if precision < 3:
        raise ValueError("precision must be >= 3")
    k = precision
    total = Fraction(0)
    c = 1  # c_n, starting at c_1 = 1
    for n in range(1, k):
        total += Fraction(c * (4 * x) ** n, math.factorial(n))
        c *= 1 - 2 * n
    mod = 2 ** k
    assert total.denominator % 2 == 1
    y = total.numerator * pow(total.denominator, -1, mod) % mod
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


def from_digits(ds: Sequence[int], p: int, scheme: str = "standard") -> PAdicElement:
    """Rebuild the element x = sum d_i p^i known mod p^len(ds)."""
    if scheme not in ("standard", "teichmuller"):
        raise ValueError(f"unknown digit scheme {scheme!r}")
    p = Prime(p)
    if not ds:
        return PAdicElement(p, INFINITY, 0, 0)
    K = len(ds)
    val = sum(d * p ** i for i, d in enumerate(ds)) % p ** K
    if val == 0:
        return PAdicElement(p, INFINITY, 0, 0)
    return _element_from_int(val, p, K)


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
