"""Command-line front end: one subcommand per library operation, plus the
batch scan commands used by the acceptance checks.

Conventions: rationals parse as "n" or "n/d"; places as "inf" or a prime;
p-adic elements as a rational (read at --prec digits) or in the textual
form "p^v * (d0 + d1*p + ...) + O(p^k)".  Signs print as "+1"/"-1",
booleans as "true"/"false"; every command takes --json.  Exit codes:
0 success, 2 bad input, 1 internal failure or a failed scan, 141 when the
reader of stdout has closed it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

# A call loads only the modules its command needs: each handler imports them
# itself and calls through the module (symbols.legendre), so a patched
# binding is seen.  rational, which every command needs, is loaded here.
from qrlab import rational
from qrlab.rational import DEFAULT_PRECISION, INF_PLACE, TWO_PLACE, Place, PrecisionLossError

# allow negative rationals ("-1/3") and coefficient lists ("-17,0,1") as
# positional arguments; stock argparse only recognizes plain "-1"
_NEGATIVE_VALUE = re.compile(r"^-\d+([/,]\d+)*$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = _NEGATIVE_VALUE


# ---------------------------------------------------------------------------
# parsing and printing helpers

def _rat(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational {text!r} (want n or n/d)")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"malformed integer {text!r}")


def _element(text: str, p: int | None, prec: int):
    """A p-adic element from either the textual O(...) form or a rational."""
    from qrlab import padic
    if "O(" in text:
        x = padic.parse_padic(text)
        if p is not None and x.prime != p:
            raise ValueError(f"element lives at {x.prime}, but p = {p} was given")
        return x
    if p is None:
        raise ValueError("pass -p for rational input")
    padic.check_padic_size(p, prec)
    return padic.PAdicElement.from_rational(_rat(text), p, prec)


def _sign(s: int) -> str:
    return f"{s:+d}"


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _ratstr(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _character(text: str, place: Place | None):
    """Parse 'nu_2*lambda_4', 'lambda_7', 'sign', '1', ... into a local
    character.  The tokens multiply: a repeated lambda_P cancels, as in
    QuadraticCharacter.times, and nu_P counts by parity; the place is still
    read from every token, cancelled or not."""
    from qrlab import analytic, symbols
    text = text.strip()
    if text == "sign" or (text == "1" and place is not None and place.is_infinite):
        if place is not None and not place.is_infinite:
            raise ValueError("the sign character lives at the real place")
        return analytic.LocalCharacter.at_infinity(1 if text == "sign" else 0)
    nu = 0
    factors = set()
    inferred: set[int] = set()
    for token in text.split("*"):
        token = token.strip()
        if token == "1":
            continue
        m = re.fullmatch(r"(nu|lambda)_(\d+)", token)
        if not m:
            raise ValueError(f"bad character token {token!r}")
        n = int(m.group(2))
        if m.group(1) == "nu":
            nu ^= 1
            inferred.add(n)
        else:
            factors ^= {n}
            inferred.add(2 if n in (4, 8) else n)
    if len(inferred) > 1:
        raise ValueError(f"character mixes places {sorted(inferred)}")
    if place is None:
        if not inferred:
            raise ValueError("trivial character: pass the place explicitly")
        place = Place.finite(inferred.pop())
    elif inferred and not place.is_infinite and place.prime not in inferred:
        raise ValueError(f"character is not local at {place}")
    elif place.is_infinite and inferred:
        raise ValueError("finite-place character at the real place")
    quad = symbols.QuadraticCharacter(frozenset(factors), place.prime if nu else None)
    return analytic.LocalCharacter(place, quad)


# ---------------------------------------------------------------------------
# handlers: each returns (exit code, text lines, json payload)

def _h_factorize(a):
    f = rational.factorize(_int(a.n))
    lines = [f"sign: {f.sign}"] + [f"{p}^{e}" for p, e in f.factors]
    return 0, lines, {"sign": f.sign, "factors": [[p, e] for p, e in f.factors]}


def _h_vp(a):
    split = rational.vp_split(_rat(a.x), _int(a.p))
    if not isinstance(split, tuple):
        return 0, ["valuation: infinity"], {"valuation": "infinity", "unit": None}
    r, u = split
    return 0, [f"valuation: {r}", f"unit: {_ratstr(u)}"], {"valuation": r, "unit": _ratstr(u)}


def _h_absval(a):
    v = rational.abs_place(_rat(a.x), Place.parse(a.v))
    return 0, [_ratstr(v)], {"absval": _ratstr(v)}


def _h_norm_product(a):
    ok = rational.norm_product_check(_rat(a.x))
    return 0, [_bool(ok)], {"holds": ok}


def _h_sqrtmod_prime(a):
    r = rational.sqrt_mod_prime(_int(a.a), _int(a.p))
    return 0, ["none" if r is None else str(r)], {"root": r}


def _h_sqrtmod_squarefree(a):
    r = rational.sqrt_mod_squarefree(_int(a.a), _int(a.b))
    return 0, ["none" if r is None else str(r)], {"root": r}


def _h_legendre(a):
    from qrlab import symbols
    s = symbols.legendre(_rat(a.a), _int(a.p))
    return 0, [_sign(s)], {"sign": s}


def _h_lambda4(a):
    from qrlab import symbols
    s = symbols.lambda4(_rat(a.a))
    return 0, [_sign(s)], {"sign": s}


def _h_lambda8(a):
    from qrlab import symbols
    s = symbols.lambda8(_rat(a.a))
    return 0, [_sign(s)], {"sign": s}


def _h_gauss_lemma(a):
    from qrlab import symbols
    s = symbols.gauss_lemma_sign(_int(a.a), _int(a.p))
    return 0, [_sign(s)], {"sign": s}


def _h_lattice(a):
    from qrlab import symbols
    m, n = symbols.lattice_counts(_int(a.p), _int(a.q))
    return 0, [f"M: {m}", f"N: {n}"], {"M": m, "N": n}


def _h_reciprocity(a):
    from qrlab import symbols
    ok = symbols.reciprocity_check(_int(a.p), _int(a.q))
    return 0, [_bool(ok)], {"holds": ok}


def _h_psi(a):
    from qrlab import symbols
    s = symbols.psi(_int(a.a), _rat(a.n))
    return 0, [_sign(s)], {"sign": s}


def _h_chi(a):
    from qrlab import symbols
    s = symbols.kronecker_chi(_int(a.a), _int(a.x))
    return 0, [_sign(s)], {"sign": s}


def _h_char_basis(a):
    from qrlab import symbols
    chars = symbols.quadratic_char_basis(_int(a.m))
    labels = [c.label() for c in chars]
    return 0, labels or ["(none)"], {"m": _int(a.m), "characters": labels}


def _h_group_product(a):
    from qrlab import symbols
    s = symbols.group_product_sign(_int(a.m))
    return 0, [_sign(s)], {"sign": s}


def _h_binomial_prime(a):
    from qrlab import symbols
    ok = symbols.binomial_primality(_int(a.n))
    return 0, [_bool(ok)], {"prime": ok}


def _h_arith(a):
    from qrlab import padic
    p = a.p
    x = _element(a.x, p, a.prec)
    y = _element(a.y, x.prime, a.prec)
    z = padic.arith(a.op, x, y)
    return 0, [padic.format_padic(z)], {"result": padic.format_padic(z)}


def _h_hensel(a):
    from qrlab import padic
    coeffs = tuple(_int(c) for c in a.f.split(","))
    f = padic.IntPolynomial(coeffs)
    padic.check_padic_size(a.p, a.prec)
    root = padic.hensel_lift(f, _int(a.x0), a.prec, p=a.p)
    return 0, [padic.format_padic(root)], {"root": padic.format_padic(root)}


def _h_sqrt(a):
    from qrlab import padic
    x = _element(a.x, a.p, a.prec)
    r = padic.padic_sqrt(x)
    if r is None:
        return 0, ["none"], {"root": None}
    return 0, [padic.format_padic(r)], {"root": padic.format_padic(r)}


def _h_teichmuller(a):
    from qrlab import padic
    p = _int(a.p)
    padic.check_padic_size(p, a.prec)
    t = padic.teichmuller(_int(a.a), p, a.prec)
    return 0, [padic.format_padic(t)], {"representative": padic.format_padic(t)}


def _h_unit_decompose(a):
    from qrlab import padic
    x = _element(a.x, a.p, a.prec)
    tau, u1 = padic.unit_decompose(x)
    return (
        0,
        [f"teichmuller: {padic.format_padic(tau)}", f"one-unit: {padic.format_padic(u1)}"],
        {"teichmuller": padic.format_padic(tau), "one_unit": padic.format_padic(u1)},
    )


def _h_vp_factorial(a):
    from qrlab import padic
    val, unit = padic.vp_factorial(_int(a.n), _int(a.p))
    return 0, [f"valuation: {val}", f"unit: {unit}"], {"valuation": val, "unit": unit}


def _h_sqrt_series(a):
    from qrlab import padic
    padic.check_padic_size(2, a.prec)
    y = padic.sqrt_series_1p8x(_int(a.x), a.prec)
    return 0, [padic.format_padic(y)], {"root": padic.format_padic(y)}


def _h_digits(a):
    from qrlab import padic
    x = _element(a.x, a.p, a.prec)
    ds = padic.digits(x, a.scheme)
    val = "infinity" if x.is_zero else x.valuation
    return 0, [" ".join(str(d) for d in ds)], {"valuation": val, "digits": ds, "scheme": a.scheme}


def _h_squareclass(a):
    from qrlab import padic
    if "O(" in a.x:
        c = padic.square_class(padic.parse_padic(a.x))
    else:
        if a.p is None:
            raise ValueError("pass -p for rational input")
        c = padic.square_class(_rat(a.x), a.p)
    return 0, [str(c)], {"class": c}


def _h_hilbert(a):
    from qrlab import hilbert
    x, y = _rat(a.a), _rat(a.b)
    if a.all:
        vec = hilbert.hilbert_vector(x, y)
        body = ", ".join(f"{v}: -1" for v in vec.support)
        return 0, ["{" + body + "}"], vec.to_json()
    if a.v is None:
        raise ValueError("pass a place or --all")
    s = hilbert.hilbert_symbol(x, y, Place.parse(a.v))
    return 0, [_sign(s)], {"sign": s}


def _h_witness(a):
    from qrlab import hilbert, padic
    place = Place.parse(a.v)
    if not place.is_infinite:
        padic.check_padic_size(place.prime, a.prec)
    w = hilbert.local_solve_witness(_rat(a.a), _rat(a.b), place, precision=a.prec)
    if w is None:
        return 0, ["none"], {"witness": None}
    lines = [f"x: {_ratstr(w.x)}", f"y: {_ratstr(w.y)}"]
    if w.approximate:
        lines.append("approximate: true")
    payload = {
        "place": w.place.json_value(),
        "x": _ratstr(w.x),
        "y": _ratstr(w.y),
        "precision": w.precision,
        "approximate": w.approximate,
    }
    return 0, lines, {"witness": payload}


def _h_is_norm(a):
    from qrlab import hilbert
    ok = hilbert.is_local_norm(_rat(a.a), _rat(a.b), Place.parse(a.v))
    return 0, [_bool(ok)], {"is_norm": ok}


def _h_correspondence(a):
    from qrlab import hilbert
    table = hilbert.ext_char_correspondence(_int(a.p))
    lines = [f"{b}: {chi.label()}" for b, chi in table]
    payload = {"p": _int(a.p), "table": [{"b": b, "character": chi.label()} for b, chi in table]}
    return 0, lines, payload


def _h_solve(a):
    from qrlab import conic
    cert = conic.solve_conic(_rat(a.a), _rat(a.b))
    if cert.outcome == "solution":
        lines = [f"solution: x = {_ratstr(cert.x)}, y = {_ratstr(cert.y)}"]
    else:
        lines = ["obstruction: " + " ".join(str(v) for v in cert.places)]
    return 0, lines, cert.to_json()


def _h_descent_step(a):
    from qrlab import conic
    frame = conic.DescentFrame(_int(a.a), _int(a.b), _int(a.c), _int(a.d))
    triple = conic.descent_step(frame, (_rat(a.x), _rat(a.y), _rat(a.s)), a.direction)
    return (
        0,
        [", ".join(_ratstr(t) for t in triple)],
        {"triple": [_ratstr(t) for t in triple]},
    )


def _h_ternary(a):
    from qrlab import conic
    va, vb, vc = _int(a.a), _int(a.b), _int(a.c)
    sol = conic.legendre_ternary(va, vb, vc)
    if sol is None:
        reason = "inf" if (va > 0) == (vb > 0) == (vc > 0) else "residue"
        detail = "definite at the real place" if reason == "inf" else "residue condition fails"
        return 0, [f"none ({detail})"], {"solution": None, "reason": reason}
    x, y, z = sol
    return 0, [f"x = {x}, y = {y}, z = {z}"], {"solution": [x, y, z], "reason": None}


def _h_global_norm(a):
    from qrlab import conic
    cert = conic.global_is_norm(_rat(a.a), _rat(a.b))
    if cert.is_norm:
        lines = [f"true: z = {_ratstr(cert.z)}, y = {_ratstr(cert.y)}"]
    else:
        lines = ["false: obstruction at " + " ".join(str(v) for v in cert.places)]
    payload = {
        "a": _ratstr(cert.a),
        "b": _ratstr(cert.b),
        "is_norm": cert.is_norm,
        "y": None if cert.y is None else _ratstr(cert.y),
        "z": None if cert.z is None else _ratstr(cert.z),
        "places": [v.json_value() for v in cert.places],
    }
    return 0, lines, payload


def _h_bernoulli(a):
    from qrlab import analytic
    b = analytic.bernoulli(_int(a.k))
    return 0, [_ratstr(b)], {"bernoulli": _ratstr(b)}


def _h_von_staudt(a):
    from qrlab import analytic
    w = analytic.von_staudt_W(_int(a.k))
    return 0, [str(w)], {"W": w}


def _h_power_sum(a):
    from qrlab import analytic
    s = analytic.power_sum(_int(a.k), _int(a.n))
    return 0, [str(s)], {"sum": s}


def _h_frac_part(a):
    from qrlab import analytic, padic
    if "O(" in a.x:
        x = padic.parse_padic(a.x)
        t = analytic.p_frac_part(x, a.p)
    else:
        if a.p is None:
            raise ValueError("pass -p for rational input")
        t = analytic.p_frac_part(_rat(a.x), a.p)
    return 0, [_ratstr(t)], {"frac": _ratstr(t)}


def _h_conductor(a):
    from qrlab import analytic
    place = None if a.p is None else Place.finite(a.p)
    chi = _character(a.chi, place)
    n = analytic.conductor_exponent(chi)
    return 0, [str(n)], {"exponent": n}


def _h_root_number(a):
    from qrlab import analytic
    place = None if a.v is None else Place.parse(a.v)
    chi = _character(a.chi, place)
    gamma = None if a.gamma is None else _rat(a.gamma)
    w = analytic.local_root_number(chi, gamma=gamma)
    return 0, [str(w)], {"re": w.re, "im": w.im}


def _h_root_product(a):
    from qrlab import analytic
    w = analytic.root_number_product(_int(a.d))
    return 0, [str(w)], {"re": w.re, "im": w.im}


def _h_bost(a):
    from qrlab import symbols
    r = symbols.bost_demo()
    lines = [
        f"exponent residue: {r.exponent_residue}",
        f"2^{r.exponent_residue} mod 503: {r.two_power_residue}",
        f"p mod 503: {r.p_residue}",
        f"euler argument: {r.euler_argument}",
        f"sign (euler): {_sign(r.sign_euler)}",
        f"sign (factored): {_sign(r.sign_factored)}",
        f"lambda_p(2012): {_sign(r.sign)}",
    ]
    payload = {
        "exponent_residue": r.exponent_residue,
        "two_power_residue": r.two_power_residue,
        "p_residue": r.p_residue,
        "euler_argument": r.euler_argument,
        "sign_euler": r.sign_euler,
        "sign_factored": r.sign_factored,
        "sign": r.sign,
    }
    return 0, lines, payload


# ---------------------------------------------------------------------------
# scans (each in the calling process; failures reported in input order)

#: Largest max_prime of scan-reciprocity: its 28203 pairs take about 0.4 s.
SCAN_PRIME_BOUND = 1500

#: Most pairs of scan-product-formula: about 0.9 s at heights up to 10^6.
SCAN_PAIRS_BOUND = 10**4


def _h_scan_reciprocity(a):
    bound = _int(a.max_prime)
    if bound > SCAN_PRIME_BOUND:
        raise ValueError(f"max_prime = {bound} exceeds the scan workload bound {SCAN_PRIME_BOUND}")
    from qrlab import symbols
    primes = [p for p in range(3, bound) if rational.is_probable_prime(p)]
    pairs = [(p, q) for i, p in enumerate(primes) for q in primes[i + 1 :]]
    failures = [(p, q) for p, q in pairs if not symbols.reciprocity_check(p, q)]
    lines = [f"FAIL: p={p} q={q}" for p, q in failures]
    lines.append(f"{len(primes)} primes, {len(pairs)} pairs, {len(failures)} failures")
    payload = {
        "primes": len(primes),
        "pairs": len(pairs),
        "failures": [[p, q] for p, q in failures],
    }
    return (1 if failures else 0), lines, payload


def _h_scan_product_formula(a):
    count, bound = _int(a.count), _int(a.bound)
    if count < 1 or bound < 1:
        raise ValueError("count and bound must be positive")
    if count > SCAN_PAIRS_BOUND:
        raise ValueError(f"count = {count} exceeds the scan workload bound {SCAN_PAIRS_BOUND}")
    import random

    from qrlab import hilbert

    rng = random.Random(a.seed)

    def draw():
        n = rng.randint(1, bound) * rng.choice((1, -1))
        return Fraction(n, rng.randint(1, bound))

    pairs = [(draw(), draw()) for _ in range(count)]
    failures = []
    for x, y in pairs:
        places = {INF_PLACE, TWO_PLACE}
        for z in (x, y):
            _, exps = rational.rational_factor_exponents(z)
            places.update(Place.finite(p) for p, _ in exps)
        prod = 1
        for v in places:
            prod *= hilbert.hilbert_symbol(x, y, v)
        if prod != 1:
            failures.append((x, y))
    lines = [f"FAIL: a={_ratstr(x)} b={_ratstr(y)}" for x, y in failures]
    lines.append(f"{count} pairs, {len(failures)} failures")
    payload = {
        "pairs": count,
        "failures": [[_ratstr(x), _ratstr(y)] for x, y in failures],
    }
    return (1 if failures else 0), lines, payload


def _h_scan_vonstaudt(a):
    max_k = _int(a.max_k)
    from qrlab import analytic
    if max_k >= 2:
        # one pass fills the cache for every k, and refuses a k past
        # BERNOULLI_BOUND before the list is built
        analytic.bernoulli(max_k - max_k % 2)
    ks = list(range(2, max_k + 1, 2))
    failures = []
    for k in ks:
        try:
            analytic.von_staudt_W(k)
        except ArithmeticError:
            failures.append(k)
    lines = [f"FAIL: k={k}" for k in failures]
    lines.append(f"{len(ks)} values, {len(failures)} failures")
    return (1 if failures else 0), lines, {"values": len(ks), "failures": failures}


# ---------------------------------------------------------------------------
# parser assembly

def _pos(name, help_):
    return name, {"help": help_}


def _opt(flag, help_, **kw):
    return flag, {**kw, "help": help_}


_PREC = _opt("--prec", "working precision in digits", type=int, default=DEFAULT_PRECISION)
_P = _opt("-p", "prime", type=int, default=None)
_WORKERS = _opt("--workers", "ignored: every scan runs in one process", type=int, default=1)
_ELEMENT = _pos("x", "rational or textual element")

#: name -> (handler, help, arguments in order); every command also takes
#: --json.  The order is the order of the top-level help.
_COMMANDS = {
    "factorize": (_h_factorize, "factor a nonzero integer", [_pos("n", "integer")]),
    "vp": (_h_vp, "p-adic valuation and unit part", [_pos("x", "rational"), _pos("p", "prime")]),
    "absval": (_h_absval, "normalized absolute value |x|_v",
               [_pos("x", "rational"), _pos("v", "place: inf or a prime")]),
    "norm-product": (_h_norm_product, "verify prod_v |x|_v = 1", [_pos("x", "rational")]),
    "sqrtmod-prime": (_h_sqrtmod_prime, "square root mod an odd prime",
                      [_pos("a", "integer"), _pos("p", "odd prime")]),
    "sqrtmod-squarefree": (_h_sqrtmod_squarefree, "smallest folded root mod squarefree b",
                           [_pos("a", "integer"), _pos("b", "squarefree modulus")]),
    "legendre": (_h_legendre, "Legendre symbol",
                 [_pos("a", "rational unit at p"), _pos("p", "odd prime")]),
    "lambda4": (_h_lambda4, "sign character mod 4", [_pos("a", "odd rational")]),
    "lambda8": (_h_lambda8, "sign character mod 8", [_pos("a", "odd rational")]),
    "gauss-lemma": (_h_gauss_lemma, "Legendre symbol by counting sign flips",
                    [_pos("a", "integer"), _pos("p", "odd prime")]),
    "lattice": (_h_lattice, "lattice point counts below/above the diagonal",
                [_pos("p", "odd prime"), _pos("q", "odd prime")]),
    "reciprocity": (_h_reciprocity, "check the reciprocity law and supplements",
                    [_pos("p", "odd prime"), _pos("q", "odd prime")]),
    "psi": (_h_psi, "reciprocity-normalized character psi_a(n)",
            [_pos("a", "odd integer"), _pos("n", "rational prime to a")]),
    "chi": (_h_chi, "quadratic character chi_a(x) of conductor dividing 4|a|",
            [_pos("a", "squarefree integer"), _pos("x", "integer prime to 4a")]),
    "char-basis": (_h_char_basis, "basis of quadratic characters mod m", [_pos("m", "modulus")]),
    "group-product": (_h_group_product, "product of all units mod m", [_pos("m", "modulus")]),
    "binomial-prime": (_h_binomial_prime, "primality via binomial coefficients",
                       [_pos("n", "integer > 1")]),
    "arith": (_h_arith, "p-adic ring arithmetic",
              [("op", {"choices": ["add", "sub", "mul", "div"]}),
               _ELEMENT, _pos("y", "rational or textual element"), _PREC, _P]),
    "hensel": (_h_hensel, "Hensel-lift a root of an integer polynomial",
               [_pos("f", "coefficients, constant first, e.g. -17,0,1"),
                _pos("x0", "approximate integer root"), _PREC,
                _opt("-p", "prime", type=int, required=True)]),
    "sqrt": (_h_sqrt, "p-adic square root", [_ELEMENT, _PREC, _P]),
    "teichmuller": (_h_teichmuller, "Teichmuller representative of a mod p",
                    [_pos("a", "residue"), _pos("p", "prime"), _PREC]),
    "unit-decompose": (_h_unit_decompose, "split a unit as Teichmuller times one-unit",
                       [_ELEMENT, _PREC, _P]),
    "vp-factorial": (_h_vp_factorial, "valuation and unit residue of n!",
                     [_pos("n", "nonnegative integer"), _pos("p", "prime")]),
    "sqrt-series": (_h_sqrt_series, "the 2-adic square root of 1+8x by its series",
                    [_pos("x", "integer"), _PREC]),
    "digits": (_h_digits, "digit expansion of the unit part",
               [_ELEMENT, _PREC, _P,
                ("--scheme", {"choices": ["standard", "teichmuller"], "default": "standard"})]),
    "square-class": (_h_squareclass, "canonical square-class representative in Q_p",
                     [_ELEMENT, _P]),
    "hilbert": (_h_hilbert, "Hilbert symbol (a,b)_v",
                [_pos("a", "rational"), _pos("b", "rational"),
                 _opt("v", "place (omit with --all)", nargs="?", default=None),
                 _opt("--all", "list all places with sign -1", action="store_true")]),
    "witness": (_h_witness, "explicit local solution of ax^2+by^2=1",
                [_pos("a", "rational"), _pos("b", "rational"), _pos("v", "place"), _PREC]),
    "is-norm": (_h_is_norm, "is a a norm from Q_v(sqrt b)?",
                [_pos("a", "rational"), _pos("b", "rational"), _pos("v", "place")]),
    "correspondence": (_h_correspondence,
                       "quadratic extensions of Q_p and their norm characters",
                       [_pos("p", "prime")]),
    "solve": (_h_solve, "rational point on ax^2+by^2=1 or the obstruction",
              [_pos("a", "rational"), _pos("b", "rational")]),
    "descent-step": (_h_descent_step, "one Legendre descent step on a solution triple",
                     [_pos("a", "frame a"), _pos("b", "frame b"), _pos("c", "frame c"),
                      _pos("d", "frame d"), _pos("x", "solution x"), _pos("y", "solution y"),
                      _pos("s", "solution s"),
                      ("direction", {"choices": ["forward", "backward"]})]),
    "ternary": (_h_ternary, "nonzero integer zero of ax^2+by^2+cz^2",
                [_pos("a", "integer"), _pos("b", "integer"), _pos("c", "integer")]),
    "global-norm": (_h_global_norm, "is a a norm from Q(sqrt b)?",
                    [_pos("a", "rational"), _pos("b", "rational")]),
    "bernoulli": (_h_bernoulli, "exact Bernoulli number B_k", [_pos("k", "index")]),
    "von-staudt": (_h_von_staudt, "the integer B_k + sum 1/l over (l-1) | k",
                   [_pos("k", "even index")]),
    "power-sum": (_h_power_sum, "0^k + ... + (n-1)^k via Bernoulli numbers",
                  [_pos("k", "exponent"), _pos("n", "bound")]),
    "frac-part": (_h_frac_part, "p-adic fractional part <x>_p", [_ELEMENT, _P]),
    "conductor": (_h_conductor, "conductor exponent of a local character",
                  [_pos("chi", "character, e.g. lambda_4 or nu_3*lambda_3"),
                   _opt("-p", "place for ambiguous characters", type=int, default=None)]),
    "root-number": (_h_root_number, "local root number W_v(chi)",
                    [_pos("chi", "character, e.g. lambda_8, nu_5, sign"),
                     _opt("-v", "place for ambiguous characters", default=None),
                     _opt("--gamma", "uniformizing element (default p^a)", default=None)]),
    "root-product": (_h_root_product, "product of root numbers attached to Q(sqrt d)",
                     [_pos("d", "squarefree integer")]),
    "bost": (_h_bost, "lambda_p(2012) for the Mersenne prime p = 2^43112609 - 1", []),
    "scan-reciprocity": (_h_scan_reciprocity, "check reciprocity for all odd p,q < bound",
                         [_pos("max_prime", "exclusive prime bound"), _WORKERS]),
    "scan-product-formula": (_h_scan_product_formula,
                             "product formula on random rational pairs",
                             [_pos("count", "number of pairs"),
                              _pos("bound", "numerator/denominator bound"), _WORKERS,
                              ("--seed", {"type": int, "default": 20260814})]),
    "scan-vonstaudt": (_h_scan_vonstaudt, "integrality of W_k for even k up to the bound",
                       [_pos("max_k", "inclusive bound"), _WORKERS]),
}


def _build_parser(names) -> _Parser:
    """The parser with a subcommand for each of the given command names."""
    top = _Parser(prog="qrlab", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in names:
        handler, help_, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=handler)
    return top


def run(argv) -> int:
    argv = list(argv)
    # Only the named subcommand is registered.  Help, a missing or unknown
    # command, and arguments left over (whose error prints the top-level
    # usage) parse with all of them, because that text lists every command.
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    try:
        args, extra = _build_parser(named).parse_known_args(argv)
        if extra:
            _build_parser(_COMMANDS).parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        code, lines, payload = args.func(args)
    except (ValueError, PrecisionLossError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 -- invariant breakage is exit 1
        print(f"internal error: {e!r}", file=sys.stderr)
        return 1
    if args.json:
        import json
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point fd 1 at devnull so that the exit
        # flush cannot raise again, and exit 141 = 128 + SIGPIPE, as a shell
        # reports a process that SIGPIPE ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
