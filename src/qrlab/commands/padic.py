"""Handlers of the commands that run qrlab.padic."""

from qrlab import padic, rational
from qrlab.commands import _int, _rat, _ratstr


def _element(text: str, p: int | None, prec: int):
    """A p-adic element from either the textual O(...) form or a rational."""
    if "O(" in text:
        x = padic.parse_padic(text)
        if p is not None and x.prime != p:
            raise ValueError(f"element lives at {x.prime}, but p = {p} was given")
        return x
    if p is None:
        raise ValueError("pass -p for rational input")
    rational.check_padic_size(p, prec)
    return padic.PAdicElement.from_rational(_rat(text), p, prec)


def _h_arith(a):
    p = a.p
    x = _element(a.x, p, a.prec)
    y = _element(a.y, x.prime, a.prec)
    z = padic.arith(a.op, x, y)
    return 0, [padic.format_padic(z)], {"result": padic.format_padic(z)}


def _h_hensel(a):
    coeffs = tuple(_int(c) for c in a.f.split(","))
    f = padic.IntPolynomial(coeffs)
    rational.check_padic_size(a.p, a.prec)
    root = padic.hensel_lift(f, _int(a.x0), a.prec, p=a.p)
    return 0, [padic.format_padic(root)], {"root": padic.format_padic(root)}


def _h_sqrt(a):
    x = _element(a.x, a.p, a.prec)
    r = padic.padic_sqrt(x)
    if r is None:
        return 0, ["none"], {"root": None}
    return 0, [padic.format_padic(r)], {"root": padic.format_padic(r)}


def _h_teichmuller(a):
    p = _int(a.p)
    rational.check_padic_size(p, a.prec)
    t = padic.teichmuller(_int(a.a), p, a.prec)
    return 0, [padic.format_padic(t)], {"representative": padic.format_padic(t)}


def _h_unit_decompose(a):
    x = _element(a.x, a.p, a.prec)
    tau, u1 = padic.unit_decompose(x)
    return (
        0,
        [f"teichmuller: {padic.format_padic(tau)}", f"one-unit: {padic.format_padic(u1)}"],
        {"teichmuller": padic.format_padic(tau), "one_unit": padic.format_padic(u1)},
    )


def _h_vp_factorial(a):
    val, unit = padic.vp_factorial(_int(a.n), _int(a.p))
    return 0, [f"valuation: {val}", f"unit: {unit}"], {"valuation": val, "unit": unit}


def _h_sqrt_series(a):
    rational.check_padic_size(2, a.prec)
    y = padic.sqrt_series_1p8x(_int(a.x), a.prec)
    return 0, [padic.format_padic(y)], {"root": padic.format_padic(y)}


def _h_digits(a):
    x = _element(a.x, a.p, a.prec)
    ds = padic.digits(x, a.scheme)
    val = "infinity" if x.is_zero else x.valuation
    return 0, [" ".join(str(d) for d in ds)], {"valuation": val, "digits": ds, "scheme": a.scheme}


def _h_squareclass(a):
    if "O(" in a.x:
        c = padic.square_class(padic.parse_padic(a.x))
    else:
        if a.p is None:
            raise ValueError("pass -p for rational input")
        c = padic.square_class(_rat(a.x), a.p)
    return 0, [str(c)], {"class": c}


def _h_frac_part(a):
    if "O(" in a.x:
        x = padic.parse_padic(a.x)
        t = padic.p_frac_part(x, a.p)
    else:
        if a.p is None:
            raise ValueError("pass -p for rational input")
        t = padic.p_frac_part(_rat(a.x), a.p)
    return 0, [_ratstr(t)], {"frac": _ratstr(t)}
