"""Handlers of the commands that run qrlab.analytic."""

import re

from qrlab import analytic, symbols
from qrlab.commands import _int, _rat, _ratstr
from qrlab.rational import Place


def _complex(w: complex):
    return 0, [f"{w.real:.12g}{w.imag:+.12g}·i"], {"re": w.real, "im": w.imag}


def _character(text: str, place: Place | None):
    """Parse 'nu_2*lambda_4', 'lambda_7', 'sign', '1', ... into a local
    character.  The tokens multiply: a repeated lambda_P cancels, as in
    QuadraticCharacter.times, and nu_P counts by parity; the place is still
    read from every token, cancelled or not."""
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


def _h_bernoulli(a):
    b = analytic.bernoulli(_int(a.k))
    return 0, [_ratstr(b)], {"bernoulli": _ratstr(b)}


def _h_von_staudt(a):
    w = analytic.von_staudt_W(_int(a.k))
    return 0, [str(w)], {"W": w}


def _h_power_sum(a):
    s = analytic.power_sum(_int(a.k), _int(a.n))
    return 0, [str(s)], {"sum": s}


def _h_conductor(a):
    place = None if a.p is None else Place.finite(a.p)
    chi = _character(a.chi, place)
    n = analytic.conductor_exponent(chi)
    return 0, [str(n)], {"exponent": n}


def _h_root_number(a):
    place = None if a.v is None else Place.parse(a.v)
    chi = _character(a.chi, place)
    gamma = None if a.gamma is None else _rat(a.gamma)
    return _complex(analytic.local_root_number(chi, gamma=gamma))


def _h_root_product(a):
    return _complex(analytic.root_number_product(_int(a.d)))
