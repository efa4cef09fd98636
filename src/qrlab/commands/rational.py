"""Handlers of the commands that run qrlab.rational alone."""

from qrlab import rational
from qrlab.commands import _bool, _int, _rat, _ratstr
from qrlab.rational import Place


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
