"""Handlers of the commands that run qrlab.hilbert."""

from qrlab import hilbert, rational
from qrlab.commands import _bool, _rat, _ratstr, _sign
from qrlab.rational import Place


def _h_hilbert(a):
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
    place = Place.parse(a.v)
    if not place.is_infinite:
        rational.check_padic_size(place.prime, a.prec)
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
    ok = hilbert.is_local_norm(_rat(a.a), _rat(a.b), Place.parse(a.v))
    return 0, [_bool(ok)], {"is_norm": ok}
