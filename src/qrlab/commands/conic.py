"""Handlers of the commands that run qrlab.conic."""

from qrlab import conic
from qrlab.commands import _int, _rat, _ratstr


def _h_solve(a):
    cert = conic.solve_conic(_rat(a.a), _rat(a.b))
    if cert.outcome == "solution":
        lines = [f"solution: x = {_ratstr(cert.x)}, y = {_ratstr(cert.y)}"]
    else:
        lines = ["obstruction: " + " ".join(str(v) for v in cert.places)]
    return 0, lines, cert.to_json()


def _h_descent_step(a):
    frame = conic.DescentFrame(_int(a.a), _int(a.b), _int(a.c), _int(a.d))
    triple = conic.descent_step(frame, (_rat(a.x), _rat(a.y), _rat(a.s)), a.direction)
    return (
        0,
        [", ".join(_ratstr(t) for t in triple)],
        {"triple": [_ratstr(t) for t in triple]},
    )


def _h_ternary(a):
    va, vb, vc = _int(a.a), _int(a.b), _int(a.c)
    sol = conic.legendre_ternary(va, vb, vc)
    if sol is None:
        reason = "inf" if (va > 0) == (vb > 0) == (vc > 0) else "residue"
        detail = "definite at the real place" if reason == "inf" else "residue condition fails"
        return 0, [f"none ({detail})"], {"solution": None, "reason": reason}
    x, y, z = sol
    return 0, [f"x = {x}, y = {y}, z = {z}"], {"solution": [x, y, z], "reason": None}


def _h_global_norm(a):
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
