"""Handlers of the commands that run qrlab.symbols."""

from qrlab import symbols
from qrlab.commands import _bool, _int, _rat, _sign


def _h_legendre(a):
    s = symbols.legendre(_rat(a.a), _int(a.p))
    return 0, [_sign(s)], {"sign": s}


def _h_lambda4(a):
    s = symbols.lambda4(_rat(a.a))
    return 0, [_sign(s)], {"sign": s}


def _h_lambda8(a):
    s = symbols.lambda8(_rat(a.a))
    return 0, [_sign(s)], {"sign": s}


def _h_gauss_lemma(a):
    s = symbols.gauss_lemma_sign(_int(a.a), _int(a.p))
    return 0, [_sign(s)], {"sign": s}


def _h_lattice(a):
    m, n = symbols.lattice_counts(_int(a.p), _int(a.q))
    return 0, [f"M: {m}", f"N: {n}"], {"M": m, "N": n}


def _h_reciprocity(a):
    ok = symbols.reciprocity_check(_int(a.p), _int(a.q))
    return 0, [_bool(ok)], {"holds": ok}


def _h_psi(a):
    s = symbols.psi(_int(a.a), _rat(a.n))
    return 0, [_sign(s)], {"sign": s}


def _h_chi(a):
    s = symbols.kronecker_chi(_int(a.a), _int(a.x))
    return 0, [_sign(s)], {"sign": s}


def _h_char_basis(a):
    chars = symbols.quadratic_char_basis(_int(a.m))
    labels = [c.label() for c in chars]
    return 0, labels or ["(none)"], {"m": _int(a.m), "characters": labels}


def _h_group_product(a):
    s = symbols.group_product_sign(_int(a.m))
    return 0, [_sign(s)], {"sign": s}


def _h_binomial_prime(a):
    ok = symbols.binomial_primality(_int(a.n))
    return 0, [_bool(ok)], {"prime": ok}


def _h_correspondence(a):
    table = symbols.ext_char_correspondence(_int(a.p))
    lines = [f"{b}: {chi.label()}" for b, chi in table]
    payload = {"p": _int(a.p), "table": [{"b": b, "character": chi.label()} for b, chi in table]}
    return 0, lines, payload


def _h_bost(a):
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
