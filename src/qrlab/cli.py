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

# A call compiles only the handler module of its command (qrlab.commands.*),
# which imports the layers it runs and calls through them (symbols.legendre),
# so a patched binding is seen.  rational, which every command needs, is
# loaded here.
from qrlab.rational import DEFAULT_PRECISION, PrecisionLossError

# allow negative rationals ("-1/3") and coefficient lists ("-17,0,1") as
# positional arguments; stock argparse only recognizes plain "-1"
_NEGATIVE_VALUE = re.compile(r"^-\d+([/,]\d+)*$")


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's default width, shutil.get_terminal_size().columns - 2,
    read without importing shutil and the compression modules it brings:
    COLUMNS if it is a positive int, else the width of the terminal on
    sys.__stdout__, else 80."""

    def __init__(self, prog):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                columns = 0
        super().__init__(prog, width=(columns or 80) - 2)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, formatter_class=_HelpFormatter, **kw)
        self._negative_number_matcher = _NEGATIVE_VALUE


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

#: name -> (handler module under qrlab.commands, handler, help, arguments in
#: order); every command also takes --json.  The order is the order of the
#: top-level help.
_COMMANDS = {
    "factorize": ("rational", "_h_factorize", "factor a nonzero integer", [_pos("n", "integer")]),
    "vp": ("rational", "_h_vp", "p-adic valuation and unit part",
           [_pos("x", "rational"), _pos("p", "prime")]),
    "absval": ("rational", "_h_absval", "normalized absolute value |x|_v",
               [_pos("x", "rational"), _pos("v", "place: inf or a prime")]),
    "norm-product": ("rational", "_h_norm_product", "verify prod_v |x|_v = 1",
                     [_pos("x", "rational")]),
    "sqrtmod-prime": ("rational", "_h_sqrtmod_prime", "square root mod an odd prime",
                      [_pos("a", "integer"), _pos("p", "odd prime")]),
    "sqrtmod-squarefree": ("rational", "_h_sqrtmod_squarefree",
                           "smallest folded root mod squarefree b",
                           [_pos("a", "integer"), _pos("b", "squarefree modulus")]),
    "legendre": ("symbols", "_h_legendre", "Legendre symbol",
                 [_pos("a", "rational unit at p"), _pos("p", "odd prime")]),
    "lambda4": ("symbols", "_h_lambda4", "sign character mod 4", [_pos("a", "odd rational")]),
    "lambda8": ("symbols", "_h_lambda8", "sign character mod 8", [_pos("a", "odd rational")]),
    "gauss-lemma": ("symbols", "_h_gauss_lemma", "Legendre symbol by counting sign flips",
                    [_pos("a", "integer"), _pos("p", "odd prime")]),
    "lattice": ("symbols", "_h_lattice", "lattice point counts below/above the diagonal",
                [_pos("p", "odd prime"), _pos("q", "odd prime")]),
    "reciprocity": ("symbols", "_h_reciprocity", "check the reciprocity law and supplements",
                    [_pos("p", "odd prime"), _pos("q", "odd prime")]),
    "psi": ("symbols", "_h_psi", "reciprocity-normalized character psi_a(n)",
            [_pos("a", "odd integer"), _pos("n", "rational prime to a")]),
    "chi": ("symbols", "_h_chi", "quadratic character chi_a(x) of conductor dividing 4|a|",
            [_pos("a", "squarefree integer"), _pos("x", "integer prime to 4a")]),
    "char-basis": ("symbols", "_h_char_basis", "basis of quadratic characters mod m",
                   [_pos("m", "modulus")]),
    "group-product": ("symbols", "_h_group_product", "product of all units mod m",
                      [_pos("m", "modulus")]),
    "binomial-prime": ("symbols", "_h_binomial_prime", "primality via binomial coefficients",
                       [_pos("n", "integer > 1")]),
    "arith": ("padic", "_h_arith", "p-adic ring arithmetic",
              [("op", {"choices": ["add", "sub", "mul", "div"]}),
               _ELEMENT, _pos("y", "rational or textual element"), _PREC, _P]),
    "hensel": ("padic", "_h_hensel", "Hensel-lift a root of an integer polynomial",
               [_pos("f", "coefficients, constant first, e.g. -17,0,1"),
                _pos("x0", "approximate integer root"), _PREC,
                _opt("-p", "prime", type=int, required=True)]),
    "sqrt": ("padic", "_h_sqrt", "p-adic square root", [_ELEMENT, _PREC, _P]),
    "teichmuller": ("padic", "_h_teichmuller", "Teichmuller representative of a mod p",
                    [_pos("a", "residue"), _pos("p", "prime"), _PREC]),
    "unit-decompose": ("padic", "_h_unit_decompose", "split a unit as Teichmuller times one-unit",
                       [_ELEMENT, _PREC, _P]),
    "vp-factorial": ("padic", "_h_vp_factorial", "valuation and unit residue of n!",
                     [_pos("n", "nonnegative integer"), _pos("p", "prime")]),
    "sqrt-series": ("padic", "_h_sqrt_series", "the 2-adic square root of 1+8x by its series",
                    [_pos("x", "integer"), _PREC]),
    "digits": ("padic", "_h_digits", "digit expansion of the unit part",
               [_ELEMENT, _PREC, _P,
                ("--scheme", {"choices": ["standard", "teichmuller"], "default": "standard"})]),
    "square-class": ("padic", "_h_squareclass", "canonical square-class representative in Q_p",
                     [_ELEMENT, _P]),
    "hilbert": ("hilbert", "_h_hilbert", "Hilbert symbol (a,b)_v",
                [_pos("a", "rational"), _pos("b", "rational"),
                 _opt("v", "place (omit with --all)", nargs="?", default=None),
                 _opt("--all", "list all places with sign -1", action="store_true")]),
    "witness": ("hilbert", "_h_witness", "explicit local solution of ax^2+by^2=1",
                [_pos("a", "rational"), _pos("b", "rational"), _pos("v", "place"), _PREC]),
    "is-norm": ("hilbert", "_h_is_norm", "is a a norm from Q_v(sqrt b)?",
                [_pos("a", "rational"), _pos("b", "rational"), _pos("v", "place")]),
    "correspondence": ("symbols", "_h_correspondence",
                       "quadratic extensions of Q_p and their norm characters",
                       [_pos("p", "prime")]),
    "solve": ("conic", "_h_solve", "rational point on ax^2+by^2=1 or the obstruction",
              [_pos("a", "rational"), _pos("b", "rational")]),
    "descent-step": ("conic", "_h_descent_step", "one Legendre descent step on a solution triple",
                     [_pos("a", "frame a"), _pos("b", "frame b"), _pos("c", "frame c"),
                      _pos("d", "frame d"), _pos("x", "solution x"), _pos("y", "solution y"),
                      _pos("s", "solution s"),
                      ("direction", {"choices": ["forward", "backward"]})]),
    "ternary": ("conic", "_h_ternary", "nonzero integer zero of ax^2+by^2+cz^2",
                [_pos("a", "integer"), _pos("b", "integer"), _pos("c", "integer")]),
    "global-norm": ("conic", "_h_global_norm", "is a a norm from Q(sqrt b)?",
                    [_pos("a", "rational"), _pos("b", "rational")]),
    "bernoulli": ("analytic", "_h_bernoulli", "exact Bernoulli number B_k", [_pos("k", "index")]),
    "von-staudt": ("analytic", "_h_von_staudt", "the integer B_k + sum 1/l over (l-1) | k",
                   [_pos("k", "even index")]),
    "power-sum": ("analytic", "_h_power_sum", "0^k + ... + (n-1)^k via Bernoulli numbers",
                  [_pos("k", "exponent"), _pos("n", "bound")]),
    "frac-part": ("padic", "_h_frac_part", "p-adic fractional part <x>_p", [_ELEMENT, _P]),
    "conductor": ("analytic", "_h_conductor", "conductor exponent of a local character",
                  [_pos("chi", "character, e.g. lambda_4 or nu_3*lambda_3"),
                   _opt("-p", "place for ambiguous characters", type=int, default=None)]),
    "root-number": ("analytic", "_h_root_number", "local root number W_v(chi)",
                    [_pos("chi", "character, e.g. lambda_8, nu_5, sign"),
                     _opt("-v", "place for ambiguous characters", default=None),
                     _opt("--gamma", "uniformizing element (default p^a)", default=None)]),
    "root-product": ("analytic", "_h_root_product", "product of root numbers attached to Q(sqrt d)",
                     [_pos("d", "squarefree integer")]),
    "bost": ("symbols", "_h_bost", "lambda_p(2012) for the Mersenne prime p = 2^43112609 - 1", []),
    "scan-reciprocity": ("scans", "_h_scan_reciprocity",
                         "check reciprocity for all odd p,q < bound",
                         [_pos("max_prime", "exclusive prime bound"), _WORKERS]),
    "scan-product-formula": ("scans", "_h_scan_product_formula",
                             "product formula on random rational pairs",
                             [_pos("count", "number of pairs"),
                              _pos("bound", "numerator/denominator bound"), _WORKERS,
                              ("--seed", {"type": int, "default": 20260814})]),
    "scan-vonstaudt": ("scans", "_h_scan_vonstaudt",
                       "integrality of W_k for even k up to the bound",
                       [_pos("max_k", "inclusive bound"), _WORKERS]),
}


def _build_parser(names) -> _Parser:
    """The parser with a subcommand for each of the given command names."""
    top = _Parser(prog="qrlab", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in names:
        _, _, help_, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        p.add_argument("--json", action="store_true", help="emit JSON")
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
    module, handler = _COMMANDS[args.command][:2]
    try:
        handlers = __import__(f"qrlab.commands.{module}", fromlist=[handler])
        code, lines, payload = getattr(handlers, handler)(args)
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
