"""Command-line surface: golden outputs, JSON schemas, exit codes, scan
report formats, and the argument grammar (negative rationals, places,
textual p-adic elements, character labels)."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

from fractions import Fraction
from pathlib import Path

import pytest

from qrlab import analytic, cli
from qrlab.analytic import BERNOULLI_BOUND, ROOT_NUMBER_BOUND
from qrlab.cli import run
from qrlab.hilbert import hilbert_symbol
from qrlab.padic import PADIC_BITS_BOUND
from qrlab.rational import is_probable_prime
from qrlab.symbols import BINOMIAL_PRIMALITY_BOUND, GAUSS_LEMMA_BOUND, LATTICE_BOUND


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


# ---------------------------------------------------------------------------
# golden examples

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """(argv, expected stdout) for each `$ qrlab ...` line of README.md: the
    expected text is the lines after it, up to the next prompt or fence."""
    examples = []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ qrlab "):
            examples.append((shlex.split(line[2:], comments=True)[1:], []))
        elif line.startswith(("$ ", "```")):
            examples.append(None)
        elif examples and examples[-1] is not None:
            examples[-1][1].append(line)
    return [(argv, "\n".join(lines)) for argv, lines in filter(None, examples)]


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert len(examples) == 16
    for argv, expected in examples:
        code, out, _ = invoke(capsys, *argv)
        assert (code, out) == (0, expected), argv


def test_legendre_golden(capsys):
    code, out, _ = invoke(capsys, "legendre", "2", "7")
    assert (code, out) == (0, "+1")


def test_solve_golden_json(capsys):
    code, out, _ = invoke(capsys, "solve", "2", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "solution"
    assert set(payload) == {"a", "b", "outcome", "x", "y", "places"}
    from fractions import Fraction

    x, y = Fraction(payload["x"]), Fraction(payload["y"])
    assert 2 * x ** 2 + 7 * y ** 2 == 1


def test_hilbert_all_golden(capsys):
    code, out, _ = invoke(capsys, "hilbert", "-1", "-1", "--all")
    assert (code, out) == (0, "{inf: -1, 2: -1}")


def test_bost_golden(capsys):
    code, out, _ = invoke(capsys, "bost")
    assert code == 0
    assert "exponent residue: 347" in out
    assert "2^347 mod 503: 92" in out
    assert "p mod 503: 91" in out
    assert "sign (euler): -1" in out and "sign (factored): -1" in out
    code, out, _ = invoke(capsys, "bost", "--json")
    payload = json.loads(out)
    assert payload["sign_euler"] == payload["sign_factored"] == payload["sign"]


# ---------------------------------------------------------------------------
# scans

def test_scan_reciprocity_report(capsys):
    code, out, _ = invoke(capsys, "scan-reciprocity", "100")
    assert code == 0
    assert re.fullmatch(r"\d+ primes, \d+ pairs, 0 failures", out)
    assert out.startswith("24 primes, 276 pairs")


def test_scan_product_formula_report(capsys):
    code, out, _ = invoke(capsys, "scan-product-formula", "60", "1000")
    assert (code, out) == (0, "60 pairs, 0 failures")


def test_scan_vonstaudt_report(capsys):
    code, out, _ = invoke(capsys, "scan-vonstaudt", "60")
    assert (code, out) == (0, "30 values, 0 failures")


def test_scan_workers_agree(capsys):
    _, solo, _ = invoke(capsys, "scan-product-formula", "40", "500", "--json")
    _, sharded, _ = invoke(capsys, "scan-product-formula", "40", "500", "--workers", "3", "--json")
    assert json.loads(solo) == json.loads(sharded)


# ---------------------------------------------------------------------------
# exit codes and errors

def test_domain_errors_exit_2(capsys):
    big = str(10**33)
    for argv in (
        ["legendre", "4", "15"],
        ["factorize", "0"],
        ["legendre", "x", "7"],
        ["vp", "1/0", "3"],
        ["hilbert", "2", "7"],  # neither place nor --all
        ["conductor", "lambda_4", "-p", "3"],
        ["ternary", "4", "3", "-1"],
        ["arith", "add", "1/3", "2"],  # missing -p
        # past factorize's workload bound of 2^96
        ["factorize", big],
        ["solve", big, "7"],
        ["hilbert", big, "7", "--all"],
        ["norm-product", big],
        ["ternary", big, "3", "-5"],
        ["sqrtmod-squarefree", "2", big],
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def _next_prime(n):
    n += 1
    while not is_probable_prime(n):
        n += 1
    return n


def test_oracle_workload_bounds_exit_2(capsys):
    # the least prime input past each bound is refused at once
    p = _next_prime(math.isqrt(LATTICE_BOUND))
    for argv in (
        ["gauss-lemma", "3", str(_next_prime(GAUSS_LEMMA_BOUND))],
        ["lattice", str(p), str(_next_prime(p))],
        ["binomial-prime", str(_next_prime(BINOMIAL_PRIMALITY_BOUND))],
    ):
        start = time.perf_counter()
        code, _, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert err.startswith("error:") and "workload bound" in err, argv


def test_witness_at_infinity_beyond_float_range_exits_0(capsys):
    huge = "3" + "0" * 400
    for a in (huge, "3/1" + "0" * 400):
        code, out, err = invoke(capsys, "witness", a, "-1", "inf")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0].startswith("x: ") and lines[1] == "y: 0"
        assert lines[2] == "approximate: true"


def test_power_sum_closed_form_in_bounded_time(capsys):
    n = 10**8
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "power-sum", "2", str(n))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, str((n - 1) * n * (2 * n - 1) // 6))


def test_power_sum_at_the_bernoulli_bound_in_bounded_time(capsys, monkeypatch):
    # an empty cache, so the one tangent-number pass to k = 2000 is timed
    monkeypatch.setattr(analytic, "_BERNOULLI", [Fraction(1)])
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "power-sum", str(BERNOULLI_BOUND), "2")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "1")


def test_first_k_past_the_bernoulli_bound_exits_2(capsys):
    k = BERNOULLI_BOUND + 1
    for argv in (["bernoulli", str(k)], ["von-staudt", str(k + 1)], ["power-sum", str(k), "2"]):
        start = time.perf_counter()
        code, _, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert err.startswith("error:") and "workload bound" in err, argv


def test_power_sum_past_the_printable_size_exits_2_at_once(capsys):
    # both used to do all their work first: the first ran past 60 s, the
    # second exited 2 on Python's 4300-digit int-to-str limit
    for argv in (["power-sum", "2000", "1" + "0" * 1000], ["power-sum", "2", "1" + "0" * 1500]):
        start = time.perf_counter()
        code, _, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv[:2]
        assert code == 2, argv[:2]
        assert err.startswith("error:") and "workload bound" in err, argv[:2]
    # an answer of about 4000 digits still prints, in text and in JSON
    n = 10**1333
    code, out, _ = invoke(capsys, "power-sum", "2", str(n))
    assert (code, out) == (0, str((n - 1) * n * (2 * n - 1) // 6)) and len(out) == 3999
    code, out, _ = invoke(capsys, "power-sum", "2", str(n), "--json")
    assert code == 0 and json.loads(out)["sum"] == (n - 1) * n * (2 * n - 1) // 6


def _timed(capsys, argv, limit):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < limit, argv
    return code, out, err


def test_root_numbers_in_bounded_time(capsys):
    # the conductor is closed-form: an unramified character at a large p
    assert _timed(capsys, ["conductor", "nu_10000019"], 1.0)[:2] == (0, "0")
    for argv in (
        ["root-number", "lambda_1000003"],
        ["root-product", "1000003"],
        ["root-product", "10000019"],
        ["root-number", f"lambda_{_next_prime(ROOT_NUMBER_BOUND)}"],
        # 49939 * 49943 * 49957 * 49991 * 49993 * 49999: each Gauss sum is
        # accepted alone, the six together are not
        ["root-product", "15569446005300567780005319193"],
    ):
        code, _, err = _timed(capsys, argv, 1.0)
        assert code == 2, argv
        assert err.startswith("error:") and "workload bound" in err, argv
    p = ROOT_NUMBER_BOUND
    while not is_probable_prime(p):
        p -= 1
    assert _timed(capsys, ["root-number", f"lambda_{p}"], 2.0)[0] == 0
    assert _timed(capsys, ["root-product", str(p)], 2.0)[0] == 0


def test_padic_precision_in_bounded_time(capsys):
    for p, a in ((7, "2"), (5, "2")):
        k = int(PADIC_BITS_BOUND / math.log2(p))  # the largest k with p^k <= 2^bound
        for argv in (
            ["sqrt", a, "-p", str(p)],
            ["teichmuller", a, str(p)],
            ["digits", "1/3", "-p", str(p), "--scheme", "teichmuller"],
        ):
            assert _timed(capsys, argv + ["--prec", str(k)], 2.0)[0] == 0, argv
            code, _, err = _timed(capsys, argv + ["--prec", str(k + 1)], 1.0)
            assert code == 2 and "workload bound" in err, argv
    for argv in (
        ["sqrt", "2", "-p", "7", "--prec", "20000"],
        ["teichmuller", "2", "5", "--prec", "5000"],
        ["digits", "1/3", "-p", "7", "--scheme", "teichmuller", "--prec", "2000"],
        ["witness", "3", "5", "1013", "--prec", "103"],
        ["hensel", "-17,0,1", "1", "-p", "2", "--prec", str(PADIC_BITS_BOUND + 1)],
        ["sqrt-series", "3", "--prec", str(PADIC_BITS_BOUND + 1)],
        # the O-term of a textual element, and a negative valuation
        ["sqrt", "7^0 * (1) + O(7^1000000000)"],
        ["frac-part", "7^-1000000000 * (1) + O(7^2)"],
    ):
        code, _, err = _timed(capsys, argv, 1.0)
        assert code == 2 and "workload bound" in err, argv


def test_valuation_base_below_2_exits_2(capsys):
    # a base of 1 or -1 divides everything: the valuation loop never ended
    for argv in (["vp", "5", "1"], ["vp", "5", "-1"], ["sqrt", "2", "-p", "1"]):
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_factorize_psi_12(capsys):
    # the least strong pseudoprime to the twelve bases 2..37
    code, out, _ = invoke(capsys, "factorize", "318665857834031151167461")
    assert (code, out) == (0, "sign: 1\n399165290221^1\n798330580441^1")


def test_factorize_psi_13(capsys):
    # the least strong pseudoprime to all thirteen bases 2..41: the strong
    # Lucas test, not Miller-Rabin, finds it composite
    code, out, _ = invoke(capsys, "factorize", "3317044064679887385961981")
    assert (code, out) == (0, "sign: 1\n1287836182261^1\n2575672364521^1")
    code, _, err = invoke(capsys, "legendre", "2", "3317044064679887385961981")
    assert code == 2 and err.startswith("error:")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child(*argv):
    """Stdout of a fresh `python -S` child with qrlab from the source tree."""
    return subprocess.run(
        [sys.executable, "-S", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _loaded_after(code, watched):
    """The watched modules, and every qrlab module, loaded after `code`
    runs in a fresh child (read from the last line it prints)."""
    probe = f"import sys; {code}; print(*(m for m in sys.modules if m in {watched!r} or m.startswith('qrlab.')))"
    return set(_child("-c", probe).splitlines()[-1].split())


def test_import_loads_no_process_pool():
    # the worker pool and the seeded scans' rng are imported where they are
    # used, so a one-shot command does not pay for them
    watched = ("concurrent.futures", "multiprocessing", "random")
    assert not _loaded_after("import qrlab.cli", watched).intersection(watched)


LIBRARY = ("rational", "symbols", "padic", "hilbert", "conic", "analytic")
SLOW_STDLIB = ("dataclasses", "typing", "inspect", "json")


def test_a_command_loads_only_the_modules_it_runs():
    # import qrlab.cli compiles and runs cli and rational only, and none of
    # the slow standard modules; the library itself needs neither
    # dataclasses nor typing
    assert _loaded_after("import qrlab.cli", SLOW_STDLIB) == {"qrlab.cli", "qrlab.rational"}
    imports = "; ".join(f"import qrlab.{name}" for name in LIBRARY)
    loaded = _loaded_after(imports, SLOW_STDLIB)
    assert loaded == {f"qrlab.{name}" for name in LIBRARY}
    # legendre needs symbols alone, and prints text without json
    run_legendre = "from qrlab import cli; cli.run(['legendre', '2', '7'])"
    loaded = _loaded_after(run_legendre, SLOW_STDLIB)
    assert loaded == {"qrlab.cli", "qrlab.rational", "qrlab.symbols"}


def test_precision_names_are_one_object_across_modules():
    from qrlab import padic, rational

    assert padic.PrecisionLossError is rational.PrecisionLossError is cli.PrecisionLossError
    assert padic.DEFAULT_PRECISION == rational.DEFAULT_PRECISION == 32


def test_sharded_scans_run_in_a_fresh_process():
    # the workers of a fresh child have only cli and rational loaded: each
    # shard function imports the modules it calls
    for argv, report in (
        (["scan-reciprocity", "60", "--workers", "2"], "16 primes, 120 pairs, 0 failures"),
        (["scan-vonstaudt", "40", "--workers", "2"], "20 values, 0 failures"),
        (["scan-product-formula", "20", "100", "--workers", "2"], "20 pairs, 0 failures"),
    ):
        assert _child("-m", "qrlab.cli", *argv) == report + "\n", argv


# argparse's help and error text as printed before the parser was built one
# subcommand at a time, at a width of 80 columns
COMMAND_NAMES = (
    "factorize", "vp", "absval", "norm-product", "sqrtmod-prime", "sqrtmod-squarefree",
    "legendre", "lambda4", "lambda8", "gauss-lemma", "lattice", "reciprocity", "psi", "chi",
    "char-basis", "group-product", "binomial-prime", "arith", "hensel", "sqrt", "teichmuller",
    "unit-decompose", "vp-factorial", "sqrt-series", "digits", "square-class", "hilbert",
    "witness", "is-norm", "correspondence", "solve", "descent-step", "ternary", "global-norm",
    "bernoulli", "von-staudt", "power-sum", "frac-part", "conductor", "root-number",
    "root-product", "bost", "scan-reciprocity", "scan-product-formula", "scan-vonstaudt",
)
CHOICES = "{" + ",".join(COMMAND_NAMES) + "}"
USAGE = f"""usage: qrlab [-h]
             {CHOICES}
             ...
"""
TOP_HELP = USAGE + f"""
Command-line front end: one subcommand per library operation, plus the batch
scan commands used by the acceptance checks.

positional arguments:
  {CHOICES}
    factorize           factor a nonzero integer
    vp                  p-adic valuation and unit part
    absval              normalized absolute value |x|_v
    norm-product        verify prod_v |x|_v = 1
    sqrtmod-prime       square root mod an odd prime
    sqrtmod-squarefree  smallest folded root mod squarefree b
    legendre            Legendre symbol
    lambda4             sign character mod 4
    lambda8             sign character mod 8
    gauss-lemma         Legendre symbol by counting sign flips
    lattice             lattice point counts below/above the diagonal
    reciprocity         check the reciprocity law and supplements
    psi                 reciprocity-normalized character psi_a(n)
    chi                 quadratic character chi_a(x) of conductor dividing
                        4|a|
    char-basis          basis of quadratic characters mod m
    group-product       product of all units mod m
    binomial-prime      primality via binomial coefficients
    arith               p-adic ring arithmetic
    hensel              Hensel-lift a root of an integer polynomial
    sqrt                p-adic square root
    teichmuller         Teichmuller representative of a mod p
    unit-decompose      split a unit as Teichmuller times one-unit
    vp-factorial        valuation and unit residue of n!
    sqrt-series         the 2-adic square root of 1+8x by its series
    digits              digit expansion of the unit part
    square-class        canonical square-class representative in Q_p
    hilbert             Hilbert symbol (a,b)_v
    witness             explicit local solution of ax^2+by^2=1
    is-norm             is a a norm from Q_v(sqrt b)?
    correspondence      quadratic extensions of Q_p and their norm characters
    solve               rational point on ax^2+by^2=1 or the obstruction
    descent-step        one Legendre descent step on a solution triple
    ternary             nonzero integer zero of ax^2+by^2+cz^2
    global-norm         is a a norm from Q(sqrt b)?
    bernoulli           exact Bernoulli number B_k
    von-staudt          the integer B_k + sum 1/l over (l-1) | k
    power-sum           0^k + ... + (n-1)^k via Bernoulli numbers
    frac-part           p-adic fractional part <x>_p
    conductor           conductor exponent of a local character
    root-number         local root number W_v(chi)
    root-product        product of root numbers attached to Q(sqrt d)
    bost                lambda_p(2012) for the Mersenne prime p = 2^43112609 -
                        1
    scan-reciprocity    check reciprocity for all odd p,q < bound
    scan-product-formula
                        product formula on random rational pairs
    scan-vonstaudt      integrality of W_k for even k up to the bound

options:
  -h, --help            show this help message and exit
"""


def _invalid_choice(choices):
    return USAGE + f"qrlab: error: argument command: invalid choice: 'nonsense' (choose from {choices})\n"


def test_top_level_help_and_errors_are_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"]) == 0
    assert capsys.readouterr().out == TOP_HELP
    assert run(["nonsense"]) == 2
    # newer argparse releases print the choices with str, not repr
    err = capsys.readouterr().err
    quoted = ", ".join(f"'{name}'" for name in COMMAND_NAMES)
    assert err in (_invalid_choice(quoted), _invalid_choice(", ".join(COMMAND_NAMES)))
    # an argument left over after a valid command is reported with the
    # top-level usage, which names every command
    assert run(["legendre", "2", "7", "extra"]) == 2
    assert capsys.readouterr().err == USAGE + "qrlab: error: unrecognized arguments: extra\n"
    assert run([]) == 2
    assert capsys.readouterr().err.startswith(USAGE)


def test_each_command_builds_and_helps_alone(capsys, monkeypatch):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda names: built.append(list(names)) or build(names))
    full = build(COMMAND_NAMES)
    assert tuple(cli._COMMANDS) == COMMAND_NAMES
    for name in COMMAND_NAMES:
        built.clear()
        assert run([name, "--help"]) == 0, name
        assert built == [[name]], name
        alone = capsys.readouterr().out
        with pytest.raises(SystemExit):
            full.parse_args([name, "--help"])
        assert alone == capsys.readouterr().out and alone.startswith(f"usage: qrlab {name} ")


def test_unknown_command_exits_2(capsys):
    assert invoke(capsys, "nonsense")[0] == 2


def test_help_exits_0(capsys):
    assert invoke(capsys, "--help")[0] == 0


# ---------------------------------------------------------------------------
# grammar coverage

def test_negative_rational_positionals(capsys):
    code, out, _ = invoke(capsys, "hilbert", "-1/3", "-1", "2")
    assert code == 0 and out in ("+1", "-1")
    assert out == f"{hilbert_symbol(-1, -3, 2):+d}"


def test_vp_zero_prints_infinity(capsys):
    code, out, _ = invoke(capsys, "vp", "0", "5")
    assert code == 0 and out == "valuation: infinity"


def test_digits_of_zero_json_prints_infinity(capsys):
    # the valuation of 0 used to reach json.dumps as INFINITY: exit 1
    for scheme in ("standard", "teichmuller"):
        code, out, _ = invoke(capsys, "digits", "0", "-p", "7", "--scheme", scheme, "--json")
        assert code == 0
        assert json.loads(out) == {"valuation": "infinity", "digits": [], "scheme": scheme}


def test_padic_textual_roundtrip(capsys):
    _, shown, _ = invoke(capsys, "arith", "add", "1/3", "4", "-p", "5", "--prec", "6")
    code, again, _ = invoke(capsys, "arith", "sub", shown, "4", "-p", "5")
    assert code == 0
    _, direct, _ = invoke(capsys, "arith", "mul", "1/3", "1", "-p", "5", "--prec", "6")
    assert again == direct


def test_hensel_command(capsys):
    code, out, _ = invoke(capsys, "hensel", "-17,0,1", "1", "-p", "2", "--prec", "4")
    assert code == 0
    assert out == "2^0 * (1 + 1*2^3) + O(2^4)"  # the root of T^2 - 17 above 1 is 9 mod 16


def test_witness_respects_symbol(capsys):
    code, out, _ = invoke(capsys, "witness", "2", "7", "7", "--prec", "8", "--json")
    assert code == 0 and json.loads(out)["witness"] is not None
    a, b, p = 2, 5, 5
    expected = hilbert_symbol(a, b, p)
    code, out, _ = invoke(capsys, "witness", str(a), str(b), str(p), "--json")
    assert (json.loads(out)["witness"] is not None) == (expected == 1)


def test_precision_below_one_digit_exits_2(capsys):
    # a finite-place witness checked to no digit is refused, as every
    # p-adic command refuses an element of no digit; the real place takes
    # no precision
    for prec in ("0", "-1", "-8", "-9"):
        for argv in (["witness", "2", "7", "7"], ["witness", "-6", "10", "2"],
                     ["sqrt", "2", "-p", "7"], ["hensel", "-17,0,1", "1", "-p", "2"],
                     ["arith", "add", "1/3", "2", "-p", "5"], ["teichmuller", "2", "5"],
                     ["unit-decompose", "2", "-p", "5"], ["digits", "1/3", "-p", "7"]):
            code, out, err = invoke(capsys, *argv, "--prec", prec)
            assert (code, out) == (2, ""), (argv, prec)
            assert err.startswith("error:"), (argv, prec)
        assert invoke(capsys, "witness", "2", "7", "inf", "--prec", prec)[:2] == (0, "x: 1/3\ny: 1/3")


def test_descent_step_golden(capsys):
    code, out, _ = invoke(capsys, "descent-step", "2", "7", "1", "3", "1", "1", "3", "forward")
    assert (code, out) == (0, "6, 7, 11")


def test_ternary_text(capsys):
    assert invoke(capsys, "ternary", "1", "1", "-2")[1] == "x = 1, y = 1, z = 1"
    code, out, _ = invoke(capsys, "ternary", "1", "1", "1")
    assert code == 0 and out == "none (definite at the real place)"
    code, out, _ = invoke(capsys, "ternary", "3", "5", "-7", "--json")
    assert json.loads(out) == {"solution": None, "reason": "residue"}


def test_global_norm_text(capsys):
    code, out, _ = invoke(capsys, "global-norm", "2", "7")
    assert code == 0 and out.startswith("true: z = ")
    code, out, _ = invoke(capsys, "global-norm", "5", "2", "--json")
    payload = json.loads(out)
    assert payload["is_norm"] is False and len(payload["places"]) >= 2


def test_root_number_format(capsys):
    code, out, _ = invoke(capsys, "root-number", "lambda_4")
    assert code == 0
    assert re.fullmatch(r"-?[0-9.e-]+[+-][0-9.e-]+·i", out)
    code, out, _ = invoke(capsys, "root-number", "sign", "-v", "inf", "--json")
    payload = json.loads(out)
    assert abs(payload["re"]) < 1e-12 and abs(payload["im"] + 1) < 1e-12


def test_root_product_command(capsys):
    code, out, _ = invoke(capsys, "root-product", "-2", "--json")
    payload = json.loads(out)
    assert abs(payload["re"] - 1) < 1e-6 and abs(payload["im"]) < 1e-6


def test_conductor_labels(capsys):
    assert invoke(capsys, "conductor", "nu_2*lambda_4")[1] == "2"
    assert invoke(capsys, "conductor", "lambda_8")[1] == "3"
    assert invoke(capsys, "conductor", "lambda_7")[1] == "1"
    assert invoke(capsys, "conductor", "nu_5")[1] == "0"
    assert invoke(capsys, "conductor", "1", "-p", "3")[1] == "0"


def test_repeated_character_tokens_multiply(capsys):
    # a character times itself is trivial: lambda_P tokens cancel in pairs
    # and nu_P counts by parity, while the place still comes from them
    assert invoke(capsys, "conductor", "lambda_3*lambda_3")[:2] == (0, "0")
    assert invoke(capsys, "conductor", "nu_3*nu_3")[:2] == (0, "0")
    assert invoke(capsys, "root-number", "1", "-v", "3")[:2] == (0, "1+0·i")
    assert invoke(capsys, "root-number", "lambda_3*lambda_3")[:2] == (0, "1+0·i")
    assert invoke(capsys, "conductor", "lambda_4*lambda_8*lambda_4")[:2] == (
        invoke(capsys, "conductor", "lambda_8")[:2]
    )
    assert invoke(capsys, "root-number", "nu_3*nu_3*lambda_3")[:2] == (
        invoke(capsys, "root-number", "lambda_3")[:2]
    )
    for argv in (["root-number", "lambda_3*lambda_3", "-v", "inf"],
                 ["conductor", "lambda_3*lambda_3*lambda_5"]):
        code, _, err = invoke(capsys, *argv)
        assert code == 2 and err.startswith("error:"), argv


def test_frac_part_textual_element(capsys):
    code, out, _ = invoke(capsys, "frac-part", "2^-2 * (1 + 1*2 + 1*2^2) + O(2^4)")
    assert (code, out) == (0, "3/4")
    assert invoke(capsys, "frac-part", "7/4", "-p", "2")[1] == "3/4"


def test_correspondence_rows(capsys):
    code, out, _ = invoke(capsys, "correspondence", "2", "--json")
    table = json.loads(out)["table"]
    assert len(table) == 7
    assert {"b": -1, "character": "lambda_4"} in table
    code, out, _ = invoke(capsys, "correspondence", "5", "--json")
    assert len(json.loads(out)["table"]) == 3


def test_symbol_vector_json_schema(capsys):
    code, out, _ = invoke(capsys, "hilbert", "-1", "-1", "--all", "--json")
    payload = json.loads(out)
    assert payload == {"support": [{"place": "inf", "sign": -1}, {"place": 2, "sign": -1}]}


def test_assorted_exact_outputs(capsys):
    assert invoke(capsys, "bernoulli", "12")[1] == "-691/2730"
    assert invoke(capsys, "von-staudt", "12")[1] == "1"
    assert invoke(capsys, "power-sum", "2", "4")[1] == "14"
    assert invoke(capsys, "absval", "12", "2")[1] == "1/4"
    assert invoke(capsys, "absval", "-3/2", "inf")[1] == "3/2"
    assert invoke(capsys, "norm-product", "-7/9")[1] == "true"
    assert invoke(capsys, "sqrtmod-prime", "2", "7")[1] in ("3", "4")
    assert invoke(capsys, "sqrtmod-squarefree", "2", "7")[1] == "3"
    assert invoke(capsys, "sqrtmod-prime", "3", "7")[1] == "none"
    assert invoke(capsys, "lattice", "3", "5")[1] == "M: 1\nN: 1"
    assert invoke(capsys, "reciprocity", "13", "17")[1] == "true"
    assert invoke(capsys, "binomial-prime", "561")[1] == "false"
    assert invoke(capsys, "group-product", "8")[1] == "+1"
    assert invoke(capsys, "group-product", "4")[1] == "-1"
    assert invoke(capsys, "square-class", "18", "-p", "3")[1] == "2"
    assert invoke(capsys, "char-basis", "15")[1] == "lambda_3\nlambda_5"
    assert invoke(capsys, "is-norm", "2", "7", "7")[1] == "true"
    assert invoke(capsys, "vp-factorial", "10", "3")[1] == "valuation: 4\nunit: 1"
    assert invoke(capsys, "teichmuller", "1", "7")[1] == "7^0 * (1) + O(7^32)"
    assert invoke(capsys, "digits", "7", "-p", "2", "--prec", "5")[1] == "1 1 1 0 0"
