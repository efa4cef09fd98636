"""Command-line surface: golden outputs, JSON schemas, exit codes, scan
report formats, and the argument grammar (negative rationals, places,
textual p-adic elements, character labels)."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrlab import analytic, cli
from qrlab.analytic import BERNOULLI_BOUND, ROOT_NUMBER_BOUND
from qrlab.cli import run
from qrlab.commands import scans
from qrlab.commands.analytic import _complex
from qrlab.hilbert import hilbert_symbol
from qrlab.padic import PADIC_BITS_BOUND, VP_FACTORIAL_BOUND
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


def test_hilbert_zero_input_has_one_message(capsys):
    # a zero coefficient is refused before the place is read, so a finite
    # place, the real place and --all say the same thing
    for argv in (("3", "0", "5"), ("0", "3", "2"), ("3", "0", "inf"), ("0", "3", "--all")):
        assert invoke(capsys, "hilbert", *argv) == (
            2, "", "error: inputs must be nonzero\n"), argv


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


def test_every_scan_runs_in_this_process_for_any_workers(capsys, monkeypatch):
    # --workers takes any int and changes nothing: no pool is built
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a scan started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for scan in (["scan-reciprocity", "60"], ["scan-vonstaudt", "40"],
                 ["scan-product-formula", "40", "500"]):
        for json_flag in ([], ["--json"]):
            solo = invoke(capsys, *scan, *json_flag)
            assert solo[0] == 0 and solo[2] == "", scan
            for workers in (-1, 0, 1, 2, 3, 1000, 10**30):
                argv = [*scan, "--workers", str(workers), *json_flag]
                assert invoke(capsys, *argv) == solo, argv


def test_scan_bounds_exit_2_before_any_list_is_built(capsys):
    for argv in (
        ["scan-reciprocity", str(scans.SCAN_PRIME_BOUND + 1)],
        ["scan-reciprocity", str(10**30)],
        ["scan-product-formula", str(scans.SCAN_PAIRS_BOUND + 1), "10"],
        ["scan-product-formula", str(10**30), "10"],
        ["scan-vonstaudt", str(10**30)],
    ):
        code, out, err = _timed(capsys, argv, 0.5)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "workload bound" in err, argv
    # criteria 1 and 3 stay within the bounds
    assert invoke(capsys, "scan-reciprocity", "1000")[:2] == (0, "167 primes, 13861 pairs, 0 failures")
    assert scans.SCAN_PAIRS_BOUND >= 10**4


def test_vp_factorial_and_sqrt_series_in_bounded_time(capsys):
    assert _timed(capsys, ["vp-factorial", "3000016", "3000017"], 1.0)[:2] == (
        0, "valuation: 0\nunit: 3000016")
    big = str(7 + 10**700 * 2**1024)
    small = invoke(capsys, "sqrt-series", "7", "--prec", str(PADIC_BITS_BOUND))
    assert _timed(capsys, ["sqrt-series", big, "--prec", str(PADIC_BITS_BOUND)], 1.0) == small


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
    # the seeded scans' rng is imported where it is used, so a one-shot
    # command does not pay for it, and no command builds a process pool
    watched = ("concurrent.futures", "multiprocessing", "random")
    assert not _loaded_after("import qrlab.cli", watched).intersection(watched)


LIBRARY = ("rational", "symbols", "padic", "hilbert", "conic", "analytic")
# shutil is what argparse's default help width costs: it brings bz2, lzma,
# zlib and fnmatch
SLOW_STDLIB = ("dataclasses", "typing", "inspect", "json", "shutil")


def _command_modules(handlers, *layers):
    """What a command loads: cli, the handler package and its one handler
    module, and rational with the other library layers it runs."""
    library = {f"qrlab.{name}" for name in ("rational", *layers)}
    return {"qrlab.cli", "qrlab.commands", f"qrlab.commands.{handlers}"} | library


def _imported_as_main(*argv):
    """Every module a cold `python -S -m qrlab.cli argv` imports, read from
    its -X importtime report, in which cli itself runs as __main__."""
    err = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "qrlab.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    ).stderr
    return {line.rsplit("|", 1)[-1].strip() for line in err.splitlines() if line.startswith("import time:")}


def test_a_command_loads_only_the_modules_it_runs():
    # import qrlab.cli compiles and runs cli and rational only, and none of
    # the slow standard modules; the library itself needs neither
    # dataclasses nor typing
    assert _loaded_after("import qrlab.cli", SLOW_STDLIB) == {"qrlab.cli", "qrlab.rational"}
    imports = "; ".join(f"import qrlab.{name}" for name in LIBRARY)
    loaded = _loaded_after(imports, SLOW_STDLIB)
    assert loaded == {f"qrlab.{name}" for name in LIBRARY}
    # the local witnesses' square roots are rational.unit_sqrt's, so the
    # Hilbert and conic layers need no p-adic elements; the Hilbert symbols
    # read signs, valuations and unit residues from rational, so they need
    # no qrlab.symbols either
    assert _loaded_after("import qrlab.hilbert", ()) == {"qrlab.rational", "qrlab.hilbert"}
    assert _loaded_after("import qrlab.conic", ()) == {"qrlab.rational", "qrlab.hilbert", "qrlab.conic"}
    # a command compiles the one handler module of its layer, and runs
    # only the layers it needs: legendre needs symbols alone, and prints
    # text without json; a witness checks the p-adic size bound in
    # rational, and the p-adic commands find the least non-residue there,
    # not in symbols; the analytic layer reads a local character from
    # symbols' closed form, <x>_p lives beside the p-adic elements, and the
    # extension/character table is symbols' own.  Each set's commands run
    # in one child.
    loads = (
        (_command_modules("rational"), [["factorize", "1018081"], ["vp", "12", "2"]]),
        (_command_modules("symbols", "symbols"),
         [["legendre", "2", "7"], ["correspondence", "7"]]),
        (_command_modules("hilbert", "hilbert"),
         [["hilbert", "-60/7", "-10", "--all"], ["is-norm", "2", "7", "7"],
          ["witness", "5/7", "3", "1013"], ["witness", "2", "3", "inf"]]),
        (_command_modules("conic", "hilbert", "conic"),
         [["solve", "3", "5"], ["ternary", "3", "5", "-7"], ["global-norm", "2", "-7"]]),
        (_command_modules("padic", "padic"),
         [["sqrt", "2", "-p", "7"], ["hensel", "-2,0,1", "3", "-p", "7"],
          ["digits", "1/3", "-p", "7"], ["frac-part", "1/2000", "-p", "5"],
          ["frac-part", "5^-2 * (1) + O(5^3)"]]),
        (_command_modules("analytic", "symbols", "analytic"),
         [["bernoulli", "4"], ["von-staudt", "12"], ["power-sum", "3", "10"],
          ["conductor", "lambda_4"], ["root-number", "lambda_4"], ["root-product", "-1"]]),
        (_command_modules("scans", "symbols", "analytic"), [["scan-vonstaudt", "20"]]),
        (_command_modules("scans", "symbols"), [["scan-reciprocity", "50"]]),
    )
    for modules, commands in loads:
        runs = "; ".join(f"cli.run({argv!r})" for argv in commands)
        assert _loaded_after(f"from qrlab import cli; {runs}", SLOW_STDLIB) == modules, commands
    # run as __main__, cli is not imported again by its handlers, and a
    # cold call of each command of the benchmark's mix loads no shutil
    mix = (["legendre", "2", "7"], ["hilbert", "-60/7", "-10", "--all"], ["solve", "3", "5"],
           ["witness", "5/7", "3", "1013"], ["sqrt", "2", "-p", "7"], ["factorize", "1018081"])
    for argv in mix:
        imported = _imported_as_main(*argv)
        handlers = f"qrlab.commands.{cli._COMMANDS[argv[0]][0]}"
        assert handlers in imported and not {"qrlab.cli", "shutil"} & imported, argv


def test_a_closed_stdout_exits_141_without_a_traceback():
    # the reader has gone before the child writes, as when `qrlab ... |
    # head -c 10` has read its fill: exit as a SIGPIPE death, silently
    for json_flag in ([], ["--json"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-S", "-m", "qrlab.cli",
                 "witness", "5/7", "3", "1013", "--prec", "102", *json_flag],
                env={**os.environ, "PYTHONPATH": SRC},
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        # nothing on stderr: no traceback, no "Exception ignored" line
        assert (child.returncode, child.stderr) == (141, ""), json_flag


def test_precision_names_are_one_object_across_modules():
    from qrlab import padic, rational

    assert padic.PrecisionLossError is rational.PrecisionLossError is cli.PrecisionLossError
    assert padic.DEFAULT_PRECISION == rational.DEFAULT_PRECISION == 32
    assert padic.PADIC_BITS_BOUND == rational.PADIC_BITS_BOUND == 1024
    assert padic.check_padic_size is rational.check_padic_size


def test_scans_import_what_they_run_in_a_fresh_process():
    # a fresh child has only cli and rational loaded: each scan imports the
    # modules it calls, and --workers 2 loads no process pool
    cases = (
        (["scan-reciprocity", "60", "--workers", "2"], "16 primes, 120 pairs, 0 failures"),
        (["scan-vonstaudt", "40", "--workers", "2"], "20 values, 0 failures"),
        (["scan-product-formula", "20", "100", "--workers", "2"], "20 pairs, 0 failures"),
    )
    for argv, report in cases:
        assert _child("-m", "qrlab.cli", *argv) == report + "\n", argv
    runs = "; ".join(f"cli.run({argv!r})" for argv, _ in cases)
    watched = ("concurrent.futures", "multiprocessing")
    assert not _loaded_after(f"from qrlab import cli; {runs}", watched).intersection(watched)


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


def _help_texts(capsys, parse):
    """The top-level help and every command's help, as parse prints them."""
    texts = []
    for argv in (["--help"], *([name, "--help"] for name in COMMAND_NAMES)):
        with contextlib.suppress(SystemExit):
            parse(argv)
        texts.append(capsys.readouterr().out)
    return texts


def test_help_width_is_argparses_own(capsys, monkeypatch):
    # the width is shutil.get_terminal_size's, less 2 as in argparse, read
    # without importing shutil: from COLUMNS if it is a positive int, else
    # from the terminal on sys.__stdout__ (a pty of 123 or of 0 columns
    # here), else 80
    import argparse
    import shutil

    monkeypatch.delenv("LINES", raising=False)
    terminals, leaders = [None], []
    if hasattr(os, "openpty"):
        import fcntl
        import struct
        import termios

        for columns in (123, 0):
            leader, follower = os.openpty()
            leaders.append(leader)
            fcntl.ioctl(follower, termios.TIOCSWINSZ, struct.pack("HHHH", 24, columns, 0, 0))
            assert os.get_terminal_size(follower).columns == columns
            terminals.append(open(follower, "w"))
    try:
        for columns in (None, "40", "200", "0", "junk"):
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            for terminal in terminals:
                with monkeypatch.context() as m:
                    if terminal is not None:
                        m.setattr(sys, "__stdout__", terminal)
                    want = shutil.get_terminal_size().columns - 2
                    assert cli._HelpFormatter("qrlab")._width == want, (columns, terminal)
            # every help prints byte for byte as with stock argparse
            texts = _help_texts(capsys, run)
            with monkeypatch.context() as stock:
                stock.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
                reference = cli._build_parser(COMMAND_NAMES)
            assert texts == _help_texts(capsys, reference.parse_args), columns
    finally:
        for terminal in terminals[1:]:
            terminal.close()
        for leader in leaders:
            os.close(leader)


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


def test_hensel_of_the_zero_polynomial_exits_2(capsys):
    # every x is a root of f = 0, so there is no one root to print
    for f in ("0", "0,0,0"):
        code, out, err = invoke(capsys, "hensel", f, "3", "-p", "7")
        assert (code, out) == (2, ""), f
        assert err.startswith("error: f = 0"), f


def test_hensel_of_a_nonzero_constant_exits_2(capsys):
    # a nonzero constant has no root at all, simple or not
    for argv in (["5", "0", "-p", "7"], ["1", "0", "-p", "2"], ["-3,0,0", "4", "-p", "3"]):
        code, out, err = invoke(capsys, "hensel", *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: f is a nonzero constant: it has no root\n", argv


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
    # the real place's values carry +0.0, never -0.0, in both forms
    cases = (
        (("root-number", "sign", "-v", "inf"), "0-1·i"),
        (("root-number", "sign", "-v", "inf", "--json"), '{"re": 0.0, "im": -1.0}'),
        (("root-number", "1", "-v", "inf"), "1+0·i"),
        (("root-number", "1", "-v", "inf", "--json"), '{"re": 1.0, "im": 0.0}'),
        (("root-number", "lambda_4", "--json"), '{"re": 1.2246467991473532e-16, "im": 1.0}'),
        (("root-product", "-1", "--json"), '{"re": 1.0, "im": -1.2246467991473532e-16}'),
    )
    for argv, want in cases:
        assert invoke(capsys, *argv)[:2] == (0, want), argv


def test_complex_value_formatting():
    for w, text in ((complex(1.0, 0.0), "1+0·i"), (complex(0.0, 1.0), "0+1·i"),
                    (complex(0.0, -1.0), "0-1·i")):
        assert _complex(w)[1] == [text]


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


# ---------------------------------------------------------------------------
# fuzzing the p-adic commands: every call answers or exits 2, never 1

_FUZZ_MODULI = st.sampled_from(
    [2, 3, 5, 7, 13, 1009, 1013] + [-7, -1, 0, 1, 4, 9, 15, 1001, 2**61]
).map(str)
_FUZZ_RATIONALS = st.one_of(
    st.builds(
        lambda n, base, e, d: f"{n * base**e}/{d}",  # d = 0 is malformed input
        st.integers(-60, 60), st.sampled_from([2, 3, 7, 1009]), st.integers(0, 6),
        st.integers(0, 60),
    ),
    st.builds(lambda r, d: f"{r * r}/{d * d}", st.integers(0, 10**4), st.integers(1, 60)),
)
_FUZZ_PRECISIONS = st.sampled_from([-1, 0, 1, 2, 3, 32, 128, PADIC_BITS_BOUND + 1])


def _fuzz_argv(command):
    """argv for one p-adic command, with or without --prec and --json."""
    return st.tuples(
        command, st.one_of(st.none(), _FUZZ_PRECISIONS), st.booleans()
    ).map(lambda t: t[0] + (["--prec", str(t[1])] if t[1] is not None else [])
          + (["--json"] if t[2] else []))


def _fuzz_poly(f: list[int], x0: int, p: int, root: bool) -> list[int]:
    """f, or with root set and p > 1, f shifted to vanish at x0 mod p, so
    that some seeds meet the Hensel hypothesis."""
    if root and p > 1:
        f = [f[0] - sum(c * x0**i for i, c in enumerate(f)) % p] + f[1:]
    return f


_FUZZ_COMMANDS = {
    "hensel": st.builds(
        lambda f, x0, p, root: ["hensel", ",".join(map(str, _fuzz_poly(f, x0, int(p), root))),
                                str(x0), "-p", p],
        st.lists(st.integers(-20, 20), min_size=1, max_size=5), st.integers(-100, 100),
        _FUZZ_MODULI, st.booleans()),
    "sqrt": st.builds(lambda x, p: ["sqrt", x, "-p", p], _FUZZ_RATIONALS, _FUZZ_MODULI),
    "witness": st.builds(lambda a, b, v: ["witness", a, b, v], _FUZZ_RATIONALS,
                         _FUZZ_RATIONALS, st.one_of(_FUZZ_MODULI, st.just("inf"))),
    "teichmuller": st.builds(lambda a, p: ["teichmuller", str(a), p],
                             st.one_of(st.integers(-3, 14), st.integers(-3, 1100)),
                             _FUZZ_MODULI),
    "digits": st.builds(lambda x, p, scheme: ["digits", x, "-p", p, "--scheme", scheme],
                        _FUZZ_RATIONALS, _FUZZ_MODULI,
                        st.sampled_from(["standard", "teichmuller"])),
    "unit-decompose": st.builds(lambda x, p: ["unit-decompose", x, "-p", p],
                                _FUZZ_RATIONALS, _FUZZ_MODULI),
    "arith": st.builds(lambda op, x, y, p: ["arith", op, x, y, "-p", p],
                       st.sampled_from(["add", "sub", "mul", "div"]), _FUZZ_RATIONALS,
                       _FUZZ_RATIONALS, _FUZZ_MODULI),
}


@pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
@settings(max_examples=120, deadline=2000)
@given(data=st.data())
def test_padic_commands_exit_0_or_2(command, data):
    _assert_exits_0_or_2(data.draw(_fuzz_argv(_FUZZ_COMMANDS[command])))


class _Hang(BaseException):
    """A fuzzed call that outlived _HANG_SECONDS.  Not an Exception, so that
    run cannot report it as an internal error (exit 1)."""


#: Wall-clock limit on one fuzzed call; Hypothesis checks its deadline only
#: after a call returns, so without this a hang stalls the suite.
_HANG_SECONDS = 5


def _assert_exits_0_or_2(argv):
    def hang(signum, frame):
        raise _Hang(f"{argv} ran past {_HANG_SECONDS} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, _HANG_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2), (argv, code, err.getvalue())


# ---------------------------------------------------------------------------
# fuzzing the conic and modular-root commands: every call answers or exits
# 2, never 1.  Numerators and denominators near 2^60 make the squarefree
# parts of a and b near 2^120, so the descent meets factorize's 2^96 bound.

_NEAR_2_60 = st.builds(lambda s, o: s * (2**60 + o), st.sampled_from([1, -1]),
                       st.integers(-2**12, 2**12))
_FUZZ_INTS = st.one_of(st.integers(-60, 60), _NEAR_2_60,
                       st.lists(st.sampled_from([-1, 2, 3, 5, 7, 11, 13, 1009, 1013]),
                                max_size=6).map(math.prod))
_FUZZ_CONIC_RATIONALS = st.builds(lambda n, d: Fraction(n) / d, _FUZZ_INTS,
                                  _FUZZ_INTS.filter(bool).map(abs))


def _fuzz_ratstr(x):
    return f"{x.numerator}/{x.denominator}"


def _solvable_pair(a, x, y):
    """a and b = (1 - a x^2) / y^2, so that (x, y) solves the conic and the
    descent runs; b = 0 is refused with exit 2.  With these heights the
    squarefree parts of a and b stay below 2^64, so every c of the descent
    is below 2^62 and rho splits it well within the deadline."""
    return [_fuzz_ratstr(a), _fuzz_ratstr((1 - a * x * x) / (y * y))]


def _frame_argv(b, y, s, direction):
    """A valid frame a = s^2 - b y^2, d^2 - a = b c, and the triple (1, y, s),
    which solves the S side; frames with a or c = 0 are refused with exit 2."""
    a = s * s - b * y * y
    d = s % abs(b)
    d = min(d, abs(b) - d)
    return [str(t) for t in (a, b, (d * d - a) // b, d, 1, y, s)] + [direction]


_DIRECTIONS = st.sampled_from(["forward", "backward"])
_CONIC_PAIRS = st.one_of(
    st.lists(_FUZZ_CONIC_RATIONALS.map(_fuzz_ratstr), min_size=2, max_size=2),
    st.builds(_solvable_pair,
              st.builds(Fraction, st.integers(-2**28, 2**28).filter(bool), st.integers(1, 2**28)),
              st.integers(-12, 12), st.integers(1, 12)),
)
_CONIC_COMMANDS = {
    "solve": _CONIC_PAIRS.map(lambda ab: ["solve"] + ab),
    "global-norm": _CONIC_PAIRS.map(lambda ab: ["global-norm"] + ab),
    "ternary": st.lists(_FUZZ_INTS.map(str), min_size=3, max_size=3).map(
        lambda abc: ["ternary"] + abc),
    "descent-step": st.one_of(
        st.builds(_frame_argv, _FUZZ_INTS.filter(bool), _FUZZ_INTS, _FUZZ_INTS, _DIRECTIONS),
        st.builds(lambda t, direction: [str(v) for v in t] + [direction],
                  st.lists(_FUZZ_INTS, min_size=7, max_size=7), _DIRECTIONS),
    ).map(lambda t: ["descent-step"] + t),
    "sqrtmod-squarefree": st.builds(lambda a, b: ["sqrtmod-squarefree", str(a), str(b)],
                                    _FUZZ_INTS, _FUZZ_INTS),
    "sqrtmod-prime": st.builds(lambda a, p: ["sqrtmod-prime", str(a), p],
                               _FUZZ_INTS, _FUZZ_MODULI),
}


@pytest.mark.parametrize("command", sorted(_CONIC_COMMANDS))
@settings(max_examples=120, deadline=2000)
@given(data=st.data())
def test_conic_commands_exit_0_or_2(command, data):
    json_flag = ["--json"] if data.draw(st.booleans()) else []
    _assert_exits_0_or_2(data.draw(_CONIC_COMMANDS[command]) + json_flag)


def test_descent_past_the_factor_bound_exits_2(capsys):
    # both inputs lie within 2^96, but the descent reaches a c past it
    start = time.perf_counter()
    code, out, err = invoke(capsys, "solve", "193", "870704899398907883/757073404951759891")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "workload bound" in err


def test_root_search_past_its_bound_exits_2(capsys):
    # b has 28 primes = 1 (mod 4), so -1 has two roots mod each and the
    # root search would form 2^27 sums
    start = time.perf_counter()
    code, out, err = invoke(capsys, "solve", "-1",
                            "2515181402329213060851342805/12933849520509643031428769797")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "root-search workload bound" in err


# ---------------------------------------------------------------------------
# fuzzing the arithmetic, symbol and local commands: every call answers or
# exits 2, never 1.  Rationals come from both fuzzes above, so heights near
# 2^60 reach rho; places and moduli include composites, 0, negatives and junk.

_FUZZ_ANY_RATIONALS = st.one_of(_FUZZ_RATIONALS, _FUZZ_CONIC_RATIONALS.map(_fuzz_ratstr),
                                st.sampled_from(["x", "1/0", "-0", "3/-4"]))
_FUZZ_PLACES = st.one_of(_FUZZ_MODULI, st.sampled_from(["inf", "infinity", "oo", "-inf", "x"]))


def _textual_element(p, v, digits, k):
    """p^v * (d0 + d1*p + d2*p^2 ...) + O(p^(v+k)), valid when p is prime,
    every digit lies in [0, p) and k exceeds the last digit's index."""
    terms = [f"{d}*{p}^{i}" if i > 1 else f"{d}*{p}" if i else str(d)
             for i, d in enumerate(digits)]
    return f"{p}^{v} * ({' + '.join(terms)}) + O({p}^{v + k})"


_FUZZ_ELEMENTS = st.one_of(
    _FUZZ_ANY_RATIONALS,
    st.builds(_textual_element, st.sampled_from([2, 3, 7, 15]), st.integers(-3, 3),
              st.lists(st.integers(0, 6), min_size=1, max_size=4), st.integers(0, 6)),
)
_ARITHMETIC_COMMANDS = {
    "factorize": st.one_of(_FUZZ_INTS.map(str), _FUZZ_ANY_RATIONALS).map(
        lambda n: ["factorize", n]),
    "vp": st.builds(lambda x, p: ["vp", x, p], _FUZZ_ANY_RATIONALS, _FUZZ_MODULI),
    "absval": st.builds(lambda x, v: ["absval", x, v], _FUZZ_ANY_RATIONALS, _FUZZ_PLACES),
    "norm-product": _FUZZ_ANY_RATIONALS.map(lambda x: ["norm-product", x]),
    "legendre": st.builds(lambda a, p: ["legendre", a, p], _FUZZ_ANY_RATIONALS, _FUZZ_MODULI),
    "lambda4": _FUZZ_ANY_RATIONALS.map(lambda a: ["lambda4", a]),
    "lambda8": _FUZZ_ANY_RATIONALS.map(lambda a: ["lambda8", a]),
    "hilbert": st.builds(lambda a, b, v: ["hilbert", a, b] + v, _FUZZ_ANY_RATIONALS,
                         _FUZZ_ANY_RATIONALS,
                         st.one_of(_FUZZ_PLACES.map(lambda v: [v]),
                                   st.sampled_from([[], ["--all"], ["7", "--all"]]))),
    "is-norm": st.builds(lambda a, b, v: ["is-norm", a, b, v], _FUZZ_ANY_RATIONALS,
                         _FUZZ_ANY_RATIONALS, _FUZZ_PLACES),
    "square-class": st.builds(lambda x, p: ["square-class", x] + p, _FUZZ_ELEMENTS,
                              st.one_of(st.just([]), _FUZZ_MODULI.map(lambda p: ["-p", p]))),
}


@pytest.mark.parametrize("command", sorted(_ARITHMETIC_COMMANDS))
@settings(max_examples=120, deadline=2000)
@given(data=st.data())
def test_arithmetic_commands_exit_0_or_2(command, data):
    json_flag = ["--json"] if data.draw(st.booleans()) else []
    _assert_exits_0_or_2(data.draw(_ARITHMETIC_COMMANDS[command]) + json_flag)


# ---------------------------------------------------------------------------
# fuzzing the commands behind a workload bound: every call answers or exits
# 2, never 1.  Each bound is drawn on both sides: p = 10000019, the least
# prime past 10^7, takes n = VP_FACTORIAL_BOUND and refuses the next n; the
# scans take their bounds and refuse one more.  Heights stay small where the
# count of pairs can reach its bound, and --workers takes any int.
# The analytic commands take k = BERNOULLI_BOUND and refuse the next k,
# scan-vonstaudt the next even k;
# power-sum prints 0^k + ... + (n-1)^k up to POWER_SUM_DIGITS_BOUND digits,
# which n = 10^1433 (k = 2) and n = 10^2149 (k = 1) reach and the next
# powers of ten pass; an O-term at 2^1024 or 7^364 is within
# PADIC_BITS_BOUND and one digit more is not; lambda_49999 is the largest
# Gauss sum within ROOT_NUMBER_BOUND and lambda_50021 the least past it.
# The accepted extremes cost the most (about 1 s for the first B_2000,
# 0.1 s for lambda_49999), so they are a few entries among many.

_MALFORMED = st.sampled_from(["x", "3/4", "1e3", "", "--"])
_BIG_INTS = st.sampled_from([10**40, -(10**40), 7 + 10**700 * 2**1024])
_FACTORIAL_PRIMES = st.one_of(_FUZZ_MODULI, st.sampled_from(["9999991", "10000019"]))
_WORKERS = st.one_of(st.just([]), st.sampled_from(["-1", "0", "1", "2", "1000"]).map(
    lambda w: ["--workers", w]))
_BOUNDED_COMMANDS = {
    "vp-factorial": st.builds(
        lambda n, p: ["vp-factorial", str(n), p],
        st.one_of(st.integers(-5, 3000), _BIG_INTS,
                  st.sampled_from([VP_FACTORIAL_BOUND, VP_FACTORIAL_BOUND + 1, 4999995])),
        _FACTORIAL_PRIMES),
    "sqrt-series": st.builds(
        lambda x, k: ["sqrt-series", str(x), "--prec", str(k)],
        st.one_of(st.integers(-100, 100), st.integers(-2**1100, 2**1100), _BIG_INTS),
        st.sampled_from([-1, 0, 2, 3, 32, PADIC_BITS_BOUND, PADIC_BITS_BOUND + 1])),
    "scan-reciprocity": st.builds(
        lambda n, w: ["scan-reciprocity", str(n)] + w,
        st.one_of(st.integers(-5, 200), st.sampled_from(
            [scans.SCAN_PRIME_BOUND, scans.SCAN_PRIME_BOUND + 1, 10**30])), _WORKERS),
    "scan-product-formula": st.builds(
        lambda count, height, w: ["scan-product-formula", str(count), str(height)] + w,
        st.one_of(st.integers(-2, 50), st.sampled_from(
            [scans.SCAN_PAIRS_BOUND, scans.SCAN_PAIRS_BOUND + 1, 10**30])),
        st.sampled_from([-1, 0, 1, 10, 1000, 10**40]), _WORKERS),
    "scan-vonstaudt": st.builds(
        lambda k, w: ["scan-vonstaudt", str(k)] + w,
        st.one_of(st.integers(-5, 200), st.sampled_from(
            [BERNOULLI_BOUND, BERNOULLI_BOUND + 1, BERNOULLI_BOUND + 2, 10**40])), _WORKERS),
}
_BERNOULLI_KS = st.one_of(
    st.integers(-5, 60).map(str), _MALFORMED,
    st.sampled_from([BERNOULLI_BOUND, BERNOULLI_BOUND + 1, BERNOULLI_BOUND + 2, 10**40]).map(str))
_POWER_SUM_NS = st.one_of(
    st.integers(-3, 200).map(str), _MALFORMED,
    st.sampled_from([10**1433, 10**1434, 10**2149, 10**2150, 10**4299, 10**40]).map(str))
_CHARACTERS = st.one_of(
    st.sampled_from(["sign", "1", "lambda_4", "lambda_8", "nu_2*lambda_4", "lambda_4*lambda_8",
                     "nu_3*lambda_3", "lambda_3*lambda_3", "nu_5", "lambda_1013",
                     "nu_1009*lambda_1009", "lambda_2", "lambda_15", "nu_0", "lambda_4*lambda_3",
                     "lambda_", "nu_-3", "1*1", "lambda_49999", "lambda_50021",
                     "nu_10000019", f"lambda_{2**61 - 1}"]),
    st.lists(st.sampled_from(["1", "nu_2", "nu_3", "nu_7", "lambda_3", "lambda_4", "lambda_8",
                              "lambda_7"]), max_size=4).map("*".join),
    _MALFORMED,
)
_FRAC_PART_ELEMENTS = st.builds(
    _textual_element, st.sampled_from([2, 3, 7, 15]),
    st.one_of(st.integers(-3, 3), st.just(-(10**9))),
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.one_of(st.integers(0, 6), st.sampled_from([PADIC_BITS_BOUND, 364])))
_OPTIONAL_P = st.one_of(st.just([]), _FUZZ_MODULI.map(lambda p: ["-p", p]))
_BOUNDED_COMMANDS.update({
    "bernoulli": _BERNOULLI_KS.map(lambda k: ["bernoulli", k]),
    "von-staudt": _BERNOULLI_KS.map(lambda k: ["von-staudt", k]),
    "power-sum": st.builds(lambda k, n: ["power-sum", k, n],
                           st.one_of(_BERNOULLI_KS, st.sampled_from(["0", "1", "2"])),
                           _POWER_SUM_NS),
    "frac-part": st.builds(lambda x, p: ["frac-part", x] + p,
                           st.one_of(_FUZZ_ANY_RATIONALS, _FRAC_PART_ELEMENTS), _OPTIONAL_P),
    "conductor": st.builds(lambda chi, p: ["conductor", chi] + p, _CHARACTERS, _OPTIONAL_P),
    "root-number": st.builds(
        lambda chi, v, gamma: ["root-number", chi] + v + gamma, _CHARACTERS,
        st.one_of(st.just([]), _FUZZ_PLACES.map(lambda v: ["-v", v])),
        st.one_of(st.just([]), st.one_of(
            st.sampled_from(["1", "2", "3", "8", "24", "7/5", "1/3", "-49999"]),
            _FUZZ_ANY_RATIONALS).map(lambda g: ["--gamma", g]))),
})


@pytest.mark.parametrize("command", sorted(_BOUNDED_COMMANDS))
@settings(max_examples=120, deadline=2000)
@given(data=st.data())
def test_bounded_commands_exit_0_or_2(command, data):
    json_flag = ["--json"] if data.draw(st.booleans()) else []
    _assert_exits_0_or_2(data.draw(_BOUNDED_COMMANDS[command]) + json_flag)


# ---------------------------------------------------------------------------
# fuzzing the character commands, each of which factors its integer: every
# call answers or exits 2, never 1.  root-product also draws d on both sides
# of ROOT_NUMBER_BOUND, which caps the sum of the primes of d: 49999 is the
# largest prime within it and 50021 the least past it.

_ROOT_PRODUCT_DS = st.one_of(_FUZZ_INTS, st.sampled_from(
    [49999, -49999, 2 * 49991, 50021, -2 * 49999, 3 * 5 * 49991]))
_CHARACTER_COMMANDS = {
    "psi": st.builds(lambda a, n: ["psi", str(a), n], _FUZZ_INTS, _FUZZ_ANY_RATIONALS),
    "chi": st.builds(lambda a, x: ["chi", str(a), str(x)], _FUZZ_INTS, _FUZZ_INTS),
    "char-basis": _FUZZ_INTS.map(lambda m: ["char-basis", str(m)]),
    "group-product": _FUZZ_INTS.map(lambda m: ["group-product", str(m)]),
    "root-product": _ROOT_PRODUCT_DS.map(lambda d: ["root-product", str(d)]),
}


@pytest.mark.parametrize("command", sorted(_CHARACTER_COMMANDS))
@settings(max_examples=120, deadline=2000)
@given(data=st.data())
def test_character_commands_exit_0_or_2(command, data):
    json_flag = ["--json"] if data.draw(st.booleans()) else []
    _assert_exits_0_or_2(data.draw(_CHARACTER_COMMANDS[command]) + json_flag)


# ---------------------------------------------------------------------------
# fuzzing the oracle and reciprocity commands: every call answers or exits 2,
# never 1.  The oracles take O(p), O(p q) and O(n^2) steps, so accepted
# inputs stay small (the accepted extremes are timed above); each workload
# bound is drawn on its refused side, by the least prime past it and by
# composites, and malformed text stands in for every argument.

_ORACLE_PRIMES = st.one_of(
    st.sampled_from([3, 5, 7, 13, 101, 103]).map(str), _FUZZ_MODULI, _MALFORMED)
_LATTICE_PAST = _next_prime(math.isqrt(LATTICE_BOUND))
_REFUSED = {
    "gauss-lemma": [GAUSS_LEMMA_BOUND + 1, _next_prime(GAUSS_LEMMA_BOUND), 10**40],
    "lattice": [_LATTICE_PAST, _next_prime(_LATTICE_PAST), LATTICE_BOUND, 10**40],
    "binomial-prime": [BINOMIAL_PRIMALITY_BOUND + 1, _next_prime(BINOMIAL_PRIMALITY_BOUND),
                       10**40],
}


def _oracle_args(command):
    """One argument of an oracle command: small, malformed, or past its bound."""
    return st.one_of(_ORACLE_PRIMES, st.sampled_from(_REFUSED[command]).map(str))


_ORACLE_COMMANDS = {
    "gauss-lemma": st.builds(lambda a, p: ["gauss-lemma", a, p],
                             st.one_of(_FUZZ_INTS.map(str), _MALFORMED),
                             _oracle_args("gauss-lemma")),
    "lattice": st.builds(lambda p, q: ["lattice", p, q],
                         _oracle_args("lattice"), _oracle_args("lattice")),
    "reciprocity": st.builds(lambda p, q: ["reciprocity", p, q],
                             st.one_of(_ORACLE_PRIMES, st.just(str(2**61 - 1))),
                             st.one_of(_ORACLE_PRIMES, st.just(str(2**89 - 1)))),
    "binomial-prime": st.one_of(st.integers(-5, 2000).map(str), _MALFORMED,
                                st.sampled_from(_REFUSED["binomial-prime"]).map(str)).map(
        lambda n: ["binomial-prime", n]),
    "correspondence": st.one_of(_ORACLE_PRIMES, st.just(str(2**61 - 1))).map(
        lambda p: ["correspondence", p]),
}


@pytest.mark.parametrize("command", sorted(_ORACLE_COMMANDS))
@settings(max_examples=120, deadline=2000)
@given(data=st.data())
def test_oracle_commands_exit_0_or_2(command, data):
    json_flag = ["--json"] if data.draw(st.booleans()) else []
    _assert_exits_0_or_2(data.draw(_ORACLE_COMMANDS[command]) + json_flag)
