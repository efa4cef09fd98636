"""The four workloads: how each draws its inputs from a seed, runs one
operation through qrlab's public functions, and checks the result.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Operations reach qrlab through module
attributes looked up at call time (`hilbert.hilbert_vector`, never a name
bound at import), so the tracer's wrappers see every call.

This module imports no qrlab module at import time: a setup probe must be
able to draw its inputs before it starts timing qrlab's import.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WITNESS_PRIMES = (2, 3, 5, 7, 11, 13, 1009, 1013)
WITNESS_PRECISION = 128

# Warm-up ops and set-up probes draw from this seed whatever --seed is, so
# that setup_s times the same work in every run.
WARMUP_SEED = 0


def _rng(seed: int, stream: str) -> random.Random:
    # string seeds hash with SHA-512, so streams are independent of each
    # other and of PYTHONHASHSEED
    return random.Random(f"{stream}/{seed}")


def _signed_rational(rng: random.Random, height: int) -> tuple[int, int]:
    return rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height)


def _prime_of_bits(rng: random.Random, lo: int, hi: int) -> int:
    bits = rng.randint(lo, hi)
    while True:
        p = oracle.next_prime(rng.randrange(1 << (bits - 1), 1 << bits))
        if p < 1 << bits:
            return p


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _qrlab(name: str):
    return importlib.import_module(f"qrlab.{name}")


class Workload:
    """One workload.  Subclasses define the input rows and the operation.

    Rows are tuples of `stride` ints packed into one flat array of
    `typecode`, so that tens of thousands of pre-drawn inputs add little to
    the process's RSS.  A run draws a fixed `pool_ops` rows, whatever
    --seconds is, so the harness's share of peak_rss_mb is a constant.
    """

    name = ""
    stride = 1
    typecode = "i"
    pool_ops = 1  # rows drawn for a timed run: more than today's qrlab gets through
    round_ops = 1  # ops timed between two rounds of checking
    tail_window = 1000  # ops per window of the tail percentile
    warmup_ops = 1
    trace_ops = 1  # fixed op count of a traced run, so its counts repeat
    checksum_ops = 1  # the checksum covers this many leading ops

    def draw_row(self, rng: random.Random) -> tuple[int, ...]:
        raise NotImplementedError

    def draw(self, seed: int, count: int, stream: str = "timed") -> array:
        rng = _rng(seed, f"{self.name}/{stream}")
        rows = array(self.typecode)
        for _ in range(count):
            rows.extend(self.draw_row(rng))
        return rows

    def count(self, rows) -> int:
        return len(rows) // self.stride

    def args(self, rows, i: int):
        """Turn row i into the operation's arguments (not timed)."""
        return tuple(rows[i * self.stride : (i + 1) * self.stride])

    def bind(self):
        """Import the workload's qrlab modules; return the operation."""
        raise NotImplementedError

    def check(self, args, out) -> bool:
        raise NotImplementedError

    def digest(self, args, out) -> str:
        raise NotImplementedError


class ProductFormula(Workload):
    """hilbert_vector on random rational pairs of height <= 10^6."""

    name = "product-formula"
    stride = 4
    pool_ops = 50_000  # ~1300 ops/s, 2000 in the machine's fast phases
    round_ops = 100
    warmup_ops = 200
    trace_ops = 1000
    checksum_ops = 2000

    def draw_row(self, rng):
        return (*_signed_rational(rng, 10**6), *_signed_rational(rng, 10**6))

    def args(self, rows, i):
        an, ad, bn, bd = super().args(rows, i)
        return Fraction(an, ad), Fraction(bn, bd)

    def bind(self):
        hilbert = _qrlab("hilbert")

        def op(args):
            return hilbert.hilbert_vector(*args).support

        return op

    def check(self, args, out):
        got = tuple(0 if v.is_infinite else v.prime for v in out)
        return got == oracle.minus_support(*args)

    def digest(self, args, out):
        return " ".join(str(v) for v in out)


class ConicDescent(Workload):
    """solve_conic on distinct signed 20-48-bit primes that pass Legendre's
    criterion, so every op runs a full descent."""

    name = "conic-descent"
    stride = 2
    typecode = "q"
    pool_ops = 5_000  # ~140 ops/s
    round_ops = 10
    # A run's p99 (~3800 ops, ~38 beyond) is set by the few hardest inputs
    # of the seed: over two sets of seeds 1-10 it spread 0.18 and 0.27.  In
    # windows of 400 ops the rule lands on p90, the hard inputs that need
    # rho, which move with the seed far less.
    tail_window = 400
    warmup_ops = 20
    trace_ops = 200
    checksum_ops = 300

    def draw(self, seed, count, stream="timed"):
        # Pairs come in blocks of 64, each from a fresh pool of 32 primes, so
        # a prime serves about four pairs (two fresh primes per kept pair
        # would cost ~1 ms a pair) and row i does not depend on count.
        rng = _rng(seed, f"{self.name}/{stream}")
        rows = array(self.typecode)
        while len(rows) < 2 * count:
            pool = [_prime_of_bits(rng, 20, 48) for _ in range(32)]
            kept = 0
            while kept < 64:
                p, q = rng.sample(pool, 2)
                a, b = rng.choice((-1, 1)) * p, rng.choice((-1, 1)) * q
                if p != q and oracle.conic_solvable(a, b):
                    rows.extend((a, b))
                    kept += 1
        return rows[: 2 * count]

    def bind(self):
        conic = _qrlab("conic")

        def op(args):
            return conic.solve_conic(*args)

        return op

    def check(self, args, out):
        a, b = args
        if out.outcome != "solution":
            return False
        x, y = Fraction(out.x), Fraction(out.y)
        return a * x * x + b * y * y == 1

    def digest(self, args, out):
        return f"{out.x} {out.y}"


class LocalWitness(Workload):
    """local_solve_witness at 128 digits on rationals of height <= 10^4."""

    name = "local-witness"
    stride = 5
    typecode = "h"  # heights <= 10^4 and p <= 1013 fit in 16 bits
    pool_ops = 40_000  # ~1000 ops/s, 1500 in the machine's fast phases
    round_ops = 100
    warmup_ops = 200
    trace_ops = 1000
    checksum_ops = 2000

    def draw_row(self, rng):
        return (
            *_signed_rational(rng, 10**4),
            *_signed_rational(rng, 10**4),
            rng.choice(WITNESS_PRIMES),
        )

    def args(self, rows, i):
        an, ad, bn, bd, p = super().args(rows, i)
        return Fraction(an, ad), Fraction(bn, bd), p

    def bind(self):
        hilbert = _qrlab("hilbert")

        def op(args):
            a, b, p = args
            return hilbert.local_solve_witness(a, b, p, precision=WITNESS_PRECISION)

        return op

    def check(self, args, out):
        return _witness_ok(*args, WITNESS_PRECISION, None if out is None else (out.x, out.y))

    def digest(self, args, out):
        return "none" if out is None else f"{out.x} {out.y}"


def _witness_ok(a: Fraction, b: Fraction, p: int, precision: int, point) -> bool:
    """None exactly when (a, b)_p = -1; otherwise a x^2 + b y^2 = 1 to
    `precision` p-adic digits."""
    if point is None:
        return oracle.hilbert_symbol(a, b, p) == -1
    x, y = point
    v = oracle.rational_valuation(a * x * x + b * y * y - 1, p)
    return v is None or v >= precision


# ---------------------------------------------------------------------------
# the CLI workload

CLI_MIX = ("legendre", "hilbert", "solve", "witness", "sqrt", "factorize")
CLI_VARIANTS = 8  # argument sets per command; the mix cycles through them
SQRT_PRECISION = 64
CLI_WITNESS_PRECISION = 32  # the CLI's default --prec


def _cli_command(kind: str, rng: random.Random) -> tuple[list[str], tuple]:
    """(argv after `qrlab`, expectation) for one command of the mix."""
    if kind == "legendre":
        p = oracle.next_prime(rng.randint(3, 10**6))
        a = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        if a % p == 0:
            a += 1
        return ["legendre", str(a), str(p)], ("text", f"{oracle.jacobi(a, p):+d}\n")
    if kind == "hilbert":
        a, b = (Fraction(*_signed_rational(rng, 10**6)) for _ in range(2))
        body = ", ".join(f"{'inf' if v == 0 else v}: -1" for v in oracle.minus_support(a, b))
        return ["hilbert", _fraction_text(a), _fraction_text(b), "--all"], ("text", "{" + body + "}\n")
    if kind == "solve":
        a, b = ConicDescent().draw(rng.randrange(2**32), 1)
        return ["solve", str(a), str(b)], ("solve", Fraction(a), Fraction(b))
    if kind == "witness":
        a, b = (Fraction(*_signed_rational(rng, 10**4)) for _ in range(2))
        p = rng.choice(WITNESS_PRIMES)
        return ["witness", _fraction_text(a), _fraction_text(b), str(p)], ("witness", a, b, p)
    if kind == "sqrt":
        p = rng.choice([q for q in WITNESS_PRIMES if q != 2])
        x = Fraction(*_signed_rational(rng, 100)) ** 2
        argv = ["sqrt", _fraction_text(x), "-p", str(p), "--prec", str(SQRT_PRECISION)]
        return argv, ("text", oracle.padic_sqrt_text(x, p, SQRT_PRECISION) + "\n")
    if kind == "factorize":
        n = oracle.next_prime(rng.randint(10**12, 10**13 - 10**6))
        return ["factorize", str(n)], ("text", f"sign: 1\n{n}^1\n")
    raise ValueError(kind)


def _rational_field(line: str, prefix: str) -> Fraction:
    if not line.startswith(prefix):
        raise ValueError(line)
    return Fraction(line[len(prefix) :])


def cli_output_ok(expect: tuple, code: int, stdout: str) -> bool:
    """Exit 0 and either the exact expected stdout or, for commands whose
    point is the algorithm's choice, a point that satisfies the equation."""
    if code != 0:
        return False
    kind = expect[0]
    if kind == "text":
        return stdout == expect[1]
    lines = stdout.splitlines()
    try:
        if kind == "solve":
            _, a, b = expect
            if len(lines) != 1 or not lines[0].startswith("solution: x = "):
                return False
            xs, ys = lines[0][len("solution: x = ") :].split(", y = ")
            x, y = Fraction(xs), Fraction(ys)
            return a * x * x + b * y * y == 1
        _, a, b, p = expect
        if lines == ["none"]:
            return _witness_ok(a, b, p, 0, None)
        if len(lines) != 2:
            return False
        x, y = _rational_field(lines[0], "x: "), _rational_field(lines[1], "y: ")
        return _witness_ok(a, b, p, CLI_WITNESS_PRECISION, (x, y))
    except ValueError:
        return False


def run_child(argv: list[str], timeout: float = 60.0) -> tuple[int, str, str]:
    """Run `python -S <argv>` with qrlab on the path; (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-S", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=ROOT,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


class CliOneshot(Workload):
    """One cold `python -S -m qrlab.cli <cmd>` child per op."""

    name = "cli-oneshot"
    round_ops = len(CLI_MIX)
    tail_window = 100
    warmup_ops = len(CLI_MIX)
    trace_ops = 4 * len(CLI_MIX)
    checksum_ops = 2 * len(CLI_MIX)

    def draw(self, seed, count, stream="timed"):
        """The whole mix, CLI_VARIANTS cycles of it, whatever the count:
        ops go round it again and again."""
        rng = _rng(seed, f"{self.name}/{stream}")
        return [_cli_command(kind, rng) for _ in range(CLI_VARIANTS) for kind in CLI_MIX]

    def count(self, rows):
        return len(rows)

    def args(self, rows, i):
        return rows[i]

    def bind(self):
        def op(args):
            code, out, _ = run_child(["-m", "qrlab.cli", *args[0]])
            return code, out

        return op

    def bind_inprocess(self):
        """The same op as an in-process `cli.run(argv)` call (traced runs)."""
        cli = _qrlab("cli")

        def op(args):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(args[0])
            return code, buf.getvalue()

        return op

    def check(self, args, out):
        return cli_output_ok(args[1], out[0], out[1])

    def digest(self, args, out):
        return f"{out[0]} {out[1]}"


WORKLOADS = {w.name: w for w in (ProductFormula(), ConicDescent(), LocalWitness(), CliOneshot())}
