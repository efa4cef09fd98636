"""Timing: the closed-loop timed run, the traced run, the set-up probes and
the statistics the metrics are made of."""

from __future__ import annotations

import functools
import gc
import hashlib
import math
import os
import resource
import statistics
import sys
import time
import traceback
from array import array
from fractions import Fraction

import workloads
from spans import Tracer, layer_metrics

SETUP_CHILDREN = 15
CLI_PROBES = 5
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10

# The machine's speed drifts by 15-25% over tens of seconds to minutes, and
# any pure-Python work slows down with qrlab's ops alike (probes: over 20 s
# windows of two 4-minute product-formula runs, op time spread 0.05-0.13
# between windows, op time over reference time 0.01-0.02).  So a fixed reference
# loop is timed after every round, and every time the benchmark reports is
# scaled from the run's mean reference time to this nominal one.
REFERENCE_S = 1.75e-3


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER that leaves at least MIN_BEYOND samples above it, by nearest
    rank.  With fewer than 2 * MIN_BEYOND samples no rung qualifies, and the
    median is returned with however many samples lie beyond it."""
    xs = sorted(samples)
    n = len(xs)

    def rank(q: float) -> int:  # exact: 99.9 / 100 * 10000 is 9990.000000000002
        return max(1, math.ceil(Fraction(str(q)) * n / 100))

    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - rank(q) >= MIN_BEYOND:
            chosen = q
    return chosen, xs[rank(chosen) - 1], n - rank(chosen)


def windowed_tail(latencies, window: int) -> tuple[float, float, int, int, int]:
    """The run cut into n // window equal consecutive windows (one if the run
    is shorter), tail_percentile taken in each, and the median over windows.

    Returns (percentile, median value, windows, ops per window, samples
    beyond the percentile in each window).  Windows of ~1000 ops keep the
    tail on the ops themselves: on this machine a whole run's p99.9 is set by
    the few dozen ops that a pause of the machine happens to hit.
    """
    k = max(1, len(latencies) // window)
    size = len(latencies) // k
    tails = [tail_percentile(latencies[j * size : (j + 1) * size]) for j in range(k)]
    return tails[0][0], statistics.median(t[1] for t in tails), k, size, tails[0][2]


def round_medians(latencies, round_ops: int) -> float:
    """The mean over the run's rounds of each round's median latency."""
    n = len(latencies) // round_ops
    return statistics.fmean(
        statistics.median(latencies[j * round_ops : (j + 1) * round_ops]) for j in range(n)
    )


class Checker:
    """Checks outputs and folds the first `limit` of them into a checksum."""

    def __init__(self, wl, limit: int):
        self.wl, self.limit = wl, limit
        self.sha = hashlib.sha256()
        self.summed = 0
        self.attempted = 0
        self.failed = 0

    def __call__(self, args, out) -> bool:
        self.attempted += 1
        ok = not isinstance(out, BaseException)
        if ok:
            try:
                ok = self.wl.check(args, out)
            except (ArithmeticError, ValueError, TypeError, AttributeError):
                ok = False
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"check failed: {self.wl.name} args={args!r} out={out!r}", file=sys.stderr)
        if self.summed < self.limit:
            self.sha.update((self.wl.digest(args, out) if ok else "FAILED").encode() + b"\n")
            self.summed += 1
        return ok


def reference_loop() -> int:
    """Fixed work that shares no code with qrlab: dict updates, int to str,
    a sort."""
    d = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + len(str(i))
    return sum(sorted((i * 7919) % 10007 for i in range(3000))) + len(d)


def time_reference() -> float:
    """One timing of reference_loop, with the collector off so that the size
    of qrlab's heap does not enter it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def slowdown(refs) -> float:
    """How much slower than nominal the machine ran: the mean reference time
    over REFERENCE_S.  Reported times are divided by it."""
    return statistics.fmean(refs) / REFERENCE_S


def _call(op, args):
    """op(args), or the exception it raised: a failing op is counted, not fatal."""
    try:
        return op(args)
    except Exception as e:  # noqa: BLE001 -- reported and counted as failed
        traceback.print_exc(file=sys.stderr)
        return e


def timed_run(wl, op, rows, seconds: float, checker: Checker, probe, probes: int):
    """Run ops back to back for `seconds` of wall time, in rounds of
    wl.round_ops ops; each round's outputs are checked after the round, off
    the clock.  Between rounds, `probes` calls of probe() are spread evenly
    over the run, outside its `seconds`, so that they meet the same speed
    phases of the machine as the ops.  After each round the reference loop
    is timed.  Returns (per-op latencies in s, per-round op time in s, probe
    results, reference times in s).

    A failed op's latency is recorded as infinity, so it misses every limit.
    """
    n = wl.count(rows)
    latencies = array("d")
    rounds = array("d")
    refs = array("d")
    samples = []
    clock = time.perf_counter
    time_reference()  # the first call is cold
    gc.collect()
    spent = 0.0
    i = 0
    while spent < seconds:
        if len(samples) < probes and spent >= len(samples) * seconds / probes:
            samples.append(probe())
        start = clock()
        done = []
        for _ in range(wl.round_ops):
            args = wl.args(rows, i % n)  # inputs cycle if the run outlasts them
            i += 1
            t0 = clock()
            out = _call(op, args)
            done.append((args, out, clock() - t0))
        rounds.append(sum(dt for _, _, dt in done))
        for args, out, dt in done:
            latencies.append(dt if checker(args, out) else math.inf)
        spent += clock() - start
        refs.append(time_reference())
    samples += [probe() for _ in range(probes - len(samples))]  # a run too short for all
    return latencies, rounds, samples, refs


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of the largest child it has waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up probes: fresh children timing import plus warm-up

def setup_probe(name: str) -> None:
    """Body of a set-up child: draw the warm-up inputs, then time importing
    the workload's qrlab modules and running the warm-up ops."""
    wl = workloads.WORKLOADS[name]
    rows = wl.draw(workloads.WARMUP_SEED, wl.warmup_ops, "warmup")
    t0 = time.perf_counter()
    op = wl.bind()
    for i in range(wl.warmup_ops):
        op(wl.args(rows, i))
    print(time.perf_counter() - t0)


def setup_child(name: str) -> float:
    """One fresh child's set-up time.  For cli-oneshot the child only
    imports qrlab.cli, which is the set-up every CLI call pays."""
    here = os.path.dirname(os.path.abspath(__file__))
    if name == "cli-oneshot":
        code = "import time; t = time.perf_counter(); import qrlab.cli; print(time.perf_counter() - t)"
    else:
        code = (
            f"import sys; sys.path.insert(0, {here!r}); import measure; "
            f"measure.setup_probe({name!r})"
        )
    rc, stdout, stderr = workloads.run_child(["-c", code])
    if rc != 0:
        raise RuntimeError(f"set-up child failed:\n{stderr}")
    return float(stdout)


# ---------------------------------------------------------------------------
# the CLI floor and import probes

def cli_probes() -> tuple[float, float]:
    """(median ms of `python -S -c pass`, median cumulative ms of importing
    qrlab.cli by -X importtime), CLI_PROBES children each."""
    interp, imports = [], []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        workloads.run_child(["-c", "pass"])
        interp.append((time.perf_counter() - t0) * 1e3)
        rc, _, err = workloads.run_child(["-X", "importtime", "-c", "import qrlab.cli"])
        if rc != 0:
            raise RuntimeError(f"import probe failed:\n{err}")
        for line in err.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "qrlab.cli":
                imports.append(int(fields[1]) / 1e3)
    return statistics.median(interp), statistics.median(imports)


# ---------------------------------------------------------------------------
# the traced run

def traced_run(wl, op, rows, checker: Checker, out_dir: str, tag: str) -> tuple[dict[str, float], float]:
    """The first wl.trace_ops inputs, each run once untraced and once traced,
    so that every count repeats exactly for a seed.  Untraced and traced
    blocks of wl.round_ops ops alternate, so a speed phase of the machine
    falls on both alike.  Spans go to out_dir.  Returns the per-layer
    metrics, times scaled to the reference speed, and the slowdown."""
    n = min(wl.trace_ops, wl.count(rows))
    tracer = Tracer()
    untraced = []
    traced_s = 0.0
    refs = []
    time_reference()  # the first call is cold
    gc.collect()
    for lo in range(0, n, wl.round_ops):
        block = range(lo, min(n, lo + wl.round_ops))
        for i in block:
            args = wl.args(rows, i)
            t0 = time.perf_counter()
            out = _call(op, args)
            untraced.append(time.perf_counter() - t0)
            checker(args, out)
        tracer.install()
        try:
            for i in block:
                args = wl.args(rows, i)
                t0 = time.perf_counter()
                out = _call(functools.partial(tracer.run_op, i, op), args)
                traced_s += time.perf_counter() - t0
                checker(args, out)
        finally:
            tracer.uninstall()
        refs.append(time_reference())
    metrics = layer_metrics(tracer.spans, tracer.depths, n)
    # ratio of op rates: untraced ops/s over traced ops/s
    metrics["trace.overhead_ratio"] = traced_s / sum(untraced)
    metrics["cli.run_ms"] = statistics.median(untraced) * 1e3 if wl.name == "cli-oneshot" else 0.0
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = cli_probes()
    refs.append(time_reference())
    speed = slowdown(refs)
    for name in metrics:
        if name.endswith(("_ms", "_ms_per_op")):
            metrics[name] /= speed
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{tag}.csv.gz"))
    return metrics, speed
