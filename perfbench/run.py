"""Run one workload of the qrlab benchmark and print its metrics.

    python3 perfbench/run.py --workload product-formula --seed 1 --seconds 25 --trace 0

Run from the repository root.  With --trace 0 the run times ops for
--seconds and reports the end-to-end metrics; with --trace 1 it runs a
fixed number of ops untraced and traced, and reports the per-layer metrics
(span files go to .bench_out/).  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}, with the metric names and
units of BENCHMARK.json; the lines above it say what was measured, with
sample counts and the tail percentile.  Times are reported at the speed of
a fixed reference loop (see measure.REFERENCE_S); the lines above the JSON
also give them as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _expected_checksum(workload: str, seed: int):
    """The checksum recorded for an untraced run of this workload and seed."""
    with open(os.path.join(HERE, "checksums.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def _warm_up(wl, op):
    """Run the warm-up ops; returns their checker."""
    from workloads import WARMUP_SEED
    from measure import Checker, _call

    rows = wl.draw(WARMUP_SEED, wl.warmup_ops, "warmup")
    checker = Checker(wl, 0)
    for i in range(wl.warmup_ops):
        args = wl.args(rows, i)
        checker(args, _call(op, args))
    return checker


def untraced(wl, seed: int, seconds: float):
    from measure import (REFERENCE_S, SETUP_CHILDREN, Checker, peak_rss_mb, round_medians,
                         setup_child, slowdown, timed_run, windowed_tail)

    rows = wl.draw(seed, max(wl.checksum_ops, wl.pool_ops))
    harness_mb = peak_rss_mb(children=False)
    op = wl.bind()
    warm = _warm_up(wl, op)
    checker = Checker(wl, wl.checksum_ops)
    latencies, rounds, setups, refs = timed_run(
        wl, op, rows, seconds, checker, lambda: setup_child(wl.name), SETUP_CHILDREN
    )

    n = len(latencies)
    ok = n - checker.failed
    # The machine's speed drifts by 15-25% over tens of seconds to minutes,
    # so each figure averages over the whole run (throughput is total ops
    # over total op time, the median latency is averaged over the run's
    # rounds, the set-up children are spread over the run) and every time
    # is scaled to the reference loop's nominal speed.
    speed = slowdown(refs)
    p50 = round_medians(latencies, wl.round_ops) * 1e3
    q, tail, windows, size, beyond = windowed_tail(latencies, wl.tail_window)
    setup = statistics.median(setups)
    values = {
        "ops_per_s": ok / sum(rounds) * speed,
        "op_p50_ms": p50 / speed,
        "op_tail_ms": tail * 1e3 / speed,
        "setup_s": setup / speed,
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli-oneshot"),
        "success_rate": ok / n,
    }
    rss_note = "largest CLI child" if wl.name == "cli-oneshot" else (
        f"this process; {harness_mb:.4g} MB before qrlab was imported,"
        f" with {wl.count(rows)} inputs drawn")
    notes = [
        f"{wl.name} seed {seed}: {n} ops in {len(rounds)} rounds of {wl.round_ops},"
        f" closed loop, one caller, {sum(rounds):.2f} s of op time",
        f"speed        reference loop {statistics.fmean(refs) * 1e3:.4g} ms (mean of {len(refs)})"
        f" against {REFERENCE_S * 1e3:g} ms nominal: times below are the measured ones"
        f" divided by {speed:.4g}",
        f"ops_per_s    {values['ops_per_s']:.6g} 1/s ({ok} verified ops / op time;"
        f" {ok / sum(rounds):.6g} as measured)",
        f"op_p50_ms    {values['op_p50_ms']:.6g} ms (median of each round, mean over {len(rounds)}"
        f" rounds, n={n}; {p50:.6g} as measured)",
        f"op_tail_ms   {values['op_tail_ms']:.6g} ms (p{q:g} of each of {windows} windows of {size}"
        f" ops, {beyond} samples beyond in each, median over windows, n={n};"
        f" {tail * 1e3:.6g} as measured)",
        f"setup_s      {values['setup_s']:.6g} s (median of {len(setups)} fresh children spread over"
        f" the run, measured {min(setups):.4g}-{max(setups):.4g}, median {setup:.6g})",
        f"peak_rss_mb  {values['peak_rss_mb']:.6g} MB ({rss_note})",
        f"success_rate {ok / n:.6g} ({ok}/{n})",
        f"warm-up      {warm.attempted - warm.failed}/{warm.attempted} ops passed their check",
    ]
    return values, notes, checker, warm


def traced(wl, seed: int):
    from measure import Checker, traced_run

    rows = wl.draw(seed, wl.trace_ops)
    # the CLI's per-layer spans come from in-process cli.run calls
    op = wl.bind_inprocess() if wl.name == "cli-oneshot" else wl.bind()
    warm = _warm_up(wl, op)
    checker = Checker(wl, wl.checksum_ops)
    values, speed = traced_run(wl, op, rows, checker, os.path.join(ROOT, ".bench_out"), f"{wl.name}-{seed}")
    notes = [f"{wl.name} seed {seed}: {min(wl.trace_ops, wl.count(rows))} ops untraced, then traced;"
             f" times divided by the reference loop's slowdown {speed:.4g}"]
    notes += [f"{k} {v:.6g}" for k, v in sorted(values.items())]
    notes.append(f"warm-up {warm.attempted - warm.failed}/{warm.attempted} ops passed their check")
    return values, notes, checker, warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qrlab", "__init__.py")):
        print(f"error: no qrlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    # One CPU for this process and the children it starts: the two vCPUs of
    # the machine the baseline was taken on ran up to 15% apart at the same
    # moment, and the reference loop must time the CPU that the ops run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        values, notes, checker, warm = traced(wl, args.seed)
    else:
        values, notes, checker, warm = untraced(wl, args.seed, args.seconds)

    digest = checker.sha.hexdigest()
    notes.append(f"checksum sha256:{digest} over the first {checker.summed} ops")
    # attempted, failed and success_rate count the measured ops; a failed
    # warm-up op makes the run incorrect all the same
    correct = checker.failed == 0 and warm.failed == 0
    expected = None if args.trace else _expected_checksum(wl.name, args.seed)
    if expected and checker.summed == wl.checksum_ops and expected != digest:
        print(f"error: checksum {digest} differs from the recorded {expected}", file=sys.stderr)
        correct = False
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
