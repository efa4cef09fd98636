"""Run workloads repeatedly and show how steady each metric is.

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workload conic-descent --runs 5
    python3 perfbench/steady.py --sets 2             # run the seeds twice, compare medians
    python3 perfbench/steady.py --trace --runs 2     # traced runs, twice per seed
    python3 perfbench/steady.py --record             # store the output checksums

Run from the repository root.  Each run is `run.py` exactly as
BENCHMARK.json's command gives it, with seeds first-seed, first-seed+1, ...
For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (interquartile
distance over the median) against the metric's bound, and with --sets 2 how
much worse the second set's median is than the first's (negative: better).
A spread above the bound, or a second median that moved by more than the
bound either way, is flagged and fails the command.  Traced runs go twice
per seed and every count metric must repeat exactly.  Outputs whose
checksums differ between two runs of one seed are reported as failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_SUFFIXES = ("calls_per_op", "descent_depth_mean", "descent_depth_max")


def run_once(bench: dict, workload: str, seed: int, trace: bool) -> tuple[dict, list[str]]:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def _checksum(notes: list[str]) -> str:
    """The hex digest from run.py's line `checksum sha256:<hex> over ...`."""
    return next(line.split()[1].split(":")[1] for line in notes if line.startswith("checksum "))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def report(bench: dict, workload: str, sets: list[list[dict]]) -> bool:
    """Print the table for one workload; True if every check held."""
    ok = True
    print(f"\n{workload}: {len(sets)} set(s) of {len(sets[0])} runs, {bench['run_seconds']} s each")
    print(f"  {'metric':14s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s}"
          f" {'spread':>7s} {'bound':>6s} {'drift':>7s}")
    for spec in bench["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        stats = [_quartiles([r["metrics"][name]["value"] for r in results]) for results in sets]
        spreads = [(q3 - q1) / med if med else float("inf") for q1, med, q3 in stats]
        first, last = stats[0][1], stats[-1][1]
        # signed: how much worse the last set's median is than the first's
        worse = last / first - 1 if spec["better"] == "lower" else 1 - last / first
        flag = ""
        if max(spreads) > bound:
            flag += " SPREAD>BOUND"
        if abs(last / first - 1) > bound:  # either way: the sets disagree
            flag += " DRIFT>BOUND"
        ok &= not flag
        drift = f"{worse:+7.3f}" if len(sets) > 1 else ""
        q1, med, q3 = stats[-1]
        print(f"  {name:14s} {spec['unit']:6s} {med:11.5g} {q1:11.5g} {q3:11.5g}"
              f" {max(spreads):7.3f} {bound:6.2f} {drift:>7s}{flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, help="times each seed is run")
    parser.add_argument("--trace", action="store_true", help="traced runs, twice per seed")
    parser.add_argument("--record", action="store_true", help="write checksums.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    path = os.path.join(HERE, "checksums.json")
    recorded = {}
    if os.path.exists(path):
        with open(path) as f:
            recorded = json.load(f)
    ok = True
    for workload in names:
        sets, checksums = [], {}
        for _ in range(2 if args.trace else args.sets):
            results = []
            for seed in seeds:
                result, notes = run_once(bench, workload, seed, args.trace)
                print(f"  {workload} seed {seed}: " + "; ".join(
                    line for line in notes if line.startswith(("op_tail_ms", "checksum"))))
                if not result["correct"]:
                    print(f"  {workload} seed {seed}: INCORRECT ({result['failed']} failed)")
                    ok = False
                digest = _checksum(notes)
                if checksums.setdefault(seed, digest) != digest:
                    print(f"  {workload} seed {seed}: CHECKSUM CHANGED between runs")
                    ok = False
                results.append(result)
            sets.append(results)
        if not args.trace:
            recorded.setdefault(workload, {}).update({str(s): c for s, c in checksums.items()})
            ok &= report(bench, workload, sets)
            continue
        for name in sets[0][0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            exact = name.endswith(EXACT_SUFFIXES)
            if exact and a != b:
                print(f"  {name}: NOT REPEATED {a} vs {b}")
                ok = False
            print(f"  {name:52s} {statistics.median(a + b):11.5g}{' (exact)' if exact else ''}")
    if args.record:
        with open(path, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    print("\nall checks held" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
