"""Tests of the benchmark's own code: the tail rule, the input generators,
the oracles behind the output checks, and the span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import pytest  # noqa: E402

import measure  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from qrlab import conic, hilbert  # noqa: E402


# ---------------------------------------------------------------------------
# the tail-percentile rule


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(15, 50.0, 7), (20, 50.0, 10), (99, 50.0, 49), (100, 90.0, 10), (999, 90.0, 99),
     (1000, 99.0, 10), (10_000, 99.9, 10), (25_000, 99.9, 25)],
)
def test_tail_takes_highest_rung_with_ten_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    q, value, got_beyond = measure.tail_percentile(samples)
    assert (q, got_beyond) == (percentile, beyond)
    assert value == n - beyond  # nearest rank: exactly `beyond` samples exceed it


def test_tail_counts_infinite_latency_of_failed_ops():
    q, value, beyond = measure.tail_percentile([1.0] * 95 + [float("inf")] * 5)
    assert (q, value, beyond) == (90.0, 1.0, 10)
    assert measure.tail_percentile([1.0] * 80 + [float("inf")] * 20)[1] == float("inf")


def test_windowed_tail_takes_the_median_window():
    # three windows of 1000 ops whose p99 (10 beyond) are 10, 20 and 30
    lat = []
    for high in (10.0, 20.0, 30.0):
        lat += [1.0] * 989 + [high] + [1000.0] * 10
    assert measure.windowed_tail(lat, 1000) == (99.0, 20.0, 3, 1000, 10)
    # a run shorter than one window is one window
    assert measure.windowed_tail([1.0] * 150, 1000)[2:] == (1, 150, 15)


def test_timed_run_spreads_the_probes_over_the_run():
    wl = workloads.WORKLOADS["product-formula"]
    rows = wl.draw(1, 4)
    checker = measure.Checker(wl, 0)
    calls = []

    def probe():
        calls.append(len(calls))
        return 0.5

    latencies, rounds, samples, refs = measure.timed_run(wl, lambda args: (), rows, 0.05, checker, probe, 5)
    assert samples == [0.5] * 5 and calls == list(range(5))
    assert len(refs) == len(rounds) and min(refs) > 0
    assert len(latencies) == wl.round_ops * len(rounds) and len(rounds) >= 5
    # every op failed its check: each counts as attempted and failed, with infinite latency
    assert checker.attempted == checker.failed == len(latencies)
    assert set(latencies) == {float("inf")}


def _steady_table(first, last, better="lower"):
    bench = {"run_seconds": 1, "end_to_end": [
        {"name": "m", "unit": "s", "better": better, "bound": 0.25}]}
    sets = [[{"metrics": {"m": {"value": v}}} for v in values] for values in (first, last)]
    return steady.report(bench, "w", sets)


def test_steady_flags_spread_and_drift_in_either_direction():
    assert _steady_table([1.0] * 4, [1.1] * 4)
    assert not _steady_table([1.0] * 4, [1.3] * 4)  # worse
    assert not _steady_table([1.0] * 4, [0.7] * 4)  # better, but the sets disagree
    assert not _steady_table([1.0] * 4, [0.7] * 4, better="higher")
    assert not _steady_table([0.6, 0.8, 1.2, 1.4], [1.0] * 4)  # spread 0.55


# ---------------------------------------------------------------------------
# the generators


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_determined_by_the_seed(name):
    wl = workloads.WORKLOADS[name]
    for stream in ("timed", "warmup"):
        first = wl.draw(7, 12, stream)
        assert first == wl.draw(7, 12, stream)
        assert first != wl.draw(8, 12, stream)
    assert wl.draw(7, 12, "timed") != wl.draw(7, 12, "warmup")
    # a longer run sees the same first inputs
    longer = wl.draw(7, 200)
    assert all(wl.args(longer, i) == wl.args(wl.draw(7, 12), i) for i in range(12))


def test_conic_filter_keeps_only_solvable_pairs():
    wl = workloads.WORKLOADS["conic-descent"]
    rows = wl.draw(3, 40)
    for i in range(wl.count(rows)):
        a, b = wl.args(rows, i)
        assert abs(a) != abs(b) and oracle.is_prime(abs(a)) and oracle.is_prime(abs(b))
        assert 2**19 <= abs(a) < 2**48 and 2**19 <= abs(b) < 2**48
        assert not hilbert.hilbert_vector(a, b).minus_places


def test_conic_criterion_is_exact_both_ways():
    rng = random.Random(5)
    primes = [oracle.next_prime(rng.randrange(2**19, 2**24)) for _ in range(40)]
    kept = rejected = 0
    for _ in range(120):
        p, q = rng.sample(primes, 2)
        if p == q:
            continue
        a, b = rng.choice((-1, 1)) * p, rng.choice((-1, 1)) * q
        solvable = not hilbert.hilbert_vector(a, b).minus_places
        assert oracle.conic_solvable(a, b) == solvable
        kept += solvable
        rejected += not solvable
    assert kept and rejected


# ---------------------------------------------------------------------------
# the oracles and checks


def test_oracle_hilbert_symbol_agrees_with_qrlab():
    rng = random.Random(11)
    for _ in range(300):
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))
        for p in (0, 2, 3, 5, 7, 1009):
            assert oracle.hilbert_symbol(a, b, p) == hilbert.hilbert_symbol(a, b, "inf" if p == 0 else p)


def test_jacobi_matches_euler_criterion():
    for p in (3, 5, 7, 1009, 1013):
        for a in range(-30, 30):
            if a % p:
                euler = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
                assert oracle.jacobi(a, p) == euler


@pytest.mark.parametrize("name", ["product-formula", "local-witness", "conic-descent"])
def test_checks_accept_qrlab_and_reject_a_wrong_answer(name):
    wl = workloads.WORKLOADS[name]
    op = wl.bind()
    rows = wl.draw(2, 30)
    wrong = {
        "product-formula": lambda out: out[1:] if out else (hilbert.INF_PLACE, hilbert.Place.finite(2)),
        "local-witness": lambda out: None if out is not None else hilbert.LocalWitness(
            hilbert.INF_PLACE, Fraction(1), Fraction(1), 128),
        "conic-descent": lambda out: conic.ConicCertificate(out.a, out.b, "solution",
                                                            x=out.x + 1, y=out.y),
    }[name]
    for i in range(wl.count(rows)):
        args = wl.args(rows, i)
        out = op(args)
        assert wl.check(args, out)
        assert not wl.check(args, wrong(out))


def test_cli_expectations_match_the_cli_in_process():
    wl = workloads.WORKLOADS["cli-oneshot"]
    op = wl.bind_inprocess()
    commands = wl.draw(4, 0)
    assert [c[0][0] for c in commands[:6]] == list(workloads.CLI_MIX)
    for args in commands:
        code, out = op(args)
        assert wl.check(args, (code, out)), (args, out)
        assert not wl.check(args, (2, out))
        assert not wl.check(args, (code, out + "x\n"))


def test_one_cold_cli_call():
    wl = workloads.WORKLOADS["cli-oneshot"]
    args = wl.draw(4, 0)[0]
    assert wl.check(args, wl.bind()(args))


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_a_synthetic_span_tree():
    # op [0,100] > hilbert_vector [10,50] > factorize [20,30]; op > hilbert_vector [60,70]
    hv, fz = spans.NAMES.index("hilbert.hilbert_vector"), spans.NAMES.index("rational.factorize")
    tree = [(0, 0, 100, -1, 0), (hv, 10, 50, 0, 0), (fz, 20, 30, 1, 0), (hv, 60, 70, 0, 0)]
    calls, self_ns = spans.self_times(tree)
    assert (calls[0], calls[hv], calls[fz]) == (1, 2, 1)
    assert (self_ns[0], self_ns[hv], self_ns[fz]) == (50, 40, 10)
    m = spans.layer_metrics(tree, [], n_ops=2)
    assert m["hilbert.hilbert_vector.calls_per_op"] == 1.0
    assert m["hilbert.hilbert_vector.self_ms_per_op"] == 20 / 1e6
    assert m["hilbert.self_share"] == 0.4 and m["rational.self_share"] == 0.1
    assert m["conic.descent_depth_max"] == 0.0


def test_tracer_patches_every_binding_and_restores_them():
    from qrlab import rational, symbols

    originals = (conic.factorize, rational.factorize, symbols.is_probable_prime)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert conic.factorize is rational.factorize is not originals[1]
        assert symbols.is_probable_prime is rational.is_probable_prime is not originals[2]
        tracer.run_op(0, lambda args: conic.solve_conic(*args), (2, 7))
    finally:
        tracer.uninstall()
    assert (conic.factorize, rational.factorize, symbols.is_probable_prime) == originals
    names = {spans.NAMES[s[0]] for s in tracer.spans}
    assert {"op", "conic.solve_conic", "hilbert.hilbert_vector", "rational.factorize"} <= names
    assert all(s[4] == 0 for s in tracer.spans)
    assert tracer.depths and spans.self_times(tracer.spans)[0][0] == 1
