"""The batch scans used by the acceptance checks: each runs in the calling
process and reports its failures in input order, and imports the layer it
checks only when it runs."""

from fractions import Fraction

from qrlab import rational
from qrlab.commands import _int, _ratstr
from qrlab.rational import INF_PLACE, TWO_PLACE, Place

#: Largest max_prime of scan-reciprocity: its 28203 pairs take about 0.4 s.
SCAN_PRIME_BOUND = 1500

#: Most pairs of scan-product-formula: about 0.9 s at heights up to 10^6.
SCAN_PAIRS_BOUND = 10**4


def _h_scan_reciprocity(a):
    bound = _int(a.max_prime)
    if bound > SCAN_PRIME_BOUND:
        raise ValueError(f"max_prime = {bound} exceeds the scan workload bound {SCAN_PRIME_BOUND}")
    from qrlab import symbols
    primes = [p for p in range(3, bound) if rational.is_probable_prime(p)]
    pairs = [(p, q) for i, p in enumerate(primes) for q in primes[i + 1 :]]
    failures = [(p, q) for p, q in pairs if not symbols.reciprocity_check(p, q)]
    lines = [f"FAIL: p={p} q={q}" for p, q in failures]
    lines.append(f"{len(primes)} primes, {len(pairs)} pairs, {len(failures)} failures")
    payload = {
        "primes": len(primes),
        "pairs": len(pairs),
        "failures": [[p, q] for p, q in failures],
    }
    return (1 if failures else 0), lines, payload


def _h_scan_product_formula(a):
    count, bound = _int(a.count), _int(a.bound)
    if count < 1 or bound < 1:
        raise ValueError("count and bound must be positive")
    if count > SCAN_PAIRS_BOUND:
        raise ValueError(f"count = {count} exceeds the scan workload bound {SCAN_PAIRS_BOUND}")
    import random

    from qrlab import hilbert

    rng = random.Random(a.seed)

    def draw():
        n = rng.randint(1, bound) * rng.choice((1, -1))
        return Fraction(n, rng.randint(1, bound))

    pairs = [(draw(), draw()) for _ in range(count)]
    failures = []
    for x, y in pairs:
        places = {INF_PLACE, TWO_PLACE}
        for z in (x, y):
            _, exps = rational.rational_factor_exponents(z)
            places.update(Place.finite(p) for p, _ in exps)
        prod = 1
        for v in places:
            prod *= hilbert.hilbert_symbol(x, y, v)
        if prod != 1:
            failures.append((x, y))
    lines = [f"FAIL: a={_ratstr(x)} b={_ratstr(y)}" for x, y in failures]
    lines.append(f"{count} pairs, {len(failures)} failures")
    payload = {
        "pairs": count,
        "failures": [[_ratstr(x), _ratstr(y)] for x, y in failures],
    }
    return (1 if failures else 0), lines, payload


def _h_scan_vonstaudt(a):
    max_k = _int(a.max_k)
    from qrlab import analytic
    if max_k >= 2:
        # one pass fills the cache for every k, and refuses a k past
        # BERNOULLI_BOUND before the list is built
        analytic.bernoulli(max_k - max_k % 2)
    ks = list(range(2, max_k + 1, 2))
    failures = []
    for k in ks:
        try:
            analytic.von_staudt_W(k)
        except ArithmeticError:
            failures.append(k)
    lines = [f"FAIL: k={k}" for k in failures]
    lines.append(f"{len(ks)} values, {len(failures)} failures")
    return (1 if failures else 0), lines, {"values": len(ks), "failures": failures}
