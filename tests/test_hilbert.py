"""Hilbert symbols at all places: closed forms against brute-force local
solvability, the product formula, witnesses, and the norm/character tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sign_at, slow_hilbert
from qrlab.hilbert import (
    SymbolVector,
    hilbert_symbol,
    hilbert_vector,
    is_local_norm,
    local_solve_witness,
)
from qrlab.rational import INF_PLACE, Place
from qrlab.symbols import ext_char_correspondence, lambda4, lambda8, legendre

SQUARE_CLASSES = {
    2: [1, 5, -1, -5, 2, 10, -2, -10],
    3: [1, -1, 3, -3],
    5: [1, 2, 5, 10],
    7: [1, 3, 7, 21],
}

nonzero_rationals = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6), max_denominator=10 ** 6
).filter(lambda x: x != 0)


# ---------------------------------------------------------------------------
# closed forms

def test_case_table():
    # the five-row case table over distinct odd primes p, q
    for p, q in ((3, 5), (7, 11), (13, 17), (3, 19)):
        pp, qq = (p - 1) // 2, (q - 1) // 2
        assert hilbert_symbol(p, q, "inf") == 1
        assert hilbert_symbol(p, q, 2) == (-1) ** (pp * qq)
        assert hilbert_symbol(p, q, p) == legendre(q, p)
        assert hilbert_symbol(p, q, q) == legendre(p, q)
        assert hilbert_symbol(p, 2, 2) == lambda8(p)
        assert hilbert_symbol(p, 2, p) == legendre(2, p)
        assert hilbert_symbol(p, -1, p) == lambda4(p)
        assert hilbert_symbol(p, -1, 2) == lambda4(p)
        assert hilbert_symbol(2, -1, 2) == 1
        assert hilbert_symbol(2, -1, "inf") == 1
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 7) == 1


def test_special_values():
    assert hilbert_symbol(5, 2, 2) == -1
    for u, bp in ((3, 10), (2, 21)):
        p = 5 if bp == 10 else 7
        assert hilbert_symbol(u, bp, p) == legendre(u, p)
    # (p, p)_p = lambda_4(p)
    for p in (3, 5, 7, 11, 13):
        assert hilbert_symbol(p, p, p) == lambda4(p)


def test_symbol_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 5)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 0, "inf")


def test_symbol_matches_brute_force_solvability():
    values = [1, 2, 3, 5, 6, 10, -1, -2, -3, -5, 15, 30]
    for p in (0, 2, 3, 5):
        place = "inf" if p == 0 else p
        for a in values:
            for b in values:
                if a <= b:
                    assert hilbert_symbol(a, b, place) == slow_hilbert(a, b, p), (
                        a,
                        b,
                        p,
                    )


def test_symbol_matches_brute_force_at_7():
    for a, b in [(3, 7), (3, -7), (7, 7), (5, 14), (-1, 7), (2, 35), (21, 14)]:
        assert hilbert_symbol(a, b, 7) == slow_hilbert(a, b, 7), (a, b)


@settings(max_examples=200)
@given(nonzero_rationals, nonzero_rationals, st.sampled_from(["inf", 2, 3, 5, 7]))
def test_symmetry_and_square_invariance(a, b, v):
    assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
    assert hilbert_symbol(a * 9, b, v) == hilbert_symbol(a, b, v)
    assert hilbert_symbol(a, b * Fraction(1, 4), v) == hilbert_symbol(a, b, v)


@settings(max_examples=150)
@given(
    nonzero_rationals, nonzero_rationals, nonzero_rationals,
    st.sampled_from(["inf", 2, 3, 5]),
)
def test_bilinearity(a, b, c, v):
    assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(
        a, c, v
    )


@settings(max_examples=150)
@given(nonzero_rationals, st.sampled_from(["inf", 2, 3, 5, 7]))
def test_minus_a_and_one_minus_a(a, v):
    assert hilbert_symbol(a, -a, v) == 1
    if a != 1:
        assert hilbert_symbol(a, 1 - a, v) == 1


@settings(max_examples=100)
@given(
    st.integers(min_value=-50, max_value=50).filter(lambda n: n != 0),
    st.integers(min_value=-50, max_value=50).filter(lambda n: n != 0),
    st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0),
    st.sampled_from(["inf", 2, 3, 5, 7, 11]),
)
def test_shift_identity(r, b, c, v):
    # r^2 - a = b c forces (a, b)_v = (a, c)_v
    a = r * r - b * c
    if a == 0:
        return
    assert hilbert_symbol(a, b, v) == hilbert_symbol(a, c, v)


# ---------------------------------------------------------------------------
# Gram matrices of the local pairing

def test_gram_matrix_p2():
    basis = [5, -1, 2]
    want = [[1, 1, -1], [1, -1, 1], [-1, 1, 1]]
    got = [[hilbert_symbol(a, b, 2) for b in basis] for a in basis]
    assert got == want


def test_gram_matrix_odd_p():
    # on basis {u, p}: [[1, -1], [-1, lambda_4(p)]]
    from qrlab.symbols import smallest_nonresidue

    for p in (3, 5, 7, 11, 13):
        u = smallest_nonresidue(p)
        got = [
            [hilbert_symbol(u, u, p), hilbert_symbol(u, p, p)],
            [hilbert_symbol(p, u, p), hilbert_symbol(p, p, p)],
        ]
        assert got == [[1, -1], [-1, lambda4(p)]], p
        # F_2 determinant of the eps-matrix is 1: the pairing is invertible
        e = [[(1 - s) // 2 for s in row] for row in got]
        assert (e[0][0] * e[1][1] - e[0][1] * e[1][0]) % 2 == 1


# ---------------------------------------------------------------------------
# symbol vectors

def test_vector_minus_one_minus_one():
    v = hilbert_vector(-1, -1)
    assert v.support == (INF_PLACE, Place.finite(2))
    assert sign_at(v, "inf") == -1 and sign_at(v, 2) == -1 and sign_at(v, 3) == 1
    assert len(v.minus_places) % 2 == 0


def test_vector_trivial():
    assert hilbert_vector(1, Fraction(-35, 11)).support == ()


def test_vector_odd_prime_pair():
    v = hilbert_vector(3, 5)
    assert sign_at(v, 2) == (-1) ** (1 * 2) == 1
    assert sign_at(v, 3) == legendre(5, 3)
    assert sign_at(v, 5) == legendre(3, 5)


def test_vector_rejects_odd_support():
    with pytest.raises(ValueError):
        SymbolVector(frozenset({INF_PLACE}))


def test_vector_json_roundtrip():
    v = hilbert_vector(-1, -1)
    j = v.to_json()
    assert j == {"support": [{"place": "inf", "sign": -1}, {"place": 2, "sign": -1}]}
    # the places read back from the JSON are the support
    assert {Place.parse(str(e["place"])) for e in j["support"]} == v.minus_places
    assert hilbert_vector(1, 1).to_json() == {"support": []}


@settings(max_examples=300)
@given(nonzero_rationals, nonzero_rationals)
def test_product_formula(a, b):
    assert len(hilbert_vector(a, b).minus_places) % 2 == 0


@settings(max_examples=100)
@given(nonzero_rationals, nonzero_rationals)
def test_missing_place_recoverable(a, b):
    # the sign at any place is determined by all the others
    v = hilbert_vector(a, b)
    for w in v.support:
        others = [s for s in v.support if s != w]
        assert (-1) ** len(others) == sign_at(v, w) * 1


# ---------------------------------------------------------------------------
# witnesses

def test_witness_square_coefficient():
    # a is a square: the witness is (1/sqrt(a), 0) with a 5-adic sqrt
    w = local_solve_witness(Fraction(9, 4), 7, 5)
    assert w.y == 0
    assert w.verify(Fraction(9, 4), 7)
    err = Fraction(9, 4) * w.x ** 2 - 1
    assert err == 0 or (err.numerator % 5 ** 32 == 0 and err.denominator % 5 != 0)


def test_witness_2_7_at_7():
    w = local_solve_witness(2, 7, 7)
    assert w is not None
    err = 2 * w.x ** 2 + 7 * w.y ** 2 - 1
    assert err == 0 or err.numerator % 7 ** 32 == 0


def test_witness_absent():
    assert local_solve_witness(-1, -1, 2) is None
    assert local_solve_witness(-1, -1, "inf") is None
    assert local_solve_witness(5, 2, 2) is None


def test_witness_all_square_classes():
    for p, classes in SQUARE_CLASSES.items():
        for a in classes:
            for b in classes:
                w = local_solve_witness(a, b, p)
                assert (w is not None) == (hilbert_symbol(a, b, p) == 1), (a, b, p)
                if w is not None:
                    assert w.verify(a, b), (a, b, p)


def test_witness_precision_32():
    w = local_solve_witness(6, -15, 5, precision=32)
    if w is not None:
        err = 6 * w.x ** 2 - 15 * w.y ** 2 - 1
        assert err == 0 or (err.numerator % 5 ** 32 == 0 and err.denominator % 5 != 0)


def test_witness_infinite_place():
    w = local_solve_witness(4, -3, "inf")
    assert not w.approximate and w.verify(4, -3)
    w = local_solve_witness(-3, 4, "inf")
    assert not w.approximate and w.verify(-3, 4)
    # 2 x^2 + 3 y^2 = 1 has no rational point (fails at 3): float fallback
    w = local_solve_witness(2, 3, "inf")
    assert w.approximate and w.verify(2, 3)
    assert local_solve_witness(-2, -5, "inf") is None


@pytest.mark.parametrize(
    "a, b",
    [
        (3 * 10**400, -1),
        (Fraction(3, 10**400), -1),
        (-1, 3 * 10**400),
        (-1, Fraction(3, 10**400)),
        (Fraction(10**300 + 1, 3 * 10**600), -7),
    ],
)
def test_witness_infinite_place_beyond_float_range(a, b):
    # no small rational point (a sum of two squares is never 3 times a
    # nonzero square), so these reach the approximate fallback, whose
    # root must not pass through a float
    w = local_solve_witness(a, b, "inf")
    assert w.approximate and w.verify(a, b)


def test_witness_exact_small_point():
    # 3 x^2 - 2 y^2 = 1 has the point (1, 1)
    w = local_solve_witness(3, -2, "inf")
    assert not w.approximate
    assert 3 * w.x ** 2 - 2 * w.y ** 2 == 1


@settings(max_examples=120, deadline=None)
@given(
    st.fractions(
        min_value=Fraction(-200), max_value=Fraction(200), max_denominator=60
    ).filter(lambda x: x != 0),
    st.fractions(
        min_value=Fraction(-200), max_value=Fraction(200), max_denominator=60
    ).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_witness_iff_symbol(a, b, p):
    w = local_solve_witness(a, b, p, precision=20)
    assert (w is not None) == (hilbert_symbol(a, b, p) == 1)
    if w is not None:
        assert w.verify(a, b)


def test_witness_reads_int_and_fraction_inputs_alike():
    # a and b are read as given: an int and its Fraction give one witness,
    # in Fractions, on every branch of the case table, with a and b
    # p^(+-2) n and p^(+-1) n (so v_p(b) = -1 too), and at the real place
    def as_given(x):
        return int(x) if x.denominator == 1 else x

    real = [Fraction(s * n, d) for s in (1, -1) for n, d in ((1, 1), (2, 1), (3, 1), (9, 4))]
    for v in (2, 3, 5, 7, "inf"):
        values = real if v == "inf" else sorted(
            {s * n * Fraction(v) ** e for n in range(1, 8) for s in (1, -1) for e in range(-2, 3)}
        )
        for a in values:
            for b in values:
                w = local_solve_witness(a, b, v)
                w_given = local_solve_witness(as_given(a), as_given(b), v)
                assert w == w_given, (a, b, v)
                if w is not None:
                    assert type(w_given.x) is type(w_given.y) is Fraction, (a, b, v)


# ---------------------------------------------------------------------------
# norms and the character correspondence

def test_is_local_norm_examples():
    assert is_local_norm(7, 9, 7)  # b is a square
    assert is_local_norm(7, 9, "inf")
    assert not is_local_norm(5, 2, 2)


@settings(max_examples=200)
@given(nonzero_rationals, nonzero_rationals, st.sampled_from(["inf", 2, 3, 5, 7]))
def test_norm_iff_witness(a, b, v):
    assert is_local_norm(a, b, v) == (local_solve_witness(a, b, v, 8) is not None)


def test_correspondence_tables():
    t3 = ext_char_correspondence(3)
    assert [b for b, _ in t3] == [2, -3, -6]  # u = 2 is the least non-residue
    nu = t3[0][1]
    assert nu.place.prime == 3 and nu.r == 1 and not nu.quad.factors
    t2 = ext_char_correspondence(2)
    assert [b for b, _ in t2] == [5, -1, -5, 2, 10, -2, -10]
    assert t2[3][1].quad.factors == frozenset({8})
    assert t2[1][1].quad.factors == frozenset({4})


def test_correspondence_defining_property():
    for p in (2, 3, 5, 7, 11):
        for b, chi in ext_char_correspondence(p):
            for a in [x for x in range(-24, 25) if x] + [
                Fraction(1, 2),
                Fraction(-3, 4),
                Fraction(5, 9),
            ]:
                assert chi.value(a) == hilbert_symbol(a, b, p), (p, b, a)
                assert is_local_norm(a, b, p) == (chi.value(a) == 1)


def test_correspondence_characters_distinct_and_nontrivial():
    for p in (2, 3, 5):
        table = ext_char_correspondence(p)
        probes = [Fraction(x) for x in range(1, 50) if x % p] + [Fraction(p), Fraction(2 * p + p * p)]
        seen = set()
        for _, chi in table:
            vals = tuple(chi.value(a) for a in probes)
            assert any(s == -1 for s in vals)
            seen.add(vals)
        assert len(seen) == len(table)
