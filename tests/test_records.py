"""The contract of the library's immutable value classes, all built on
rational.Record: construction by position and by keyword with the same
defaults, equality and hashing by fields within one class, the
dataclass-format repr, immutability, pickle and copy round trips, each
field set once, and the validation each class runs on construction."""

import copy
import importlib
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from qrlab.conic import ConicCertificate, DescentFrame, NormCertificate
from qrlab.hilbert import LocalWitness, SymbolVector
from qrlab.padic import IntPolynomial, PAdicElement
from qrlab.rational import INF_PLACE, Factorization, Place, Prime, Record
from qrlab.symbols import LocalCharacter, MersenneCharacterResult, QuadraticCharacter

P3, P7 = Place("finite", 3), Place("finite", 7)
LAMBDA_3 = QuadraticCharacter(frozenset({3}))

# (class, positional fields, repr); each repr is what the frozen dataclass
# that the class replaced printed for the same fields
CASES = [
    (Factorization, (-1, ((2, 2), (3, 1))), "Factorization(sign=-1, factors=((2, 2), (3, 1)))"),
    (Place, ("finite", 7), "Place(kind='finite', prime=7)"),
    (
        QuadraticCharacter,
        (frozenset({3}),),
        "QuadraticCharacter(factors=frozenset({3}))",
    ),
    (
        MersenneCharacterResult,
        (43112609, 347, 92, 91, 412, -1, -1),
        "MersenneCharacterResult(exponent=43112609, exponent_residue=347, two_power_residue=92,"
        " p_residue=91, euler_argument=412, sign_euler=-1, sign_factored=-1)",
    ),
    (PAdicElement, (7, 1, 3, 4), "PAdicElement(prime=7, valuation=1, unit=3, precision=4)"),
    (IntPolynomial, ((-17, 0, 1),), "IntPolynomial(coefficients=(-17, 0, 1))"),
    (SymbolVector, (frozenset(),), "SymbolVector(minus_places=frozenset())"),
    (
        LocalWitness,
        (P7, Fraction(1, 3), Fraction(-2), 32, False),
        "LocalWitness(place=Place(kind='finite', prime=7), x=Fraction(1, 3), y=Fraction(-2, 1),"
        " precision=32, approximate=False)",
    ),
    (DescentFrame, (2, 7, 1, 3), "DescentFrame(a=2, b=7, c=1, d=3)"),
    (
        ConicCertificate,
        (Fraction(2), Fraction(7), "solution", Fraction(1, 3), Fraction(-1, 3), (), 1),
        "ConicCertificate(a=Fraction(2, 1), b=Fraction(7, 1), outcome='solution',"
        " x=Fraction(1, 3), y=Fraction(-1, 3), places=(), descent_depth=1)",
    ),
    (
        NormCertificate,
        (Fraction(-1), Fraction(3), False, None, None, (P3, INF_PLACE)),
        "NormCertificate(a=Fraction(-1, 1), b=Fraction(3, 1), is_norm=False, y=None, z=None,"
        " places=(Place(kind='finite', prime=3), Place(kind='archimedean', prime=None)))",
    ),
    (
        LocalCharacter,
        (P3, LAMBDA_3, 1),
        "LocalCharacter(place=Place(kind='finite', prime=3),"
        " quad=QuadraticCharacter(factors=frozenset({3})), r=1)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    library = {c for c in subclasses(Record) if c.__module__.startswith("qrlab.")}
    assert library == {cls for cls, _, _ in CASES}


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equal_fields_make_equal_records(cls, fields, text):
    x, y = cls(*fields), cls(**dict(zip(cls._fields, fields)))
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert tuple(getattr(x, name) for name in cls._fields) == fields


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, fields, text):
    class Other(cls):
        __slots__ = ()

    x, other = cls(*fields), Other(*fields)
    assert x != other and other != x and not x == other
    assert x != fields and x != fields[0]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_format(cls, fields, text):
    assert repr(cls(*fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_records_are_immutable(cls, fields, text):
    x = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == cls(*fields)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, text):
    x = cls(*fields)
    copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(x), copy.deepcopy(x)]
    for y in copies:
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_each_field_is_set_once(cls, fields, text, monkeypatch):
    # counted through the binding of rational._set, the one setter a
    # record's __init__ may use, in every module that defines a record
    counts = Counter()

    def counting(obj, name, value):
        if type(obj) is cls:
            counts[name] += 1
        object.__setattr__(obj, name, value)

    for module in {c.__module__ for c, _, _ in CASES}:
        monkeypatch.setattr(importlib.import_module(module), "_set", counting)
    cls(*fields)
    assert counts == Counter(cls._fields)


def test_an_unpickled_place_keeps_its_prime():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        place = pickle.loads(pickle.dumps(Place.finite(7), protocol))
        assert type(place.prime) is Prime and place == P7
    assert type(copy.deepcopy(PAdicElement(7, 0, 1, 2)).prime) is Prime


def test_defaults_are_kept():
    assert Place("archimedean") == Place("archimedean", None) == INF_PLACE
    assert LocalWitness(P7, Fraction(1), Fraction(0), 3).approximate is False
    cert = ConicCertificate(Fraction(2), Fraction(7), "solution")
    assert (cert.x, cert.y, cert.places, cert.descent_depth) == (None, None, (), 0)
    norm = NormCertificate(Fraction(2), Fraction(7), True)
    assert (norm.y, norm.z, norm.places) == (None, None, ())
    chi = LocalCharacter(P3)
    assert chi.quad == QuadraticCharacter(frozenset()) and chi.r == 0


def test_construction_normalizes_fields():
    assert type(Place.finite(7).prime) is Prime
    assert type(PAdicElement(7, 0, 1, 2).prime) is Prime
    assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert all(type(f) is Prime for f in QuadraticCharacter(frozenset({3, 7})).factors)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Factorization(2, ()),
        lambda: Factorization(1, ((3, 1), (2, 1))),
        lambda: Factorization(1, ((2, 0),)),
        lambda: Place("finite", 4),
        lambda: Place("archimedean", 3),
        lambda: Place("complex"),
        lambda: QuadraticCharacter(frozenset({9})),
        lambda: PAdicElement(7, 0, 7, 2),
        lambda: PAdicElement(7, 0, 1, 0),
        lambda: PAdicElement(6, 0, 1, 1),
        lambda: SymbolVector(frozenset({INF_PLACE})),
        lambda: DescentFrame(2, 7, 2, 3),  # d^2 - a = 7 != b c = 14
        lambda: DescentFrame(2, 7, 0, 3),
        lambda: DescentFrame(9, 7, 1, 4),  # 16 - 9 = 7 = b c, but d must be <= |b|/2
        lambda: LocalCharacter(INF_PLACE, r=2),
        lambda: LocalCharacter(INF_PLACE, LAMBDA_3),
        lambda: LocalCharacter(P7, LAMBDA_3),
        lambda: LocalCharacter(P3, QuadraticCharacter(frozenset({4}))),
        lambda: LocalCharacter(P3, r=2),
    ],
)
def test_bad_fields_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
