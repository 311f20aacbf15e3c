"""The value classes against dataclass twins.

Every frozen class of the package was a frozen dataclass.  Each test here
rebuilds it with ``dataclasses.make_dataclass`` from the old field list and
defaults, and checks that ``repr``, ``==`` and ``hash`` agree with the twin
on the same field values.
"""

import dataclasses
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from strictform._value import Value, _set
from strictform.arrays import (
    INDEPENDENT,
    INVERSE_LIMIT,
    ArrayWindow,
    Rectangle,
    lift_binary,
    shift,
)
from strictform.assemble import StitchKit
from strictform.generators import GeneratorSpec, LanguageOracle, parse_spec
from strictform.markers import (
    GapDecomposition,
    MarkerSystem,
    build_marker_system,
    decompose_gap,
)
from strictform.measures import (
    EmpiricalMeasure,
    TruncatedDistance,
    dstar,
    empirical_measure,
)
from strictform.purify import (
    LeafSpec,
    PurifyConfig,
    TargetFamily,
    config_from_dict,
)

from array_helpers import from_word
from assemble_helpers import PeriodSpec

F = Fraction
REQUIRED = dataclasses.MISSING

# the fields of each class as its dataclass declared them: (name, default)
OLD_FIELDS = {
    ArrayWindow: [
        ("sizes", REQUIRED), ("origin", REQUIRED), ("cells", REQUIRED),
        ("mode", INVERSE_LIMIT),
    ],
    Rectangle: [("cells", REQUIRED)],
    GapDecomposition: [("a", REQUIRED), ("b", REQUIRED), ("l", REQUIRED)],
    MarkerSystem: [
        ("starts", REQUIRED), ("lengths", REQUIRED), ("gaps", REQUIRED),
        ("lo", REQUIRED), ("hi", REQUIRED), ("balance_windows", None),
    ],
    EmpiricalMeasure: [("truncation", REQUIRED), ("dims", REQUIRED)],
    TruncatedDistance: [("value", REQUIRED), ("tail_bound", REQUIRED)],
    LanguageOracle: [
        ("alphabet", REQUIRED), ("horizon", REQUIRED), ("text", None),
    ],
    GeneratorSpec: [
        ("kind", REQUIRED), ("spec", REQUIRED), ("alpha", None), ("rho", F(0)),
        ("p", None), ("seed", 0), ("word_arg", ""), ("size", 0),
    ],
    PeriodSpec: [
        ("explicit_periods", REQUIRED), ("infinite_family", "none"),
        ("all_periodic", False),
    ],
    TargetFamily: [
        ("path", REQUIRED), ("members", REQUIRED), ("gamma", REQUIRED),
    ],
    LeafSpec: [("path", REQUIRED), ("target", REQUIRED), ("samples", REQUIRED)],
    PurifyConfig: [
        ("truncation", REQUIRED), ("gaps", REQUIRED), ("depths", REQUIRED),
        ("epsilons", REQUIRED), ("columns", REQUIRED), ("leaves", REQUIRED),
        ("gammas", None),
    ],
}


def twin(cls):
    fields = [
        (name, object, dataclasses.field(default=default))
        for name, default in OLD_FIELDS[cls]
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


TWINS = {cls: twin(cls) for cls in OLD_FIELDS}

CONFIG = {
    "truncation": [1, 2],
    "gaps": [3],
    "depths": [1],
    "epsilons": ["1/4"],
    "columns": 200,
    "tree": [
        {"target": "periodic:0", "samples": ["periodic:0"]},
        {"target": "periodic:1", "samples": ["bernoulli:1/2:seed=7"]},
    ],
}


def samples():
    """A few instances of every class, some with equal fields."""
    w = lift_binary("0110100", 3)
    r = Rectangle.from_rows([[1, 2], [1, 3]])
    m = empirical_measure(from_word("1211"), (1, 2))
    spec = parse_spec("periodic:01")
    config = config_from_dict(CONFIG)
    return {
        ArrayWindow: [
            w, shift(w, 2), ArrayWindow(w.sizes, w.origin, w.cells, INDEPENDENT),
            ArrayWindow((2, 3), 0, ((1, 2), (1, 3)), INDEPENDENT),
        ],
        Rectangle: [
            r, Rectangle.from_rows([[1, 2], [1, 2]]), from_word("12"),
            r.sub(1, 0, 1),
        ],
        GapDecomposition: [decompose_gap(100, 3), decompose_gap(7, 3)],
        MarkerSystem: [
            build_marker_system(703, 0, (3, 100)),
            MarkerSystem.from_positions(((0, 3, 7),), (3,), 0, 7),
            MarkerSystem.from_positions(((0, 3, 7),), (3,), 0, 7, (12,)),
            MarkerSystem.from_positions(((), (5,)), (3, 4), 0, 7),
        ],
        EmpiricalMeasure: [
            m, empirical_measure(from_word("1212"), (1, 2)),
        ],
        TruncatedDistance: [
            dstar(m, m, (1, 2)), TruncatedDistance(F(1, 3), F(1, 2)),
        ],
        LanguageOracle: [
            parse_spec("periodic:01").oracle(8),
            parse_spec("full:2").oracle(5),
            LanguageOracle(("0", "1"), 8),
        ],
        GeneratorSpec: [
            spec, parse_spec("sturmian:309017/500000:rho=1/3"),
            parse_spec("bernoulli:1/8:seed=3"), parse_spec("chacon"),
            parse_spec("full:3"),
        ],
        PeriodSpec: [
            PeriodSpec(frozenset({2, 4}), all_periodic=True),
            PeriodSpec(frozenset(), "geometric(2)"),
            PeriodSpec(frozenset(), "all_primes", True),
        ],
        TargetFamily: [
            TargetFamily((1,), (m,), F(1, 8)),
            TargetFamily((1, 2), (m,), F(1, 8)),
        ],
        LeafSpec: [LeafSpec((1,), spec, (spec,)), config.leaves[1]],
        PurifyConfig: [config, config_from_dict(dict(CONFIG, gammas=["1/8"]))],
    }


SAMPLES = samples()
CASES = [(cls, i) for cls, items in SAMPLES.items() for i in range(len(items))]


def values(x, cls=None):
    fields = OLD_FIELDS[cls or type(x)]
    return {name: getattr(x, name) for name, _ in fields}


def rebuilt(x):
    """A fresh instance with the same fields, through the keyword init."""
    return type(x)(**values(x))


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def assert_matches_twin(items):
    twins = [TWINS[type(x)](**values(x)) for x in items]
    for x, t in zip(items, twins):
        assert repr(x) == repr(t)
        assert hash_or_error(x) == hash_or_error(t)
    for (a, ta), (b, tb) in product(zip(items, twins), repeat=2):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)


def test_field_lists_match_slots():
    for cls, fields in OLD_FIELDS.items():
        assert cls._fields == tuple(name for name, _ in fields), cls
        assert cls._fields == cls.__slots__, cls


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_repr_eq_hash_match_twin(cls):
    items = SAMPLES[cls]
    assert_matches_twin(items + [rebuilt(x) for x in items])


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_defaults_match_twin(cls):
    sample = values(SAMPLES[cls][0])
    required = {n: sample[n] for n, d in OLD_FIELDS[cls] if d is REQUIRED}
    assert values(cls(**required)) == values(TWINS[cls](**required), cls)


@pytest.mark.parametrize(
    "cls, i", CASES, ids=[f"{c.__name__}-{i}" for c, i in CASES]
)
def test_fields_are_read_only(cls, i):
    x = SAMPLES[cls][i]
    before = values(x)
    for name in [*before, "extra"]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert values(x) == before


class Cells(Value):
    __slots__ = ("cells",)

    def __init__(self, cells):
        _set(self, "cells", cells)


def test_other_class_with_equal_fields_is_unequal():
    r = from_word("12")
    other = Cells(r.cells)
    assert other != r and r != other
    assert not other == r and not r == other
    assert r != r.cells and r != (r.cells,)
    assert r != TWINS[Rectangle](r.cells)


def test_mutable_classes_get_fresh_defaults():
    x0 = parse_spec("full:2").oracle(10**6)
    a, b = StitchKit(x0, 8, []), StitchKit(x0, 8, [])
    a.tabbed[3] = None
    assert b.tabbed == {}
    a.horizon = 9
    assert a.horizon == 9


rows = st.integers(1, 3).flatmap(
    lambda k: st.integers(1, 4).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(1, 3), min_size=w, max_size=w),
            min_size=k, max_size=k,
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(st.lists(rows, min_size=1, max_size=4))
def test_random_rectangles_match_twin(grids):
    items = [Rectangle.from_rows(cells) for cells in grids]
    assert_matches_twin(items)
