"""Value semantics shared by every public value type: frozen fields, equality
and hashing by field, keyword construction with defaults, repr, and copies
and pickles that compare equal."""

from __future__ import annotations

import copy
import pickle
from types import SimpleNamespace

import pytest

from quiverrep.deform import DualNumberLift, UDRReport
from quiverrep.dynkin import build_quiver
from quiverrep.indec import IndecCatalog, all_indecomposables
from quiverrep.linalg import Field, Matrix, QQ
from quiverrep.quiver import Arrow, Classification, DynkinType, Quiver
from quiverrep.rep import ExtSpace, MorphismSpace, Representation

F3 = Field(3)
Q = Quiver.from_edges(("x", "y"), [("a", 0, 1)], "q")
M = Representation.simple(Q, QQ, 0)
N = Representation.simple(Q, QQ, 1)
ONE = Matrix.from_rows(QQ, [[1]])

# (class, fields in declaration order, defaults, uncompared fields, a changed compared field)
CASES = [
    (Arrow, {"name": "a", "source": 0, "target": 1}, {}, {}, {"target": 0}),
    (
        Quiver,
        {"labels": ("x", "y"), "arrows": (Arrow("a", 0, 1),), "name": "q"},
        {"name": ""},
        {"name": "other"},
        {"arrows": ()},
    ),
    (DynkinType, {"letter": "E", "rank": 8}, {}, {}, {"rank": 7}),
    (
        Classification,
        {"finite": True, "components": (DynkinType("A", 2),), "witness": None},
        {"components": (), "witness": None},
        {},
        {"finite": False},
    ),
    (Field, {"char": 3}, {}, {}, {"char": 5}),
    (
        Representation,
        {"quiver": Q, "field": QQ, "dims": (1, 0), "maps": (Matrix.zeros(QQ, 0, 1),)},
        {},
        {},
        {"dims": (1, 1), "maps": (ONE,)},
    ),
    (MorphismSpace, {"source": M, "target": M, "basis": ()}, {}, {}, {"target": N}),
    (ExtSpace, {"source": M, "target": M, "cocycles": ()}, {}, {}, {"target": N}),
    (IndecCatalog, {"quiver": Q, "field": QQ, "entries": (((1, 0), M),)}, {}, {}, {"field": F3}),
    (DualNumberLift, {"base": M, "perturbation": (Matrix.zeros(QQ, 0, 1),)}, {}, {}, {"base": N}),
    (UDRReport, {"end_dim": 1, "ext_dim": 0}, {}, {}, {"ext_dim": 1}),
    (Matrix, {"field": QQ, "rows": 1, "cols": 2, "entries": (1, 2)}, {}, {}, {"entries": (1, 3)}),
]
# A second Representation case: equal dims, and the maps alone differ.
MAPS_ALONE = (
    Representation,
    {"quiver": Q, "field": QQ, "dims": (1, 1), "maps": (Matrix.zeros(QQ, 1, 1),)},
    {},
    {},
    {"maps": (ONE,)},
)
# classes whose repr is not the field-by-field default
REPRS = {Matrix: "Matrix(Q, 1x2: 1 2)"}


def assert_copies_equal(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize(
    "cls, fields, defaults, uncompared, changed",
    [pytest.param(*c, id=c[0].__name__) for c in CASES] + [pytest.param(*MAPS_ALONE, id="Representation-maps")],
)
def test_value_semantics(cls, fields, defaults, uncompared, changed):
    a = cls(**fields)
    b = cls(*fields.values())
    assert a == b and not a != b and hash(a) == hash(b)
    for name, value in fields.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1

    short = cls(**{k: v for k, v in fields.items() if k not in defaults})
    assert all(getattr(short, k) == v for k, v in defaults.items())
    same = cls(**{**fields, **uncompared})
    assert same == a and hash(same) == hash(a)
    assert cls(**{**fields, **changed}) != a

    assert a != SimpleNamespace(**fields) and a != tuple(fields.values())
    for other_cls, *_ in CASES:
        if other_cls is cls:
            continue
        try:
            other = other_cls(*fields.values())
        except (TypeError, ValueError, AttributeError):
            continue
        assert a != other and other != a

    body = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(a) == REPRS.get(cls, f"{cls.__name__}({body})")

    assert_copies_equal(a)


def test_catalog_copies_equal():
    assert_copies_equal(all_indecomposables(build_quiver("E", 8), F3))


@pytest.mark.parametrize(
    "from_lists, twin",
    [
        (Quiver(["x", "y"], [Arrow("a", 0, 1)], "q"), Q),
        (Representation(Q, QQ, [1, 1], [ONE]), Representation(Q, QQ, (1, 1), (ONE,))),
        (Classification(True, [DynkinType("A", 2)]), Classification(True, (DynkinType("A", 2),))),
        (MorphismSpace(M, M, [[ONE, Matrix.zeros(QQ, 0, 0)]]), MorphismSpace(M, M, ((ONE, Matrix.zeros(QQ, 0, 0)),))),
        (ExtSpace(M, N, [[ONE]]), ExtSpace(M, N, ((ONE,),))),
        (IndecCatalog(Q, QQ, [[[1, 0], M]]), IndecCatalog(Q, QQ, (((1, 0), M),))),
        (DualNumberLift(M, [Matrix.zeros(QQ, 0, 1)]), DualNumberLift(M, (Matrix.zeros(QQ, 0, 1),))),
    ],
    ids=[
        "Quiver",
        "Representation",
        "Classification",
        "MorphismSpace",
        "ExtSpace",
        "IndecCatalog",
        "DualNumberLift",
    ],
)
def test_built_from_lists_equals_tuple_twin(from_lists, twin):
    assert from_lists == twin and hash(from_lists) == hash(twin)


def test_catalog_of_quiver_built_from_lists():
    from_lists = Quiver(["1", "2"], [Arrow("a", 0, 1)])
    assert all_indecomposables(from_lists, QQ) == all_indecomposables(Quiver(("1", "2"), (Arrow("a", 0, 1),)), QQ)
