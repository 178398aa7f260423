"""Hom and Ext^1 between the indecomposables of Dynkin quivers against the
closed form of `oracles.dynkin_hom_ext`, which shares no code with `linalg`.

`hom_ext_dims` is checked on every pair of every catalog of the shipped
finite quivers other than E8, over Q and F2.  On seeded samples of pairs,
from E8 over F3 and from a disconnected quiver with an isolated vertex built
here over Q and F2, `hom_space` and `ext1_space` follow it, in the order the
three questions are asked of one pair.  Time budget: 5 to 8 s for the
module on a 2-core VM, nearly all of it the two full tables of 43,492 pairs
each, at 60 to 90 us a pair.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from quiverrep.dynkin import build_quiver
from quiverrep.formats import parse_quiver_file
from quiverrep.indec import all_indecomposables
from quiverrep.linalg import QQ, Field
from quiverrep.quiver import Quiver, classify
from quiverrep.rep import ext1_space, hom_ext_dims, hom_space

from oracles import dynkin_hom_ext

F2, F3 = Field(2), Field(3)
SHIPPED = [parse_quiver_file(p.read_text()) for p in sorted((Path(__file__).parent.parent / "quivers").glob("*.quiver"))]
TABLED = [q for q in SHIPPED if classify(q).finite and not q.name.startswith("E8")]


def _disjoint_union(*quivers: Quiver) -> Quiver:
    labels, arrows = [], []
    for q in quivers:
        off = len(labels)
        labels += [f"{q.name}.{x}" for x in q.labels]
        arrows += [(f"{q.name}.{a.name}", a.source + off, a.target + off) for a in q.arrows]
    return Quiver.from_edges(labels, arrows, "+".join(q.name for q in quivers))


# D4, E6 and an isolated vertex: 12 + 36 + 1 indecomposables.
DISCONNECTED = _disjoint_union(build_quiver("D", 4, "alternating"), build_quiver("E", 6), build_quiver("A", 1))


def _arrows(q: Quiver) -> list[tuple[int, int]]:
    return [(a.source, a.target) for a in q.arrows]


def test_the_tables_cover_the_shipped_finite_quivers():
    assert len(TABLED) == 42
    assert len(all_indecomposables(DISCONNECTED, F2)) == 49


@pytest.mark.parametrize("field", [QQ, F2], ids=str)
def test_hom_ext_dims_on_every_catalog_pair(field):
    for q in TABLED:
        arrows = _arrows(q)
        catalog = all_indecomposables(q, field).entries
        for x, X in catalog:
            for y, Y in catalog:
                assert hom_ext_dims(X, Y) == dynkin_hom_ext(arrows, x, y), (q.name, x, y)


SAMPLED = [
    (parse_quiver_file((Path(__file__).parent.parent / "quivers" / "e8_alternating.quiver").read_text()), F3, 160),
    (DISCONNECTED, QQ, 200),
    (DISCONNECTED, F2, 200),
]


@pytest.mark.parametrize("q, field, count", SAMPLED, ids=lambda v: getattr(v, "name", str(v)))
def test_three_questions_on_sampled_pairs(q, field, count):
    """hom_ext_dims, then the Hom basis and the Ext^1 cocycles of the same
    pair, against the closed form."""
    rng = random.Random(f"closed-form:{q.name}:{field}")
    arrows = _arrows(q)
    catalog = all_indecomposables(q, field).entries
    for _ in range(count):
        (x, X), (y, Y) = rng.choice(catalog), rng.choice(catalog)
        want = dynkin_hom_ext(arrows, x, y)
        assert hom_ext_dims(X, Y) == want, (x, y)
        assert (len(hom_space(X, Y).basis), len(ext1_space(X, Y).cocycles)) == want, (x, y)
