"""Reflections and positive-root enumeration against the box-scan oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from quiverrep.dynkin import build_quiver, kronecker_quiver, orientation_schemes
from quiverrep.errors import InfiniteTypeError
from quiverrep.formats import parse_quiver_file
from quiverrep.quiver import Quiver, tits_form
from quiverrep.roots import positive_roots, simple_reflection

from conftest import A_AND_D_RANKS, SHIPPED_QUIVERS, quiver_st
from oracles import box_roots, closed_form_count, roots_by_full_closure, sylvester_by_minors

A2 = build_quiver("A", 2)

SMALL_DIAGRAMS = [("A", r) for r in range(1, 6)] + [("D", 4), ("D", 5), ("E", 6)]


class TestSimpleReflection:
    def test_a2_examples(self):
        assert simple_reflection(A2, 1, (1, 1)) == (1, 0)
        assert simple_reflection(A2, 0, (0, 1)) == (1, 1)

    def test_simple_to_negative(self):
        assert simple_reflection(A2, 0, (1, 0)) == (-1, 0)

    def test_loop_rejected(self):
        q = Quiver.from_edges(("v", "w"), (("a", 0, 0), ("b", 0, 1)))
        with pytest.raises(ValueError):
            simple_reflection(q, 0, (1, 1))

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_a_vertex_out_of_range_is_refused(self, vertex):
        """-1 would reflect at the last vertex and 3 raise a bare IndexError."""
        with pytest.raises(ValueError, match=rf"^vertex {vertex} is not a vertex of a quiver with 3 vertices$"):
            simple_reflection(build_quiver("A", 3), vertex, (1, 1, 1))


class TestPositiveRoots:
    def test_a2(self):
        assert positive_roots(A2) == ((0, 1), (1, 0), (1, 1))

    def test_a1(self):
        assert positive_roots(build_quiver("A", 1)) == ((1,),)

    def test_d4_size_and_bound(self):
        rs = positive_roots(build_quiver("D", 4))
        assert len(rs) == 12
        assert max(max(r) for r in rs) == 2

    def test_infinite_type_rejected(self):
        with pytest.raises(InfiniteTypeError):
            positive_roots(kronecker_quiver())

    def test_all_members_are_roots(self):
        q = build_quiver("D", 5, "alternating")
        for r in positive_roots(q):
            assert tits_form(q, r) == 1
            assert all(c >= 0 for c in r) and any(c > 0 for c in r)

    def test_sorted_and_duplicate_free(self):
        rs = positive_roots(build_quiver("E", 6))
        assert list(rs) == sorted(set(rs))


class TestRootCountTable:
    """Root counts against the closed-form table n(n+1)/2, n(n-1), 36/63/120."""

    def test_closed_forms_up_to_rank_8(self):
        for letter, rank in [("A", r) for r in range(1, 9)] + [
            ("D", r) for r in range(4, 9)
        ] + [("E", 6), ("E", 7), ("E", 8)]:
            assert len(positive_roots(build_quiver(letter, rank))) == closed_form_count(letter, rank)

    def test_small_examples(self):
        assert len(positive_roots(build_quiver("A", 3))) == 6
        assert len(positive_roots(build_quiver("D", 4))) == 12


@pytest.mark.parametrize("letter,rank", SMALL_DIAGRAMS)
def test_reflection_closure_matches_box_scan(letter, rank):
    for scheme in orientation_schemes(letter, rank):
        q = build_quiver(letter, rank, scheme)
        assert list(positive_roots(q)) == box_roots(q, bound=6)


def test_box_bound_is_tight_only_for_e8():
    # largest root coordinate per family; 6 is reached by E8 alone, so the
    # bound-6 box scan provably contains every root it is compared against
    maxima = {("A", 8): 1, ("D", 8): 2, ("E", 6): 3, ("E", 7): 4, ("E", 8): 6}
    for (letter, rank), expected in maxima.items():
        rs = positive_roots(build_quiver(letter, rank))
        assert max(max(r) for r in rs) == expected


def test_root_sets_orientation_independent():
    for letter, rank in [("A", 4), ("D", 4), ("E", 6)]:
        sets = {
            positive_roots(build_quiver(letter, rank, s))
            for s in orientation_schemes(letter, rank)
        }
        assert len(sets) == 1


@pytest.mark.parametrize("path", SHIPPED_QUIVERS, ids=lambda p: p.name)
def test_height_raising_closure_matches_full_closure_on_shipped_quivers(path):
    q = parse_quiver_file(path.read_text())
    if sylvester_by_minors(q):
        assert list(positive_roots(q)) == roots_by_full_closure(q)
    else:
        with pytest.raises(InfiniteTypeError):
            positive_roots(q)


def test_height_raising_closure_matches_full_closure_on_a_and_d():
    # the oracle reads only the underlying graph, so one run serves every orientation
    for letter, ranks in A_AND_D_RANKS.items():
        for rank in ranks:
            expected = roots_by_full_closure(build_quiver(letter, rank))
            for scheme in orientation_schemes(letter, rank):
                assert list(positive_roots(build_quiver(letter, rank, scheme))) == expected, (letter, rank, scheme)


@settings(max_examples=200, deadline=None)
@given(q=quiver_st())
def test_height_raising_closure_matches_full_closure_on_random_quivers(q):
    if sylvester_by_minors(q):
        assert list(positive_roots(q)) == roots_by_full_closure(q)
    else:
        with pytest.raises(InfiniteTypeError):
            positive_roots(q)


dynkin_st = st.sampled_from(SMALL_DIAGRAMS)


@settings(max_examples=60, deadline=None)
@given(diag=dynkin_st, data=st.data())
def test_reflections_are_tits_isometric_involutions(diag, data):
    letter, rank = diag
    q = build_quiver(letter, rank)
    d = tuple(data.draw(st.integers(-3, 3)) for _ in range(rank))
    i = data.draw(st.integers(0, rank - 1))
    r = simple_reflection(q, i, d)
    assert simple_reflection(q, i, r) == d
    assert tits_form(q, r) == tits_form(q, d)
