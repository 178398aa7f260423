"""Euler and Tits forms, positivity, and Dynkin classification."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from quiverrep.dynkin import (
    build_quiver,
    cycle_quiver,
    extended_d4_quiver,
    kronecker_quiver,
    orientation_schemes,
)
from quiverrep.quiver import (
    DynkinType,
    Quiver,
    classify,
    euler_form,
    is_positive_definite,
    tits_form,
)
from quiverrep.formats import parse_quiver_file
from quiverrep.indec import all_indecomposables
from quiverrep.linalg import QQ
from quiverrep.roots import positive_roots

from conftest import A_AND_D_RANKS, SHIPPED_QUIVERS, quiver_st
from oracles import sylvester_by_minors

A2 = build_quiver("A", 2)
KRON = kronecker_quiver()


class TestSinksAndSources:
    def test_a2(self):
        assert [(a.source, a.target) for a in A2.arrows] == [(0, 1)]
        assert (A2.is_source(0), A2.is_sink(0), A2.is_source(1), A2.is_sink(1)) == (True, False, False, True)

    @pytest.mark.parametrize("vertex", [-1, 2])
    @pytest.mark.parametrize("method", ["is_sink", "is_source"])
    def test_a_vertex_out_of_range_is_refused(self, method, vertex):
        """-1 would index the last vertex and 2 raise a bare IndexError."""
        with pytest.raises(ValueError, match=rf"^vertex {vertex} is not a vertex of a quiver with 2 vertices$"):
            getattr(A2, method)(vertex)


class TestEulerForm:
    def test_a2_mixed(self):
        assert euler_form(A2, (1, 0), (0, 1)) == -1

    def test_zero_vector(self):
        assert euler_form(A2, (0, 0), (5, 7)) == 0

    def test_kronecker_diagonal(self):
        assert euler_form(KRON, (1, 1), (1, 1)) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            euler_form(A2, (1,), (0, 1))


class TestTitsForm:
    def test_a2(self):
        assert tits_form(A2, (1, 1)) == 1

    def test_unit_vector(self):
        assert tits_form(build_quiver("D", 4), (0, 1, 0, 0)) == 1

    def test_kronecker(self):
        assert tits_form(KRON, (1, 1)) == 0


class TestSymmetrizedMatrix:
    def test_a2(self):
        assert A2.tits_matrix == ((2, -1), (-1, 2))

    def test_single_vertex(self):
        q = Quiver.from_edges(("v",), ())
        assert q.tits_matrix == ((2,),)

    def test_kronecker(self):
        assert KRON.tits_matrix == ((2, -2), (-2, 2))

    def test_loop_kills_diagonal(self):
        q = Quiver.from_edges(("v",), (("a", 0, 0),))
        assert q.tits_matrix == ((0,),)


class TestPositiveDefinite:
    def test_a2(self):
        assert is_positive_definite(A2)

    def test_kronecker(self):
        assert not is_positive_definite(KRON)

    def test_oriented_3_cycle(self):
        assert not is_positive_definite(cycle_quiver(3))


class TestClassify:
    def test_linear_a3(self):
        c = classify(build_quiver("A", 3))
        assert c.finite and c.components == (DynkinType("A", 3),)

    def test_d_shape(self):
        # three edges into a center plus a path of length 2: five vertices, D5
        q = Quiver.from_edges(
            ("1", "2", "3", "4", "5"),
            (("a1", 0, 2), ("a2", 1, 2), ("a3", 3, 2), ("a4", 4, 3)),
        )
        c = classify(q)
        assert c.finite and c.components == (DynkinType("D", 5),)

    def test_kronecker_infinite(self):
        c = classify(KRON)
        assert not c.finite and "parallel arrows" in c.witness

    def test_extended_dynkin_shapes_infinite(self):
        for q in [cycle_quiver(3), cycle_quiver(4), extended_d4_quiver()]:
            assert not classify(q).finite

    def test_loop_infinite(self):
        q = Quiver.from_edges(("v",), (("a", 0, 0),))
        c = classify(q)
        assert not c.finite and "loop" in c.witness

    def test_disjoint_components_sorted(self):
        q = Quiver.from_edges(
            ("1", "2", "3", "4", "5", "6"),
            (("a1", 1, 2), ("a2", 2, 3), ("a3", 4, 5)),
        )
        c = classify(q)
        assert c.components == (
            DynkinType("A", 1),
            DynkinType("A", 3),
            DynkinType("A", 2),
        )

    def test_e_series(self):
        for rank in (6, 7, 8):
            c = classify(build_quiver("E", rank))
            assert c.components == (DynkinType("E", rank),)

    def test_t_shape_beyond_dynkin(self):
        # T(2,2,2): three legs of length two is the affine E6 star
        edges = [("a1", 1, 0), ("a2", 2, 1), ("a3", 3, 0), ("a4", 4, 3), ("a5", 5, 0), ("a6", 6, 5)]
        q = Quiver.from_edges(tuple("0123456"), edges)
        c = classify(q)
        assert not c.finite and "legs (2,2,2)" in c.witness


vec_st = st.lists(st.integers(-4, 4), min_size=5, max_size=5)


@settings(max_examples=100, deadline=None)
@given(q=quiver_st(), m=vec_st, n=vec_st)
def test_tits_equals_euler_diagonal_and_symmetrization(q, m, n):
    m, n = m[: q.vertex_count], n[: q.vertex_count]
    assert tits_form(q, n) == euler_form(q, n, n)
    B = q.tits_matrix
    quad = sum(B[i][j] * n[i] * n[j] for i in range(len(n)) for j in range(len(n)))
    assert 2 * tits_form(q, n) == quad
    # bilinearity in the first argument
    mn = [a + b for a, b in zip(m, n)]
    assert euler_form(q, mn, m) == euler_form(q, m, m) + euler_form(q, n, m)


@settings(max_examples=100, deadline=None)
@given(q=quiver_st(), n=vec_st, data=st.data())
def test_tits_form_orientation_invariant(q, n, data):
    n = n[: q.vertex_count]
    if not q.arrows:
        return
    v = data.draw(st.integers(0, q.vertex_count - 1))
    flipped = q.reverse_arrows_at(v)
    assert tits_form(q, n) == tits_form(flipped, n)


@settings(max_examples=100, deadline=None)
@given(q=quiver_st())
def test_classify_iff_positive_definite(q):
    assert classify(q).finite == is_positive_definite(q)


@settings(max_examples=200, deadline=None)
@given(q=quiver_st())
def test_sylvester_pass_matches_per_minor_oracle(q):
    assert is_positive_definite(q) == sylvester_by_minors(q)


@pytest.mark.parametrize("path", SHIPPED_QUIVERS, ids=lambda p: p.name)
def test_sylvester_pass_matches_per_minor_oracle_on_shipped_quivers(path):
    q = parse_quiver_file(path.read_text())
    assert is_positive_definite(q) == sylvester_by_minors(q)


def test_sylvester_pass_matches_per_minor_oracle_on_a_and_d():
    for letter, ranks in A_AND_D_RANKS.items():
        for rank in ranks:
            for scheme in orientation_schemes(letter, rank):
                q = build_quiver(letter, rank, scheme)
                assert is_positive_definite(q) and sylvester_by_minors(q), (letter, rank, scheme)
    # a zero or negative pivot deep in the pass: D~ (two branch points) and a long cycle
    d_tilde = Quiver.from_edges(
        tuple(str(i) for i in range(40)),
        [(f"a{i}", i, i + 1) for i in range(37)] + [("b1", 1, 38), ("b2", 36, 39)],
    )
    for q in (d_tilde, cycle_quiver(40)):
        assert not is_positive_definite(q) and not sylvester_by_minors(q)


def test_quiver_is_collected_after_use():
    """The quiver owns its Tits matrix: no module-level cache keeps it alive."""
    q = build_quiver("D", 5, "alternating")
    classify(q)
    positive_roots(q)
    all_indecomposables(q, QQ)
    ref = weakref.ref(q)
    del q
    gc.collect()
    assert ref() is None
