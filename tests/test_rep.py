"""Hom/Ext calculus: frozen small cases, the Euler identity, iso verdicts."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quiverrep.dynkin import build_quiver, kronecker_quiver, orientation_schemes
from quiverrep.errors import MismatchError
from quiverrep.formats import parse_quiver_file
from quiverrep.linalg import Field, Matrix, QQ, rank
from quiverrep.quiver import Quiver, euler_form
from quiverrep.rep import (
    IsoVerdict,
    Representation,
    commutation_map,
    direct_sum,
    end_dim,
    ext1_space,
    hom_ext_dims,
    hom_space,
    is_coboundary,
    is_isomorphic,
    is_schur,
    isomorphism_verdict,
)

from oracles import columnwise_commutation_map, naive_hom_ext

F2 = Field.prime(2)
F3 = Field.prime(3)

A2 = build_quiver("A", 2)
S1 = Representation.simple(A2, QQ, 0)
S2 = Representation.simple(A2, QQ, 1)
P1 = Representation.from_maps(A2, QQ, (1, 1), {"a1": Matrix.from_rows(QQ, [[1]])})


class TestCommutationMap:
    def test_zero_representation(self):
        z = Representation.zero(A2, QQ)
        phi = commutation_map(z, z)
        assert (phi.rows, phi.cols) == (0, 0)

    def test_s1_to_s2_shape(self):
        phi = commutation_map(S1, S2)
        # domain of morphisms is 0-dimensional, codomain is Hom(k, k)
        assert (phi.rows, phi.cols) == (1, 0)

    def test_p1_self(self):
        phi = commutation_map(P1, P1)
        assert (phi.rows, phi.cols) == (1, 2)
        assert rank(phi) == 1
        assert len(hom_space(P1, P1).basis) == 1

    def test_field_mismatch(self):
        with pytest.raises(MismatchError):
            commutation_map(S1, Representation.simple(A2, F2, 0))


class TestHomSpace:
    def test_s1_to_s2(self):
        assert hom_space(S1, S2).dimension == 0

    def test_identity_membership(self):
        # End(M) contains the identity tuple for every nonzero M
        m = direct_sum(P1, S2)
        basis = hom_space(m, m).basis
        assert basis, "End(M) must be nonzero"
        ident = tuple(Matrix.identity(QQ, d) for d in m.dims)
        # the identity must be a combination of the returned basis: solve exactly
        cols = [[x for u in b for x in u.entries] for b in basis]
        target = [x for u in ident for x in u.entries]
        system = Matrix.from_rows(QQ, list(map(list, zip(*cols))), cols=len(cols))
        from quiverrep.linalg import solve

        assert solve(system, target) is not None

    def test_p1_to_s2_settled_by_oracle(self):
        # the independent constraint-system oracle fixes this dimension
        assert naive_hom_ext(P1, S2) == (0, 0)
        assert hom_space(P1, S2).dimension == 0

    def test_socle_inclusion(self):
        assert hom_space(S2, P1).dimension == 1


class TestExtSpace:
    def test_s1_s2_extension(self):
        assert ext1_space(S1, S2).dimension == 1

    def test_s2_s1_vanishes(self):
        assert ext1_space(S2, S1).dimension == 0

    def test_projective_has_no_self_extensions(self):
        assert ext1_space(P1, P1).dimension == 0

    def test_cocycle_shapes(self):
        ext = ext1_space(S1, S2)
        (cocycle,) = ext.cocycles
        (eta,) = cocycle
        assert (eta.rows, eta.cols) == (1, 1)
        assert not is_coboundary(S1, S2, cocycle)


class TestIsCoboundary:
    def test_zero_cocycle(self):
        eta = (Matrix.zeros(QQ, 1, 1),)
        assert is_coboundary(S1, S2, eta)

    def test_generator_not_coboundary(self):
        assert not is_coboundary(S1, S2, (Matrix.from_rows(QQ, [[1]]),))

    def test_everything_trivial_for_rigid_module(self):
        eta = (Matrix.from_rows(QQ, [[7]]),)
        assert is_coboundary(P1, P1, eta)

    def test_shape_mismatch(self):
        with pytest.raises(MismatchError):
            is_coboundary(S1, S2, (Matrix.zeros(QQ, 2, 2),))


class TestEndAndSchur:
    def test_simple_is_schur(self):
        assert end_dim(S1) == 1 and is_schur(S1)

    def test_square_of_simple(self):
        m = direct_sum(S1, S1)
        assert end_dim(m) == 4 and not is_schur(m)

    def test_p1_schur(self):
        assert is_schur(P1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_schur(Representation.zero(A2, QQ))


class TestDirectSum:
    def test_sum_with_zero(self):
        m = direct_sum(P1, Representation.zero(A2, QQ))
        assert is_isomorphic(m, P1)

    def test_s1_plus_s2(self):
        m = direct_sum(S1, S2)
        assert m.dims == (1, 1) and m.maps[0].is_zero()

    def test_end_additivity(self):
        m, n = P1, direct_sum(S1, S2)
        lhs = end_dim(direct_sum(m, n))
        rhs = (
            end_dim(m)
            + end_dim(n)
            + hom_space(m, n).dimension
            + hom_space(n, m).dimension
        )
        assert lhs == rhs

    def test_hom_functoriality(self):
        m, mp, n = S1, P1, S2
        assert (
            hom_space(direct_sum(m, mp), n).dimension
            == hom_space(m, n).dimension + hom_space(mp, n).dimension
        )
        assert (
            hom_space(n, direct_sum(m, mp)).dimension
            == hom_space(n, m).dimension + hom_space(n, mp).dimension
        )


class TestIsomorphism:
    def test_reflexive(self):
        assert is_isomorphic(P1, P1)

    def test_different_dimension_vectors(self):
        assert isomorphism_verdict(S1, S2) is IsoVerdict.NOT_ISOMORPHIC

    def test_scalar_twist(self):
        p1b = Representation.from_maps(A2, QQ, (1, 1), {"a1": Matrix.from_rows(QQ, [[5]])})
        assert is_isomorphic(P1, p1b)

    def test_uncertified_over_rationals(self):
        s12 = direct_sum(S1, S2)
        assert isomorphism_verdict(s12, P1) is IsoVerdict.NOT_CERTIFIED

    def test_certified_negative_over_small_prime_field(self):
        s12 = direct_sum(Representation.simple(A2, F2, 0), Representation.simple(A2, F2, 1))
        p1 = Representation.from_maps(A2, F2, (1, 1), {"a1": Matrix.from_rows(F2, [[1]])})
        assert isomorphism_verdict(s12, p1) is IsoVerdict.NOT_ISOMORPHIC

    def test_zero_representations(self):
        assert is_isomorphic(Representation.zero(A2, QQ), Representation.zero(A2, QQ))

    def test_quiver_mismatch(self):
        with pytest.raises(MismatchError):
            is_isomorphic(S1, Representation.simple(build_quiver("A", 3), QQ, 0))


def random_rep(q: Quiver, field: Field, rng: random.Random, max_dim=2) -> Representation:
    dims = tuple(rng.randint(0, max_dim) for _ in range(q.vertex_count))
    maps = {}
    for a in q.arrows:
        r, c = dims[a.target], dims[a.source]
        if field.is_rational:
            ents = [rng.randint(-3, 3) for _ in range(r * c)]
        else:
            ents = [rng.randrange(field.char) for _ in range(r * c)]
        maps[a.name] = Matrix(field, r, c, ents)
    return Representation.from_maps(q, field, dims, maps)


def test_euler_identity_random_reps_all_fields():
    rng = random.Random(7)
    diagrams = [("A", 2), ("A", 3), ("A", 4), ("D", 4), ("A", 5)]
    checked = 0
    for field in (QQ, F2, F3):
        for _ in range(40):
            letter, rk = rng.choice(diagrams)
            scheme = rng.choice(orientation_schemes(letter, rk))
            q = build_quiver(letter, rk, scheme)
            m, n = random_rep(q, field, rng), random_rep(q, field, rng)
            hom, ext = hom_ext_dims(m, n)
            assert hom - ext == euler_form(q, m.dims, n.dims)
            assert hom == hom_space(m, n).dimension
            assert ext == ext1_space(m, n).dimension
            checked += 1
    assert checked == 120


def test_hom_ext_dims_match_independent_oracle():
    rng = random.Random(11)
    kron = kronecker_quiver()
    loops = Quiver.from_edges(("u", "v"), (("a", 0, 0), ("b", 0, 1)))
    pool = [build_quiver("A", 3), build_quiver("D", 4, "alternating"), kron, loops]
    for field in (QQ, F3):
        for _ in range(25):
            q = rng.choice(pool)
            m, n = random_rep(q, field, rng), random_rep(q, field, rng)
            assert hom_ext_dims(m, n) == naive_hom_ext(m, n)


entry_st = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_morphism_bases_satisfy_commutation_exactly(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    q = build_quiver(*data.draw(st.sampled_from([("A", 3), ("D", 4)])))
    field = data.draw(st.sampled_from([QQ, F2]))
    m, n = random_rep(q, field, rng), random_rep(q, field, rng)
    for u in hom_space(m, n).basis:
        for k, a in enumerate(q.arrows):
            left = u[a.target] @ m.maps[k]
            right = n.maps[k] @ u[a.source]
            assert left == right


SHIPPED = sorted((Path(__file__).parent.parent / "quivers").glob("*.quiver"))
LOOPS_AND_TWO_CYCLE = Quiver.from_edges(
    ("x", "y"), (("l1", 0, 0), ("u", 0, 1), ("v", 1, 0), ("l2", 1, 1)), "loops_and_two_cycle"
)


def fractional_rep(q: Quiver, field: Field, rng: random.Random, max_dim: int) -> Representation:
    """Random entries: non-integer fractions over Q, any residue over F_p."""
    dims = tuple(rng.randint(0, max_dim) for _ in range(q.vertex_count))
    maps = {}
    for a in q.arrows:
        r, c = dims[a.target], dims[a.source]
        if field.is_rational:
            ents = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(r * c)]
        else:
            ents = [rng.randrange(field.char) for _ in range(r * c)]
        maps[a.name] = Matrix(field, r, c, ents)
    return Representation.from_maps(q, field, dims, maps)


@pytest.mark.parametrize(
    "quiver", [pytest.param(p, id=p.stem) for p in SHIPPED] + [pytest.param(None, id="loops_and_two_cycle")]
)
def test_commutation_map_matches_columnwise_reference(quiver):
    q = LOOPS_AND_TWO_CYCLE if quiver is None else parse_quiver_file(quiver.read_text())
    rng = random.Random(f"commutation:{q.name}")
    max_dim = 3 if q.vertex_count <= 4 else 2
    for field in (QQ, F2, F3, Field.prime(101)):
        for _ in range(3):
            m, n = fractional_rep(q, field, rng, max_dim), fractional_rep(q, field, rng, max_dim)
            phi = commutation_map(m, n)
            assert (phi.rows, phi.cols, phi.entries) == columnwise_commutation_map(m, n)
            if quiver is None:
                assert hom_ext_dims(m, n) == naive_hom_ext(m, n)


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=str)
def test_jordan_block_loop_adds_both_terms(field):
    q = Quiver.from_edges(("x",), (("l", 0, 0),), "jordan")
    m = Representation.from_maps(q, field, (2,), {"l": Matrix.from_rows(field, [[1, 1], [0, 1]])})
    phi = commutation_map(m, m)
    assert (phi.rows, phi.cols, phi.entries) == columnwise_commutation_map(m, m)
    assert hom_ext_dims(m, m) == naive_hom_ext(m, m) == (2, 2)
    assert hom_space(m, m).dimension == ext1_space(m, m).dimension == 2
    assert end_dim(m) == 2 and not is_schur(m)
