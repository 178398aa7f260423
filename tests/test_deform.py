"""Dual-number lifts, the tangent space, and the deformation-ring verdict."""

from __future__ import annotations

import random

import pytest

from quiverrep.deform import (
    UDRVerdict,
    lifts_isomorphic,
    make_lift,
    tangent_space_dim,
    trivial_lift,
    udr_report,
)
from quiverrep.dynkin import build_quiver, kronecker_quiver
from quiverrep.errors import MismatchError
from quiverrep.indec import all_indecomposables
from quiverrep.linalg import Field, Matrix, QQ
from quiverrep.rep import Representation, direct_sum, ext1_space

from oracles import matadd, matmul

F3 = Field(3)

A2 = build_quiver("A", 2)
S1 = Representation.simple(A2, QQ, 0)
S2 = Representation.simple(A2, QQ, 1)
S12 = direct_sum(S1, S2)
P1 = Representation.from_maps(A2, QQ, (1, 1), {"a1": Matrix.from_rows(QQ, [[1]])})
KRON = kronecker_quiver()
KRON_M = Representation.from_maps(
    KRON, QQ, (1, 1), {"a1": Matrix.from_rows(QQ, [[1]]), "a2": Matrix.from_rows(QQ, [[0]])}
)


def random_perturbation(m: Representation, rng: random.Random):
    out = []
    for f in m.maps:
        if m.field.is_rational:
            ents = [rng.randint(-3, 3) for _ in range(f.rows * f.cols)]
        else:
            ents = [rng.randrange(m.field.char) for _ in range(f.rows * f.cols)]
        out.append(Matrix(m.field, f.rows, f.cols, ents))
    return out


class TestTangentSpace:
    def test_indecomposables_are_rigid(self):
        for _, m in all_indecomposables(build_quiver("A", 3), QQ).entries:
            assert tangent_space_dim(m) == 0

    def test_kronecker_module(self):
        assert tangent_space_dim(KRON_M) == 1

    def test_split_sum_has_a_direction(self):
        assert tangent_space_dim(S12) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            tangent_space_dim(Representation.zero(A2, QQ))

    def test_two_code_paths_agree(self):
        for m in [KRON_M, S12, P1, direct_sum(S12, P1)]:
            assert tangent_space_dim(m) == ext1_space(m, m).dimension


class TestMakeLift:
    def test_trivial_lift(self):
        lift = trivial_lift(P1)
        assert all(g.is_zero() for g in lift.perturbation)

    def test_shape_mismatch(self):
        with pytest.raises(MismatchError):
            make_lift(S12, [Matrix.zeros(QQ, 2, 2)])
        with pytest.raises(MismatchError, match="need one matrix per arrow"):
            make_lift(S12, [])

    def test_wrong_field(self):
        with pytest.raises(MismatchError, match="perturbation matrix for 'a1' must be 1x1 over Q"):
            make_lift(P1, [Matrix.zeros(F3, 1, 1)])
        with pytest.raises(MismatchError, match="perturbation matrix for 'a1' must be 1x1 over F3"):
            make_lift(Representation.from_maps(A2, F3, (1, 1)), [Matrix.from_rows(QQ, [[1]])])


class TestLiftsIsomorphic:
    def test_reflexive(self):
        lift = make_lift(S12, [Matrix.from_rows(QQ, [[1]])])
        assert lifts_isomorphic(lift, lift)

    def test_nontrivial_direction_detected(self):
        nontrivial = make_lift(S12, [Matrix.from_rows(QQ, [[1]])])
        assert not lifts_isomorphic(trivial_lift(S12), nontrivial)

    def test_coboundary_difference_is_isomorphism(self):
        # perturb a lift by g_a u_source - u_target f_a for random u
        rng = random.Random(5)
        m = P1
        for _ in range(5):
            u = [
                Matrix(QQ, d, d, [rng.randint(-3, 3) for _ in range(d * d)])
                for d in m.dims
            ]
            base_g = random_perturbation(m, rng)
            eta = []
            for k, a in enumerate(m.quiver.arrows):
                eta.append(matmul(m.maps[k], u[a.source]) - matmul(u[a.target], m.maps[k]))
            lift1 = make_lift(m, base_g)
            lift2 = make_lift(m, [matadd(g, e) for g, e in zip(base_g, eta)])
            assert lifts_isomorphic(lift1, lift2)

    def test_different_bases_rejected(self):
        with pytest.raises(MismatchError):
            lifts_isomorphic(trivial_lift(S12), trivial_lift(P1))

    def test_cocycle_basis_gives_distinct_deformations(self):
        # ext_dim + 1 pairwise non-isomorphic lifts: trivial plus each cocycle
        for m in [S12, KRON_M]:
            cocycles = ext1_space(m, m).cocycles
            lifts = [trivial_lift(m)] + [make_lift(m, c) for c in cocycles]
            for i in range(len(lifts)):
                for j in range(i + 1, len(lifts)):
                    assert not lifts_isomorphic(lifts[i], lifts[j])


class TestUDRReport:
    def test_projective_over_a2(self):
        r = udr_report(A2, P1)
        assert (r.end_dim, r.ext_dim) == (1, 0)
        assert r.verdict is UDRVerdict.ISOMORPHIC_TO_K
        assert "≅ k" in r.describe()

    def test_kronecker_regular_module(self):
        r = udr_report(KRON, KRON_M)
        assert (r.end_dim, r.ext_dim) == (1, 1)
        assert r.verdict is UDRVerdict.QUOTIENT_OF_POWER_SERIES
        assert "k[[t1]]" in r.describe()

    def test_matrix_endomorphisms_block_universality(self):
        m = direct_sum(S1, S1)
        r = udr_report(A2, m)
        assert r.end_dim == 4
        assert r.verdict is UDRVerdict.NO_UNIVERSAL_RING_GUARANTEED

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            udr_report(A2, Representation.zero(A2, QQ))

    def test_quiver_mismatch(self):
        with pytest.raises(MismatchError):
            udr_report(KRON, P1)


def test_rigid_modules_have_only_trivial_lifts():
    rng = random.Random(99)
    for field in (QQ, F3):
        cat = all_indecomposables(build_quiver("A", 3, "alternating"), field)
        for _, m in cat.entries:
            assert tangent_space_dim(m) == 0
            for _ in range(5):
                lift = make_lift(m, random_perturbation(m, rng))
                assert lifts_isomorphic(lift, trivial_lift(m))
