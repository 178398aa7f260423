"""Hom/Ext calculus: frozen small cases, the Euler identity, iso verdicts."""

from __future__ import annotations

import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quiverrep.linalg as linalg
import quiverrep.rep as rep
from quiverrep.dynkin import build_quiver, kronecker_quiver, orientation_schemes
from quiverrep.errors import MismatchError
from quiverrep.formats import parse_quiver_file
from quiverrep.indec import all_indecomposables
from quiverrep.linalg import (
    Field,
    Matrix,
    QQ,
    _echelon,
    _free_columns,
    _kernel_of_rows,
    cokernel_basis,
    kernel_basis,
    rank,
    solve,
)
from quiverrep.quiver import Quiver, classify, euler_form
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

from conftest import load_tool
from oracles import columnwise_commutation_map, direct_sum_by_entries, matmul, naive_hom_ext

F2 = Field(2)
F3 = Field(3)

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
        ident = tuple(Matrix.from_rows(QQ, [[int(i == j) for j in range(d)] for i in range(d)], cols=d) for d in m.dims)
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

    @pytest.mark.parametrize(
        "target, eta, message",
        [
            (S2, (Matrix.zeros(QQ, 2, 2),), "cocycle matrix for 'a1' must be 1x1 over Q"),
            (S2, (), "need one matrix per arrow"),
            (S2, (Matrix.zeros(F3, 1, 1),), "cocycle matrix for 'a1' must be 1x1 over Q"),
            (Representation.simple(build_quiver("A", 1), QQ, 0), (Matrix.zeros(QQ, 1, 1),), "different quivers"),
        ],
        ids=["shape", "count", "field", "quiver"],
    )
    def test_shape_mismatch(self, target, eta, message):
        with pytest.raises(MismatchError, match=message):
            is_coboundary(S1, target, eta)


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


class TestSimple:
    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_a_vertex_out_of_range_is_refused(self, vertex):
        """-1 and 3 would both give the zero representation of A3."""
        with pytest.raises(ValueError, match=rf"^vertex {vertex} is not a vertex of a quiver with 3 vertices$"):
            Representation.simple(build_quiver("A", 3), QQ, vertex)


class TestFromMaps:
    def test_an_unknown_arrow_alone_is_refused(self):
        """Dropping the key would give the module with a zero map on `a1`."""
        with pytest.raises(ValueError, match=r"^unknown arrow 'b9'$"):
            Representation.from_maps(A2, QQ, (1, 1), {"b9": Matrix.from_rows(QQ, [[1]])})

    def test_an_unknown_arrow_beside_a_valid_one_is_refused(self):
        """The first unknown key is named, whatever its matrix's shape."""
        maps = {"a1": Matrix.from_rows(QQ, [[1]]), "a1x": Matrix.zeros(QQ, 5, 5), "b9": Matrix.zeros(QQ, 1, 1)}
        with pytest.raises(ValueError, match=r"^unknown arrow 'a1x'$"):
            Representation.from_maps(A2, QQ, (1, 1), maps)


class TestDirectSum:
    def test_matches_the_entrywise_sum(self):
        """Seeded random pairs over Q and F3, on D5 and on a quiver with a
        loop and a 2-cycle, zero dimensions included: the padded rows give
        the entries of the entry-by-entry sum."""
        rng = random.Random(23)
        loop = Quiver.from_edges(("1", "2"), (("a1", 0, 0), ("a2", 0, 1), ("a3", 1, 0)))
        zero_dims = 0
        for field in (QQ, F3):
            for q in (build_quiver("D", 5, "alternating"), loop):
                for _ in range(20):
                    m, n = random_rep(q, field, rng), random_rep(q, field, rng)
                    zero_dims += 0 in m.dims + n.dims
                    assert direct_sum(m, n) == direct_sum_by_entries(m, n)
        assert zero_dims > 0

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
            left = matmul(u[a.target], m.maps[k])
            right = matmul(n.maps[k], u[a.source])
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
    for field in (QQ, F2, F3, Field(101)):
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


# --- the rank engine's certificates against the direct path --------------


def _direct_cokernel(phi: Matrix) -> list[tuple]:
    """Unit vectors off the pivots of the canonical elimination of phi^T."""
    free = _free_columns(phi.rows, _echelon(phi.field, phi.transpose().row_lists(), phi.rows))
    return [tuple(int(t == i) for t in range(phi.rows)) for i in free]


def _random_cocycle(M: Representation, N: Representation, rng: random.Random) -> list[Matrix]:
    field = M.field
    out = []
    for a in M.quiver.arrows:
        r, c = N.dims[a.target], M.dims[a.source]
        ents = [rng.randint(-3, 3) if field.is_rational else rng.randrange(field.char) for _ in range(r * c)]
        out.append(Matrix(field, r, c, ents))
    return out


def _flat(mats) -> tuple:
    return tuple(x for m in mats for x in m.entries)


def _assert_certificates_match_the_direct_path(M, N, rng):
    """kernel_basis, cokernel_basis and is_coboundary (on one random cocycle
    and on zero) equal the canonical elimination and `solve`; hom_space and
    ext1_space, flattened, equal kernel_basis and cokernel_basis."""
    phi = commutation_map(M, N)
    assert kernel_basis(phi) == _kernel_of_rows(phi.field, phi.row_lists(), phi.cols)
    assert cokernel_basis(phi) == _direct_cokernel(phi)
    assert [_flat(u) for u in hom_space(M, N).basis] == kernel_basis(phi)
    assert [_flat(eta) for eta in ext1_space(M, N).cocycles] == cokernel_basis(phi)
    eta = _random_cocycle(M, N, rng)
    for eta in (eta, [Matrix.zeros(M.field, e.rows, e.cols) for e in eta]):
        vec = [x for m in eta for x in m.entries]
        assert is_coboundary(M, N, eta) == (solve(phi, vec) is not None)


SHIPPED_FINITE = [p for p in SHIPPED if classify(parse_quiver_file(p.read_text())).finite]


@pytest.mark.parametrize("path", SHIPPED_FINITE, ids=lambda p: p.stem)
def test_end_map_certificates_on_every_shipped_catalog(path):
    """On End(M) of every catalog module over Q and F3 the rank engine's
    early answers agree with the dense canonical path."""
    q = parse_quiver_file(path.read_text())
    rng = random.Random(f"certificates:{q.name}")
    for field in (QQ, F3):
        for _, M in all_indecomposables(q, field).entries:
            _assert_certificates_match_the_direct_path(M, M, rng)


def test_certificates_on_random_pairs_and_the_zero_map_control():
    """Random pairs on D5 and E6 over Q and F3, and the zero-map control: with
    zero arrow maps every coboundary is zero, so a nonzero cocycle is never one."""
    rng = random.Random(19)
    for field in (QQ, F3):
        for letter, rk in (("D", 5), ("E", 6)):
            for scheme in orientation_schemes(letter, rk)[:2]:
                q = build_quiver(letter, rk, scheme)
                for _ in range(6):
                    m, n = random_rep(q, field, rng), random_rep(q, field, rng)
                    _assert_certificates_match_the_direct_path(m, n, rng)
                zero = Representation.from_maps(q, field, (1, 2, 2, 1, 1, 1)[:rk])
                _assert_certificates_match_the_direct_path(zero, zero, rng)
                eta = [Matrix(field, f.rows, f.cols, [1] * (f.rows * f.cols)) for f in zero.maps]
                assert not is_coboundary(zero, zero, eta)


def test_is_coboundary_builds_phi_once_when_phi_is_not_onto(monkeypatch):
    """The zero-map control and a D5 pair over Q with Ext^1 = 1: Phi is not
    onto, so the answer needs a solve, which runs once, on the rows of the
    one `_phi_rows` call and never on a dense `commutation_map`.  End of the
    brick m, with Ext^1 = 0, has an onto Phi: full row rank answers it with
    no solve, on rows built once to rank them for the slot; asked again, the
    slot answers it with no rows at all.  A solve that is needed is needed
    again on a second question about the same pair, and rebuilds the rows."""
    q = build_quiver("D", 5)
    one = Matrix(QQ, 1, 1, [1])
    m = Representation.from_maps(q, QQ, (1, 1, 1, 0, 0), {"a1": one, "a2": one})
    n = Representation.from_maps(q, QQ, (0, 1, 1, 1, 0), {"a2": one, "a3": one})
    zero = Representation.from_maps(q, QQ, (1, 2, 2, 1, 1))
    assert hom_ext_dims(m, m) == (1, 0)
    assert hom_ext_dims(m, n) == (0, 1) and hom_ext_dims(zero, zero)[1] > 0
    # (m, n): Phi is [[-1, 0], [1, -1], [0, 1]]; its first column is a coboundary.
    # Columns: the pair, the cocycle, the verdict, solves, `_phi_rows` calls.
    cases = [
        (m, m, [1, 2], True, 0, 1),
        (m, n, [1, 0, 0], False, 1, 1),
        (m, n, [-1, 1, 0], True, 1, 1),
        (zero, zero, [1] * 10, False, 1, 1),
        (zero, zero, [0] * 10, True, 1, 1),
        (m, m, [1, 2], True, 0, 1),
        (m, m, [0, 5], True, 0, 0),
    ]
    cases = [(M, N, rep._split(vec, rep._arrow_shapes(M, N), QQ), *rest) for M, N, vec, *rest in cases]
    calls, solves = [], []
    phi_rows, solve_rows = rep._phi_rows, rep._solve_rows
    monkeypatch.setattr(rep, "_phi_rows", lambda M, N: calls.append((M, N)) or phi_rows(M, N))
    monkeypatch.setattr(rep, "_solve_rows", lambda *args: solves.append(args) or solve_rows(*args))
    monkeypatch.setattr(rep, "commutation_map", _never_dense)
    for M, N, eta, verdict, solve_count, phi_count in cases:
        calls.clear()
        solves.clear()
        assert is_coboundary(M, N, eta) is verdict
        assert calls == [(M, N)] * phi_count
        assert len(solves) == solve_count


def _never_dense(*args):
    raise AssertionError("commutation_map built a dense Phi")


def test_basis_digests_match_the_golden_file():
    """hom_space bases, ext1_space cocycles and is_coboundary verdicts on the
    seeded pairs of tools/catalog_digests.py hash to the recorded digests."""
    digests = load_tool("catalog_digests")
    assert digests.basis_digests() == json.loads(digests.BASES_GOLDEN.read_text(encoding="utf-8"))


def _never_bareiss(*args):
    raise AssertionError("Bareiss ran on a full-rank map")


def test_full_rank_rational_pair_needs_no_bareiss(monkeypatch):
    """Two random A20 representations of dim 4 over Q: the 304x320 map has
    full row rank, which the residue-prime rank certifies on its own, when
    hom_ext_dims is asked first, after ext1_space, or after hom_space."""
    rng = random.Random(20)
    q = build_quiver("A", 20)
    reps = [
        Representation(q, QQ, (4,) * 20, [Matrix(QQ, 4, 4, [rng.randint(-3, 3) for _ in range(16)]) for _ in q.arrows])
        for _ in range(2)
    ]
    bareiss = linalg._bareiss_echelon
    monkeypatch.setattr(linalg, "_bareiss_echelon", _never_bareiss)
    hom, ext = hom_ext_dims(*reps)
    assert (hom, ext) == (16, 0) and hom - ext == euler_form(q, reps[0].dims, reps[1].dims)
    # Asked first, ext1_space leaves the residue-prime rank in the slot.
    M, N = (Representation(q, QQ, r.dims, r.maps) for r in reps)
    assert ext1_space(M, N).cocycles == () and hom_ext_dims(M, N) == (16, 0)
    # hom_space's 16-dimensional kernel takes Bareiss; the rank after it does not.
    M, N = (Representation(q, QQ, r.dims, r.maps) for r in reps)
    monkeypatch.setattr(linalg, "_bareiss_echelon", bareiss)
    assert hom_space(M, N).dimension == 16
    monkeypatch.setattr(linalg, "_bareiss_echelon", _never_bareiss)
    assert hom_ext_dims(M, N) == (16, 0)


def test_end_bound_spares_bareiss(monkeypatch):
    """The Kronecker modules k --(1, 0)--> k and k --(2, 3)--> k are bricks
    whose 2x2 End maps have rank 1: below min(rows, cols), but equal to
    cols - 1, the bound the identity gives, so the residue-prime rank settles
    it.  Only the second needs the bound: no entry of its map is a unit, so
    without it the rational rank would fall back to Bareiss."""
    kron = kronecker_quiver()
    modules = [
        Representation(kron, QQ, (1, 1), [Matrix(QQ, 1, 1, [a]), Matrix(QQ, 1, 1, [b])]) for a, b in ((1, 0), (2, 3))
    ]
    for m in modules:
        assert rank(commutation_map(m, m)) == 1
    monkeypatch.setattr(linalg, "_bareiss_echelon", _never_bareiss)
    for m in modules:
        assert hom_ext_dims(m, m) == (1, 1)


def test_rank_peak_stays_below_the_dense_map():
    """Two A20 representations of dim 10 over Q give a 1900x2000 map, whose
    dense entry list alone takes 8 bytes x 3.8M = 30 MB.  The sparse rows, the
    residue copy and the dense residual together peak below half of that."""
    rng = random.Random(10)
    q = build_quiver("A", 20)
    reps = [
        Representation(q, QQ, (10,) * 20, [Matrix(QQ, 10, 10, [rng.randint(-3, 3) for _ in range(100)]) for _ in q.arrows])
        for _ in range(2)
    ]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dims = hom_ext_dims(*reps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert dims == (100, 0)
    assert peak <= 8 * 1900 * 2000 / 2
