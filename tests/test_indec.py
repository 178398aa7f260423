"""Reflection functors, indecomposable construction, and catalog invariants."""

from __future__ import annotations

import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import quiverrep.indec as indec
from quiverrep.dynkin import build_quiver, kronecker_quiver, orientation_schemes
from quiverrep.errors import InfiniteTypeError, InternalInvariantError, NotARootError
from quiverrep.formats import parse_field, parse_quiver_file, rep_file_text
from quiverrep.indec import (
    all_indecomposables,
    construct_indecomposable,
    generic_rep_oracle,
    reflect_at_sink,
    reflect_at_source,
)
from quiverrep.linalg import Field, Matrix, QQ
from quiverrep.quiver import Quiver, classify
from quiverrep.rep import Representation, hom_ext_dims, is_isomorphic, is_schur
from quiverrep.roots import positive_roots, simple_reflection

from conftest import load_tool, run_cli
from oracles import reflect_at_sink_by_kernel_inclusion, reflect_at_source_by_projection

F2 = Field(2)

A2 = build_quiver("A", 2)
P1 = Representation.from_maps(A2, QQ, (1, 1), {"a1": Matrix.from_rows(QQ, [[1]])})

RANK_LE_4 = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "quivers"


def shipped_quiver(filename: str):
    return parse_quiver_file((SHIPPED / filename).read_text(encoding="utf-8"))


SHIPPED_FINITE = sorted(
    p.name for p in SHIPPED.glob("*.quiver") if classify(shipped_quiver(p.name)).finite
)


digests = load_tool("catalog_digests")
# sha256 of each shipped catalog's .rep bytes, written by tools/catalog_digests.py
CATALOG_SHA256 = json.loads(digests.GOLDEN.read_text(encoding="utf-8"))


class TestReflectAtSink:
    def test_a2_projective(self):
        q2, r2 = reflect_at_sink(A2, 1, P1)
        assert r2.dims == (1, 0)
        assert [(a.source, a.target) for a in q2.arrows] == [(1, 0)]

    def test_zero_neighborhood(self):
        z = Representation.zero(A2, QQ)
        _, r = reflect_at_sink(A2, 1, z)
        assert r.dims == (0, 0)

    def test_kills_sink_simple(self):
        s2 = Representation.simple(A2, QQ, 1)
        _, r = reflect_at_sink(A2, 1, s2)
        assert r.dims == (0, 0)

    def test_requires_sink(self):
        with pytest.raises(ValueError):
            reflect_at_sink(A2, 0, P1)

    @pytest.mark.parametrize("filename", SHIPPED_FINITE)
    def test_duality_matches_kernel_inclusion(self, filename):
        """Every module of the Q, F2 and F3 catalogs at every sink, against the
        kernel inclusion built from rref(A) by plain Gauss-Jordan."""
        q = shipped_quiver(filename)
        sinks = [i for i in range(q.vertex_count) if q.is_sink(i)]
        for field in (QQ, F2, Field(3)):
            for _, m in all_indecomposables(q, field).entries:
                for i in sinks:
                    new_q, got = reflect_at_sink(q, i, m)
                    want = reflect_at_sink_by_kernel_inclusion(q, i, m)
                    assert new_q == want.quiver and got == want, (q.name, i, m.dims)


class TestReflectAtSource:
    def test_round_trip_recovers_p1(self):
        q2, r2 = reflect_at_sink(A2, 1, P1)
        q3, r3 = reflect_at_source(q2, 1, r2)
        assert q3 == A2
        assert is_isomorphic(r3, P1)

    def test_kills_source_simple(self):
        s1 = Representation.simple(A2, QQ, 0)
        _, r = reflect_at_source(A2, 0, s1)
        assert r.dims == (0, 0)

    def test_zero_to_zero(self):
        z = Representation.zero(A2, QQ)
        _, r = reflect_at_source(A2, 0, z)
        assert r.is_zero()

    def test_requires_source(self):
        with pytest.raises(ValueError):
            reflect_at_source(A2, 1, P1)

    @pytest.mark.parametrize(
        "functor, i", [(reflect_at_source, -2), (reflect_at_source, 2), (reflect_at_sink, -1), (reflect_at_sink, 5)]
    )
    def test_requires_a_vertex_of_the_quiver(self, functor, i):
        """A negative index would otherwise reflect some other vertex."""
        with pytest.raises(ValueError, match=f"vertex {i} is not a s"):
            functor(A2, i, P1)


class TestConstructIndecomposable:
    def test_a2_long_root(self):
        m = construct_indecomposable(A2, (1, 1), QQ)
        assert is_isomorphic(m, P1)

    def test_simple_base_case(self):
        m = construct_indecomposable(A2, (0, 1), QQ)
        assert m == Representation.simple(A2, QQ, 1)

    def test_d4_highest_root(self):
        d4 = build_quiver("D", 4)
        m = construct_indecomposable(d4, (1, 2, 1, 1), QQ)
        assert m.dims == (1, 2, 1, 1)
        assert is_schur(m)
        assert hom_ext_dims(m, m) == (1, 0)

    def test_non_root_rejected(self):
        with pytest.raises(NotARootError) as exc:
            construct_indecomposable(A2, (2, 2), QQ)
        assert exc.value.tits_value == 4

    def test_infinite_type_rejected(self):
        with pytest.raises(InfiniteTypeError):
            construct_indecomposable(kronecker_quiver(), (1, 1), QQ)

    def test_every_orientation_every_field(self):
        for letter, rk in [("A", 3), ("D", 4)]:
            for scheme in orientation_schemes(letter, rk):
                q = build_quiver(letter, rk, scheme)
                for root in positive_roots(q):
                    for field in (QQ, F2):
                        m = construct_indecomposable(q, root, field)
                        assert m.dims == root
                        assert is_schur(m)


class TestCatalog:
    def test_a2_entries(self):
        cat = all_indecomposables(A2, QQ)
        assert len(cat) == 3

    def test_a1_entry(self):
        q = build_quiver("A", 1)
        cat = all_indecomposables(q, QQ)
        assert len(cat) == 1
        assert cat.entries[0][1] == Representation.simple(q, QQ, 0)

    def test_counts_match_roots_up_to_rank_6(self):
        for letter, rk in [("A", 5), ("A", 6), ("D", 5), ("D", 6), ("E", 6)]:
            q = build_quiver(letter, rk)
            assert len(all_indecomposables(q, F2)) == len(positive_roots(q))

    def test_dimension_vectors_orientation_robust(self):
        for letter, rk in [("A", 4), ("D", 4)]:
            multisets = set()
            for scheme in orientation_schemes(letter, rk):
                cat = all_indecomposables(build_quiver(letter, rk, scheme), QQ)
                multisets.add(frozenset(Counter(r for r, _ in cat.entries).items()))
            assert len(multisets) == 1

    def test_pairwise_distinct_roots(self):
        cat = all_indecomposables(build_quiver("D", 4, "alternating"), QQ)
        roots = [r for r, _ in cat.entries]
        assert len(set(roots)) == len(roots)


class TestSharedWalks:
    """The catalog rebuilds each of its n threads, the walks up from a simple
    root, once and keeps the modules at phase 0; each root built alone must
    give the same bytes, and each walk state costs one functor call."""

    @pytest.mark.parametrize(
        "filename, token",
        [(f, t) for f in SHIPPED_FINITE for t in ("Q", "F2", "F3")] + [("D12", "F2"), ("A12", "F2")],
    )
    def test_catalog_equals_per_root_rebuild(self, filename, token):
        """D12 and A12 are generated: threads of 131 and 77 steps on 12
        vertices, so each passes phase 0 several times.  A shipped catalog
        must also hash to its recorded digest, and over Q hold only ints."""
        if filename in SHIPPED_FINITE:
            q = shipped_quiver(filename)
        else:
            q = build_quiver(filename[0], int(filename[1:]))
        field = parse_field(token)
        cat = all_indecomposables(q, field)
        assert [r for r, _ in cat.entries] == list(positive_roots(q))
        for root, m in cat.entries:
            direct = construct_indecomposable(q, root, field)
            assert rep_file_text(m) == rep_file_text(direct), root
        if filename in SHIPPED_FINITE:
            assert digests.catalog_digest(cat) == CATALOG_SHA256[filename][token]
        if field.is_rational:
            assert all(type(x) is int for _, m in cat.entries for f in m.maps for x in f.entries)

    def test_recorded_digests_cover_every_shipped_catalog(self):
        assert sorted(CATALOG_SHA256) == SHIPPED_FINITE
        assert all(sorted(d) == sorted(digests.FIELDS) for d in CATALOG_SHA256.values())

    @pytest.mark.parametrize(
        "filename, calls",
        [("e8_linear.quiver", 884), ("e8_alternating.quiver", 892), ("e8_sinkheavy.quiver", 868)],
    )
    def test_one_functor_call_per_walk_state(self, monkeypatch, filename, calls):
        count = Counter()
        original = indec._reflect

        def counted(*args):
            count["calls"] += 1
            return original(*args)

        monkeypatch.setattr(indec, "_reflect", counted)
        all_indecomposables(shipped_quiver(filename), F2)
        assert count["calls"] == calls

    @staticmethod
    def _count_constructions(monkeypatch) -> Counter:
        count = Counter()
        for cls in (Representation, Quiver):

            def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                count[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return count

    @pytest.mark.parametrize("filename", ["e8_linear.quiver", "e8_alternating.quiver", "e8_sinkheavy.quiver"])
    def test_catalog_validates_only_the_modules_it_keeps(self, monkeypatch, filename):
        """Threads carry plain data: a build constructs one Representation per
        root, 120 on E8, and a Quiver only for the reflection pass, at most
        n + 1 = 9."""
        q = shipped_quiver(filename)
        count = self._count_constructions(monkeypatch)
        assert len(all_indecomposables(q, F2)) == 120
        assert count["Representation"] == 120
        assert count["Quiver"] <= 9

    def test_one_root_validates_one_module(self, monkeypatch):
        """The walk of the D12 highest root passes phase 0 ten times; only the
        module of the root is built as a Representation."""
        q = build_quiver("D", 12)
        top = max(positive_roots(q), key=sum)
        count = self._count_constructions(monkeypatch)
        assert construct_indecomposable(q, top, F2).dims == top
        assert count["Representation"] == 1

    def test_build_peak_stays_near_the_catalog_size(self):
        """No module outlives its thread unless the catalog keeps it: the
        traced peak of a linear D20 catalog build over F2 is at most 1.5 times
        what the catalog retains (a memo of every walk state reads 5 times)."""
        q = build_quiver("D", 20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cat = all_indecomposables(q, F2)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cat) == 380
        assert peak - base <= 1.5 * (size - base)


class TestProjectionOracle:
    @pytest.mark.parametrize("filename", SHIPPED_FINITE)
    def test_reflect_at_source_matches_column_space_projection(self, monkeypatch, filename):
        """Every functor step of the Q, F2 and F3 catalogs, against the
        projection built from the pivots of rref(A^T) by plain Gauss-Jordan."""
        calls = []
        original = indec._reflect

        def recorded(Q, i, field, dims, maps):
            out = original(Q, i, field, dims, maps)
            calls.append((Q, i, field, dims, maps, out))
            return out

        monkeypatch.setattr(indec, "_reflect", recorded)
        q = shipped_quiver(filename)
        for field in (QQ, F2, Field(3)):
            all_indecomposables(q, field)
        assert calls or q.vertex_count == 1
        for Q, i, field, dims, maps, (new_dims, new_maps) in calls:
            mats = [Matrix(field, dims[a.target], dims[a.source], m) for a, m in zip(Q.arrows, maps)]
            want = reflect_at_source_by_projection(Q, i, Representation(Q, field, dims, mats))
            assert (new_dims, new_maps) == (want.dims, tuple(f.entries for f in want.maps)), (Q.name, i, dims)


def _patch_wrong_dims(monkeypatch):
    monkeypatch.setattr(indec, "_reflect", lambda Q, i, field, dims, maps: ((0,) * len(dims), ((),) * len(maps)))


class TestInvariantMessages:
    def test_bookkeeping_failure_names_the_site(self, monkeypatch):
        _patch_wrong_dims(monkeypatch)
        expected = (
            "quiver A3_linear, root (1,1,1), walk step 1, vertex 2: "
            "dimension bookkeeping failed: (0, 0, 0) != (1, 1, 0)"
        )
        with pytest.raises(InternalInvariantError) as exc:
            construct_indecomposable(shipped_quiver("a3_linear.quiver"), (1, 1, 1), QQ)
        assert str(exc.value) == expected
        code, out, err = run_cli(
            ["verify-udr", str(SHIPPED / "a3_linear.quiver"), "--field", "Q", "--dim", "1,1,1"]
        )
        assert code == 5
        assert out == ""
        assert err == f"error: {expected}\n"

    def test_catalog_bookkeeping_failure_names_the_site(self, monkeypatch):
        """The first thread of A3_linear walks up from the simple root at
        vertex 3 to the root (1,1,0); its first functor call rebuilds step 3
        of that root's walk."""
        _patch_wrong_dims(monkeypatch)
        expected = (
            "quiver A3_linear, root (1,1,0), walk step 3, vertex 3: "
            "dimension bookkeeping failed: (0, 0, 0) != (0, 1, 1)"
        )
        with pytest.raises(InternalInvariantError) as exc:
            all_indecomposables(shipped_quiver("a3_linear.quiver"), QQ)
        assert str(exc.value) == expected
        code, out, err = run_cli(["verify-udr", str(SHIPPED / "a3_linear.quiver"), "--field", "Q"])
        assert code == 5
        assert out == ""
        assert err == f"error: {expected}\n"

    def test_walk_cap_names_the_site(self, monkeypatch):
        """A walk that never meets a simple root stops after n max(n, 15) steps."""
        monkeypatch.setattr(indec, "_reflected", lambda Q, i, d: d[i])
        with pytest.raises(InternalInvariantError) as exc:
            construct_indecomposable(shipped_quiver("a3_linear.quiver"), (1, 1, 1), QQ)
        assert str(exc.value) == (
            "quiver A3_linear, root (1,1,1), walk step 45, vertex 3: "
            "reflection walk did not reach a simple root"
        )

    def test_walk_positivity_names_the_site(self, monkeypatch):
        """A reflection that takes d[v] below zero stops the walk at that step."""
        monkeypatch.setattr(indec, "_reflected", lambda Q, i, d: -1)
        expected = (
            "quiver A3_linear, root (1,1,1), walk step 0, vertex 3: "
            "reflection walk left the positive cone"
        )
        with pytest.raises(InternalInvariantError) as exc:
            construct_indecomposable(shipped_quiver("a3_linear.quiver"), (1, 1, 1), QQ)
        assert str(exc.value) == expected
        code, out, err = run_cli(
            ["verify-udr", str(SHIPPED / "a3_linear.quiver"), "--field", "Q", "--dim", "1,1,1"]
        )
        assert (code, out, err) == (5, "", f"error: {expected}\n")

    def test_reorientation_failure_names_the_site(self, monkeypatch):
        """An orientation list whose first quiver still has the arrows at the
        first vertex of the pass flipped fails at the first phase-0 step."""
        original = indec._reflection_pass

        def unflipped(Q):
            order, orientations = original(Q)
            return order, [orientations[1], *orientations[1:]]

        monkeypatch.setattr(indec, "_reflection_pass", unflipped)
        expected = (
            "quiver A3_linear, root (1,1,1), walk step 0, vertex 3: "
            "reflection functor reoriented the quiver incorrectly"
        )
        with pytest.raises(InternalInvariantError) as exc:
            construct_indecomposable(shipped_quiver("a3_linear.quiver"), (1, 1, 1), QQ)
        assert str(exc.value) == expected
        code, out, err = run_cli(
            ["verify-udr", str(SHIPPED / "a3_linear.quiver"), "--field", "Q", "--dim", "1,1,1"]
        )
        assert (code, out, err) == (5, "", f"error: {expected}\n")

    def test_one_module_per_root(self, monkeypatch):
        q = shipped_quiver("a3_linear.quiver")
        monkeypatch.setattr(indec, "positive_roots", lambda Q: [*positive_roots(Q), (1, 0, 1)])
        with pytest.raises(InternalInvariantError) as exc:
            all_indecomposables(q, QQ)
        assert str(exc.value) == "quiver A3_linear: the threads do not give one module per positive root"


class TestDimensionBookkeeping:
    def test_sink_reflection_acts_as_weyl_reflection(self):
        # for indecomposables not killed by the functor
        for letter, rk in RANK_LE_4:
            q = build_quiver(letter, rk)
            cat = all_indecomposables(q, QQ)
            sinks = [i for i in range(q.vertex_count) if q.is_sink(i)]
            for root, m in cat.entries:
                for i in sinks:
                    if m == Representation.simple(q, QQ, i):
                        continue
                    _, rm = reflect_at_sink(q, i, m)
                    assert rm.dims == simple_reflection(q, i, root)


class TestRoundTrip:
    def test_all_rank_le_4_catalogs(self):
        for letter, rk in RANK_LE_4:
            for scheme in orientation_schemes(letter, rk):
                q = build_quiver(letter, rk, scheme)
                cat = all_indecomposables(q, QQ)
                sinks = [i for i in range(q.vertex_count) if q.is_sink(i)]
                for _, m in cat.entries:
                    for i in sinks:
                        if m == Representation.simple(q, QQ, i):
                            continue
                        q_flip, plus = reflect_at_sink(q, i, m)
                        q_back, back = reflect_at_source(q_flip, i, plus)
                        assert q_back == q
                        assert is_isomorphic(back, m)


class TestGenericOracle:
    def test_a2_scalar_is_nonzero(self):
        for seed in range(3):
            m = generic_rep_oracle(A2, (1, 1), QQ, seed=seed)
            assert not m.maps[0].is_zero()
            assert is_schur(m)

    def test_unit_vector_gives_simple(self):
        m = generic_rep_oracle(A2, (1, 0), QQ, seed=123)
        assert m == Representation.simple(A2, QQ, 0)

    def test_small_prime_field_rejected(self):
        with pytest.raises(ValueError):
            generic_rep_oracle(A2, (1, 1), F2, seed=0)

    def test_large_prime_field_allowed(self):
        m = generic_rep_oracle(A2, (1, 1), Field(101), seed=0)
        assert is_schur(m)

    def test_agrees_with_functor_construction(self):
        d4 = build_quiver("D", 4)
        built = construct_indecomposable(d4, (1, 2, 1, 1), QQ)
        sampled = generic_rep_oracle(d4, (1, 2, 1, 1), QQ, seed=0)
        assert is_isomorphic(sampled, built)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: simple_reflection(A2, 0, d),
        lambda d: construct_indecomposable(A2, d, QQ),
        lambda d: generic_rep_oracle(A2, d, QQ),
    ],
    ids=["simple_reflection", "construct_indecomposable", "generic_rep_oracle"],
)
@pytest.mark.parametrize("d", [(1,), (1, 1, 1)])
def test_a_vector_of_the_wrong_length_is_refused(call, d):
    with pytest.raises(ValueError, match=rf"^vector of length {len(d)} does not fit a quiver on 2 vertices$"):
        call(d)
