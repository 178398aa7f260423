"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact; there are no tolerances to tune.  The heavy
catalog verifications run through the actual CLI (JSON format) and are
memoized session-wide in the verify_cache fixture.
"""

from __future__ import annotations

import random

from quiverrep.deform import UDRVerdict, lifts_isomorphic, make_lift, tangent_space_dim, trivial_lift, udr_report
from quiverrep.dynkin import (
    build_quiver,
    cycle_quiver,
    extended_d4_quiver,
    kronecker_quiver,
    orientation_schemes,
)
from quiverrep.formats import (
    parse_quiver_file,
    parse_rep_file,
    quiver_file_text,
    rep_file_text,
)
from quiverrep.indec import (
    all_indecomposables,
    construct_indecomposable,
    generic_rep_oracle,
    reflect_at_sink,
    reflect_at_source,
)
from quiverrep.linalg import Field, Matrix, QQ
from quiverrep.quiver import classify, euler_form
from quiverrep.rep import Representation, direct_sum, hom_ext_dims, is_isomorphic
from quiverrep.roots import positive_roots

from conftest import DIAGRAMS, run_cli
from oracles import box_roots, closed_form_count

F2, F3, F5 = Field(2), Field(3), Field(5)

RANK_LE_4 = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]


def _all_runs():
    for letter, rank in DIAGRAMS:
        for scheme in orientation_schemes(letter, rank):
            yield letter, rank, scheme


def test_criterion_1_main_theorem_suite(verify_cache):
    runs = 0
    for letter, rank, scheme in _all_runs():
        expected = closed_form_count(letter, rank)
        for field in ("Q", "F2", "F3"):
            result = verify_cache.result(letter, rank, scheme, field)
            assert result["theorem_holds"] is True
            assert result["total"] == result["verified"] == expected
            for entry in result["entries"]:
                assert entry["end_dim"] == 1
                assert entry["ext_dim"] == 0
                assert entry["verdict"] == "isomorphic_to_k"
            runs += 1
    print(f"\nACCEPTANCE 1 PASS: R(kQ,M) = k for every entry in {runs} catalog runs")


def test_criterion_2_root_counts_vs_box_enumeration():
    for letter, rank in DIAGRAMS:
        q = build_quiver(letter, rank)
        enumerated = list(positive_roots(q))
        assert len(enumerated) == closed_form_count(letter, rank)
        assert enumerated == box_roots(q, bound=6)
    print(f"\nACCEPTANCE 2 PASS: root counts match closed forms and box scans for {len(DIAGRAMS)} diagrams")


def test_criterion_3_euler_identity_random_pairs():
    rng = random.Random(20260809)
    pool = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
    checked = 0
    for field in (QQ, F2, F3):
        for _ in range(35):
            letter, rank = rng.choice(pool)
            scheme = rng.choice(orientation_schemes(letter, rank))
            q = build_quiver(letter, rank, scheme)
            reps = []
            for _ in range(2):
                dims = tuple(rng.randint(0, 2) for _ in range(rank))
                maps = {}
                for a in q.arrows:
                    r, c = dims[a.target], dims[a.source]
                    if field.is_rational:
                        ents = [rng.randint(-3, 3) for _ in range(r * c)]
                    else:
                        ents = [rng.randrange(field.char) for _ in range(r * c)]
                    maps[a.name] = Matrix(field, r, c, ents)
                reps.append(Representation.from_maps(q, field, dims, maps))
            m, n = reps
            hom, ext = hom_ext_dims(m, n)
            assert hom - ext == euler_form(q, m.dims, n.dims)
            checked += 1
    assert checked >= 100
    print(f"\nACCEPTANCE 3 PASS: Euler identity exact on {checked} random pairs")


def test_criterion_4_reflection_round_trip():
    checked = 0
    for letter, rank in RANK_LE_4:
        for scheme in orientation_schemes(letter, rank):
            q = build_quiver(letter, rank, scheme)
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
                    checked += 1
    print(f"\nACCEPTANCE 4 PASS: C-C+ round trip exact on {checked} (module, sink) pairs")


def test_criterion_5_cross_oracle_construction():
    checked = 0
    for letter, rank in [("A", 4), ("D", 4)]:
        q = build_quiver(letter, rank)
        for root in positive_roots(q):
            built = construct_indecomposable(q, root, QQ)
            for seed in range(5):
                sampled = generic_rep_oracle(q, root, QQ, seed=seed)
                assert sampled.dims == built.dims == root
                assert is_isomorphic(sampled, built, seed=seed)
                checked += 1
    print(f"\nACCEPTANCE 5 PASS: generic sampling matches functor construction in {checked} cases")


def test_criterion_6_negative_controls(tmp_path):
    negatives = [kronecker_quiver(), cycle_quiver(3), extended_d4_quiver()]
    for q in negatives:
        assert not classify(q).finite
        path = tmp_path / f"{q.name}.quiver"
        path.write_text(quiver_file_text(q))
        code, _, _ = run_cli(["verify-udr", str(path), "--field", "Q"])
        assert code == 2
    kron = negatives[0]
    module = Representation.from_maps(
        kron,
        QQ,
        (1, 1),
        {"a1": Matrix.from_rows(QQ, [[1]]), "a2": Matrix.from_rows(QQ, [[0]])},
    )
    report = udr_report(kron, module)
    assert (report.end_dim, report.ext_dim) == (1, 1)
    assert report.verdict is UDRVerdict.QUOTIENT_OF_POWER_SERIES
    print("\nACCEPTANCE 6 PASS: negative controls exit 2; Kronecker module bound is k[[t1]]")


def test_criterion_7_first_order_triviality():
    rng = random.Random(426)
    lifts_checked = 0
    for letter, rank in RANK_LE_4:
        q = build_quiver(letter, rank)
        for _, m in all_indecomposables(q, QQ).entries:
            assert tangent_space_dim(m) == 0
            for _ in range(20):
                g = [
                    Matrix(QQ, f.rows, f.cols, [rng.randint(-4, 4) for _ in range(f.rows * f.cols)])
                    for f in m.maps
                ]
                assert lifts_isomorphic(make_lift(m, g), trivial_lift(m))
                lifts_checked += 1
    a2 = build_quiver("A", 2)
    split = direct_sum(Representation.simple(a2, QQ, 0), Representation.simple(a2, QQ, 1))
    assert tangent_space_dim(split) == 1
    nontrivial = make_lift(split, [Matrix.from_rows(QQ, [[1]])])
    assert not lifts_isomorphic(nontrivial, trivial_lift(split))
    print(f"\nACCEPTANCE 7 PASS: {lifts_checked} random lifts of rigid modules trivial; split module deforms")


def test_criterion_8_characteristic_independence(verify_cache):
    fields = ("Q", "F2", "F3", "F5")
    for letter, rank, scheme in _all_runs():
        summaries = []
        for field in fields:
            result = verify_cache.result(letter, rank, scheme, field)
            summaries.append(
                (
                    result["total"],
                    tuple(
                        (tuple(e["root"]), e["end_dim"], e["ext_dim"], e["verdict"])
                        for e in result["entries"]
                    ),
                )
            )
        assert len(set(summaries)) == 1, f"fields disagree on {letter}{rank}_{scheme}"
    print(f"\nACCEPTANCE 8 PASS: verdicts and counts identical over {', '.join(fields)}")


def test_criterion_9_round_trips_and_golden_bytes(tmp_path, golden_a3):
    # format round-trips
    for q in [build_quiver("E", 6, "alternating"), kronecker_quiver(), build_quiver("D", 5)]:
        assert parse_quiver_file(quiver_file_text(q)) == q
    d4 = build_quiver("D", 4)
    rep = construct_indecomposable(d4, (1, 2, 1, 1), QQ)
    _, reparsed = parse_rep_file(rep_file_text(rep, "m"), d4)
    assert reparsed == rep
    # byte-stable golden output for the full A3 verification
    path = tmp_path / "a3.quiver"
    path.write_text(quiver_file_text(build_quiver("A", 3)))
    argv = ["verify-udr", str(path), "--field", "Q", "--format", "json", "--seed", "0"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 == golden_a3
    print("\nACCEPTANCE 9 PASS: files round-trip; A3 verification bytes match the golden file")
