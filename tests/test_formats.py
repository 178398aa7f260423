"""Quiver/representation file parsing, serialization round-trips, report JSON."""

from __future__ import annotations

import json
import random
import time

import pytest

from quiverrep import __version__
from quiverrep.dynkin import build_quiver, kronecker_quiver
from quiverrep.errors import ParseError
from quiverrep.formats import (
    MAX_CHAR,
    MAX_DIM,
    field_token,
    parse_field,
    parse_quiver_file,
    parse_rep_file,
    quiver_file_text,
    report_json,
    rep_file_text,
)
from quiverrep.linalg import Field, Matrix, QQ
from quiverrep.rep import Representation


class TestFieldTokens:
    def test_rationals(self):
        assert parse_field("Q") == QQ
        assert field_token(QQ) == "Q"

    def test_prime_fields(self):
        for p in (2, 3, 5, 101):
            f = parse_field(f"F{p}")
            assert f.char == p
            assert field_token(f) == f"F{p}"

    def test_rejects_bad_tokens(self):
        for bad in ("F4", "F1", "F0", "GF2", "R", "", "Q2"):
            with pytest.raises(ParseError):
                parse_field(bad)

    def test_characteristic_bound_checked_before_primality(self, monkeypatch):
        def no_primality_test(n):
            raise AssertionError("primality test reached")

        monkeypatch.setattr("quiverrep.linalg._is_prime", no_primality_test)
        assert MAX_CHAR == 2**31
        for bad in ("F2147483648", "F2305843009213693951", "F" + "7" * 5000, "F1" + "0" * 40):
            with pytest.raises(ParseError, match=r"^prime field modulus must be below 2\*\*31 = 2147483648$"):
                parse_field(bad)

    def test_largest_prime_below_the_bound_parses_quickly(self):
        start = time.perf_counter()
        f = parse_field("F2147483647")
        assert time.perf_counter() - start < 1.0
        assert f.char == MAX_CHAR - 1
        assert parse_field("F0007").char == 7


SAMPLE = """\
# a three-vertex path
quiver demo

vertices: x y z
arrow a: x -> y   # first edge
arrow b: y -> z
"""


class TestQuiverFile:
    def test_parse_sample(self):
        q = parse_quiver_file(SAMPLE)
        assert q.name == "demo"
        assert q.labels == ("x", "y", "z")
        assert [(a.name, a.source, a.target) for a in q.arrows] == [("a", 0, 1), ("b", 1, 2)]

    def test_round_trip(self):
        for q in [build_quiver("D", 5, "alternating"), kronecker_quiver(), build_quiver("E", 6)]:
            assert parse_quiver_file(quiver_file_text(q)) == q

    def test_unknown_vertex_names_line(self):
        text = "quiver t\nvertices: a b\narrow e: a -> c\n"
        with pytest.raises(ParseError) as exc:
            parse_quiver_file(text)
        assert exc.value.line == 3

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError):
            parse_quiver_file("quiver t\nvertices: a a\n")

    def test_duplicate_arrow_id(self):
        text = "quiver t\nvertices: a b\narrow e: a -> b\narrow e: b -> a\n"
        with pytest.raises(ParseError):
            parse_quiver_file(text)

    def test_malformed_arrow(self):
        with pytest.raises(ParseError) as exc:
            parse_quiver_file("quiver t\nvertices: a b\narrow e a b\n")
        assert exc.value.line == 3

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_quiver_file("vertices: a b\n")

    def test_header_keyword_is_a_whole_word(self):
        with pytest.raises(ParseError) as exc:
            parse_quiver_file("quiverfoo x\nvertices: a b\n")
        assert exc.value.line == 1

    def test_loops_and_parallel_arrows_accepted(self):
        # the parser is total; classification does the rejecting
        q = parse_quiver_file("quiver l\nvertices: a b\narrow e: a -> a\narrow f: a -> b\narrow g: a -> b\n")
        from quiverrep.quiver import classify

        assert not classify(q).finite


class TestRepFile:
    def test_parse_with_rationals(self):
        q = build_quiver("A", 2)
        text = "rep M over Q\ndim 1 = 2\ndim 2 = 1\nmap a1 = [[1/2,-3],[0,7]]\n"
        with pytest.raises(ParseError):
            parse_rep_file(text, q)  # 1x2 expected, literal is 2x2
        text = "rep M over Q\ndim 1 = 2\ndim 2 = 1\nmap a1 = [[1/2,-3]]\n"
        name, rep = parse_rep_file(text, q)
        assert name == "M"
        assert rep.dims == (2, 1)
        assert rep.maps[0].entry(0, 0) == QQ.parse("1/2")

    def test_missing_map_defaults_to_zero(self):
        q = build_quiver("A", 2)
        _, rep = parse_rep_file("rep M over F3\ndim 1 = 1\ndim 2 = 1\n", q)
        assert rep.maps[0].is_zero()

    def test_round_trip_random_reps(self):
        rng = random.Random(3)
        for q in [build_quiver("A", 3), build_quiver("D", 4, "alternating")]:
            for field in (QQ, Field.prime(5)):
                dims = tuple(rng.randint(0, 2) for _ in q.labels)
                maps = {}
                for a in q.arrows:
                    r, c = dims[a.target], dims[a.source]
                    ents = [
                        QQ.parse(f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}")
                        if field.is_rational
                        else rng.randrange(5)
                        for _ in range(r * c)
                    ]
                    maps[a.name] = Matrix(field, r, c, ents)
                rep = Representation.from_maps(q, field, dims, maps)
                name, parsed = parse_rep_file(rep_file_text(rep, "roundtrip"), q)
                assert name == "roundtrip"
                assert parsed == rep

    def test_bad_field_entry(self):
        q = build_quiver("A", 2)
        text = "rep M over F2\ndim 1 = 1\ndim 2 = 1\nmap a1 = [[1/2]]\n"
        with pytest.raises(ParseError):
            parse_rep_file(text, q)

    def test_oversized_field_line(self):
        q = build_quiver("A", 2)
        for token in ("F2305843009213693951", "F" + "9" * 5000):
            with pytest.raises(ParseError, match="below 2"):
                parse_rep_file(f"rep M over {token}\ndim 1 = 1\n", q)

    def test_unknown_arrow(self):
        q = build_quiver("A", 2)
        with pytest.raises(ParseError):
            parse_rep_file("rep M over Q\nmap bogus = [[1]]\n", q)

    def test_oversized_dim_rejected_before_any_matrix(self, monkeypatch):
        q = build_quiver("A", 2)
        monkeypatch.setattr(Matrix, "zeros", None)  # a matrix built for the default map would fail loudly
        for value in ("99999999999", "1" + "0" * 5000, str(MAX_DIM + 1)):
            with pytest.raises(ParseError, match=f"line 2: dim of vertex '1' exceeds the bound {MAX_DIM}"):
                parse_rep_file(f"rep M over Q\ndim 1 = {value}\ndim 2 = 1\n", q)

    def test_dim_at_the_bound_accepted(self):
        q = build_quiver("A", 2)
        _, rep = parse_rep_file(f"rep M over F2\ndim 1 = 00{MAX_DIM}\n", q)
        assert rep.dims == (MAX_DIM, 0)


class TestReportJSON:
    def test_deterministic_bytes(self):
        a = report_json("roots", "A2", None, {"count": 3, "roots": [[0, 1]]})
        b = report_json("roots", "A2", None, {"count": 3, "roots": [[0, 1]]})
        assert a == b

    def test_envelope_fields(self):
        payload = json.loads(report_json("classify", "X", Field.prime(2), {"finite": True}))
        assert payload["command"] == "classify"
        assert payload["quiver"] == "X"
        assert payload["field"] == "F2"
        assert payload["version"] == __version__
