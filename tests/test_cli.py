"""Command-line surface: outputs, exit codes, and determinism."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quiverrep.linalg as linalg
from quiverrep.dynkin import build_quiver, cycle_quiver, kronecker_quiver
from quiverrep.errors import InternalInvariantError
from quiverrep.formats import MAX_DIM, MAX_MAP_ENTRIES, parse_quiver_file, parse_rep_file, quiver_file_text
from quiverrep.linalg import Matrix
from quiverrep.quiver import Quiver, classify
from quiverrep.rep import hom_ext_dims, is_schur
from quiverrep.roots import positive_roots

from conftest import load_tool, run_cli

QUIVER_DIR = Path(__file__).parent.parent / "quivers"

# The most digits int() reads from a string; 0 where there is no limit
# (before Python 3.10.7, or with PYTHONINTMAXSTRDIGITS=0).
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for q in [
        build_quiver("A", 2),
        build_quiver("A", 3),
        build_quiver("D", 4),
        kronecker_quiver(),
        cycle_quiver(3),
    ]:
        p = tmp_path / f"{q.name}.quiver"
        p.write_text(quiver_file_text(q))
        paths[q.name] = str(p)
    bad = tmp_path / "bad.quiver"
    bad.write_text("quiver broken\nvertices: a b\narrow e: a => b\n")
    paths["bad"] = str(bad)
    return paths


class TestClassify:
    def test_finite(self, files):
        code, out, _ = run_cli(["classify", files["A3_linear"]])
        assert code == 0
        assert "finite representation type" in out
        assert "A3" in out

    def test_infinite_exit_2(self, files):
        code, out, _ = run_cli(["classify", files["kronecker"]])
        assert code == 2
        assert "infinite" in out

    def test_parse_error_names_line(self, files):
        code, _, err = run_cli(["classify", files["bad"]])
        assert code == 1
        assert "line 3" in err

    def test_prefixed_header_exit_1(self, tmp_path):
        p = tmp_path / "prefixed.quiver"
        p.write_text("quiverfoo x\nvertices: a b\n")
        code, out, err = run_cli(["classify", str(p)])
        assert code == 1
        assert out == ""
        assert "line 1" in err

    def test_missing_file(self):
        code, _, err = run_cli(["classify", "/nonexistent/q.quiver"])
        assert code == 1

    def test_json_format(self, files):
        code, out, _ = run_cli(["classify", files["D4_linear"], "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == {"finite": True, "components": ["D4"]}


class TestRoots:
    def test_a2(self, files):
        code, out, _ = run_cli(["roots", files["A2_linear"]])
        assert code == 0
        assert "positive roots (3):" in out
        assert out.index("0,1") < out.index("1,0") < out.index("1,1")

    def test_a1(self, tmp_path):
        p = tmp_path / "a1.quiver"
        p.write_text(quiver_file_text(build_quiver("A", 1)))
        code, out, _ = run_cli(["roots", str(p)])
        assert code == 0
        assert "positive roots (1):" in out

    def test_infinite_exit_2(self, files):
        code, _, err = run_cli(["roots", files["kronecker"]])
        assert code == 2

    def test_loop_exit_2(self, tmp_path):
        """The closure of a one-vertex loop ends at once, so only the
        finite-type gate tells it apart from a finite quiver."""
        p = tmp_path / "jordan.quiver"
        p.write_text(quiver_file_text(Quiver.from_edges(("v",), (("a", 0, 0),), "jordan")))
        code, out, err = run_cli(["roots", str(p)])
        assert (code, out) == (2, "")
        assert err == "error: Tits form is not positive definite (loop at vertex 'v'); quiver has infinite representation type\n"

    def test_json_sorted(self, files):
        code, out, _ = run_cli(["roots", files["D4_linear"], "--format", "json"])
        roots = json.loads(out)["result"]["roots"]
        assert roots == sorted(roots)
        assert len(roots) == 12


class TestIndec:
    def test_emitted_rep_file_passes_checks(self, files, tmp_path):
        code, out, _ = run_cli(["indec", files["A2_linear"], "--dim", "1,1", "--field", "Q"])
        assert code == 0
        q = build_quiver("A", 2)
        _, rep = parse_rep_file(out, q)
        assert rep.dims == (1, 1)
        assert not rep.maps[0].is_zero()
        assert is_schur(rep)
        assert hom_ext_dims(rep, rep) == (1, 0)

    def test_simple_dimension_vector(self, files):
        code, out, _ = run_cli(["indec", files["A3_linear"], "--dim", "0,1,0", "--field", "F5"])
        assert code == 0
        assert "dim 2 = 1" in out
        assert "map" not in out

    def test_non_root_exit_3_prints_q(self, files):
        code, _, err = run_cli(["indec", files["A2_linear"], "--dim", "2,2", "--field", "Q"])
        assert code == 3
        assert "q=4" in err

    def test_infinite_type_exit_2(self, files):
        code, _, _ = run_cli(["indec", files["kronecker"], "--dim", "1,1", "--field", "Q"])
        assert code == 2

    @pytest.mark.parametrize("token", ["F2305843009213693951", "F" + "7" * 5000])
    def test_oversized_field_exit_1(self, files, token):
        code, out, err = run_cli(["indec", files["A2_linear"], "--dim", "1,1", "--field", token])
        assert code == 1
        assert out == ""
        assert err == "error: prime field modulus must be below 2**31 = 2147483648\n"

    @pytest.mark.parametrize("dim", ["1_0,1", "\u0661,1", "1,\uff11", " 1,1", "1,1 "])
    def test_dim_outside_the_grammar_exit_1(self, files, dim):
        code, out, err = run_cli(["indec", files["A2_linear"], "--dim", dim, "--field", "Q"])
        assert (code, out) == (1, "")
        assert err.startswith("error: bad dimension vector ") and err.count("\n") == 1

    def test_largest_field_below_the_bound(self, files):
        code, out, _ = run_cli(["indec", files["A2_linear"], "--dim", "1,1", "--field", "F2147483647"])
        assert code == 0
        assert out.startswith("rep indec_1_1 over F2147483647\n")


class TestExt:
    def _write_rep(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_simples_on_a2(self, files, tmp_path):
        s1 = self._write_rep(tmp_path, "s1.rep", "rep S1 over Q\ndim 1 = 1\ndim 2 = 0\n")
        s2 = self._write_rep(tmp_path, "s2.rep", "rep S2 over Q\ndim 1 = 0\ndim 2 = 1\n")
        code, out, _ = run_cli(["ext", files["A2_linear"], "--from", s1, "--to", s2])
        assert code == 0
        assert "dim Hom = 0" in out
        assert "dim Ext1 = 1" in out
        assert "euler form = -1" in out

    def test_zero_rep(self, files, tmp_path):
        z = self._write_rep(tmp_path, "z.rep", "rep Z over Q\ndim 1 = 0\ndim 2 = 0\n")
        code, out, _ = run_cli(["ext", files["A2_linear"], "--from", z, "--to", z, "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"] == {"hom_dim": 0, "ext_dim": 0, "euler_form": 0}

    def test_projective_self(self, files, tmp_path):
        p1 = self._write_rep(
            tmp_path, "p1.rep", "rep P1 over Q\ndim 1 = 1\ndim 2 = 1\nmap a1 = [[1]]\n"
        )
        code, out, _ = run_cli(["ext", files["A2_linear"], "--from", p1, "--to", p1])
        assert code == 0
        assert "dim Hom = 1" in out and "dim Ext1 = 0" in out

    def test_oversized_dim_exit_1(self, files, tmp_path, monkeypatch):
        monkeypatch.setattr(Matrix, "zeros", None)  # no matrix may be built for this file
        big = self._write_rep(tmp_path, "big.rep", "rep B over Q\ndim 1 = 99999999999\n")
        code, out, err = run_cli(["ext", files["A2_linear"], "--from", big, "--to", big])
        assert code == 1
        assert out == ""
        assert err == f"error: line 2: dim of vertex '1' exceeds the bound {MAX_DIM}\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("dim 1 = \u0661\n", "line 2: expected 'dim <vertex> = <nat>'"),
            ("dim 1 = 1\ndim 2 = 1\nmap a1 = [[1_0]]\n", "line 4: bad matrix entry: '1_0' is not an integer"),
            ("dim 1 = 1\ndim 2 = 1\nmap a1 = [[\u0661]]\n", "line 4: bad matrix entry: '\u0661' is not an integer"),
        ],
    )
    def test_integers_outside_the_grammar_exit_1(self, files, tmp_path, body, message):
        bad = self._write_rep(tmp_path, "bad.rep", "rep B over Q\n" + body)
        good = self._write_rep(tmp_path, "good.rep", "rep G over Q\ndim 1 = 1\ndim 2 = 1\nmap a1 = [[10]]\n")
        code, out, err = run_cli(["ext", files["A2_linear"], "--from", bad, "--to", good])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_ragged_literal_exit_1_names_the_row(self, files, tmp_path):
        bad = self._write_rep(tmp_path, "bad.rep", "rep B over Q\ndim 1 = 2\ndim 2 = 2\nmap a1 = [[1,2],[3]]\n")
        code, out, err = run_cli(["ext", files["A2_linear"], "--from", bad, "--to", bad])
        assert (code, out) == (1, "")
        assert err == "error: line 4: matrix must be 2x2, got row 2 of length 1\n"

    def test_oversized_field_line_exit_1(self, files, tmp_path):
        big = self._write_rep(tmp_path, "big.rep", "rep B over F2305843009213693951\ndim 1 = 1\n")
        code, out, err = run_cli(["ext", files["A2_linear"], "--from", big, "--to", big])
        assert code == 1
        assert out == ""
        assert err == "error: prime field modulus must be below 2**31 = 2147483648\n"

    def test_oversized_pair_exit_1_before_assembly(self, tmp_path):
        """Every dim of two A80 files at MAX_DIM would make a 20224x20480 map."""
        q = tmp_path / "a80.quiver"
        q.write_text(quiver_file_text(build_quiver("A", 80)))
        big = self._write_rep(tmp_path, "big.rep", "rep B over Q\n" + "".join(f"dim {v} = {MAX_DIM}\n" for v in range(1, 81)))
        start = time.perf_counter()
        code, out, err = run_cli(["ext", str(q), "--from", big, "--to", big])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"error: Hom/Ext of this pair needs a 20224x20480 map, over the bound of {MAX_MAP_ENTRIES} entries\n"
        )

    def test_field_mismatch_of_an_oversized_pair_exit_4_first(self, tmp_path, monkeypatch):
        """The same A80 pair with one file over F3: the field check comes
        before the size check, and nothing is assembled."""
        monkeypatch.setattr("quiverrep.rep._phi_rows", None)  # Phi's rows may not be built
        q = tmp_path / "a80.quiver"
        q.write_text(quiver_file_text(build_quiver("A", 80)))
        dims = "".join(f"dim {v} = {MAX_DIM}\n" for v in range(1, 81))
        big_q = self._write_rep(tmp_path, "q.rep", "rep B over Q\n" + dims)
        big_f3 = self._write_rep(tmp_path, "f3.rep", "rep C over F3\n" + dims)
        start = time.perf_counter()
        code, out, err = run_cli(["ext", str(q), "--from", big_q, "--to", big_f3])
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (4, "", "error: field mismatch: Q vs F3\n")

    @pytest.mark.parametrize("kind, rank", [("E", 8), ("D", 33), ("D", 80)])
    def test_highest_root_pair_accepted(self, kind, rank, tmp_path):
        """Every positive root lies below the highest root, so the D80 highest root
        with itself (a 310x311 map) is the largest pair of indecomposables that
        an accepted quiver has."""
        Q = build_quiver(kind, rank)
        q = tmp_path / "q.quiver"
        q.write_text(quiver_file_text(Q))
        top = max(positive_roots(Q), key=sum)
        code, rep_text, _ = run_cli(["indec", str(q), "--dim", ",".join(map(str, top)), "--field", "Q"])
        assert code == 0
        m = self._write_rep(tmp_path, "top.rep", rep_text)
        code, out, err = run_cli(["ext", str(q), "--from", m, "--to", m, "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"] == {"hom_dim": 1, "ext_dim": 0, "euler_form": 1}

    def test_decomposable_pair_below_the_bound_accepted(self, tmp_path):
        """Two A20 files of dim 3 everywhere and zero maps: a 171x180 map."""
        q = tmp_path / "a20.quiver"
        q.write_text(quiver_file_text(build_quiver("A", 20)))
        m = self._write_rep(tmp_path, "m.rep", "rep M over F2\n" + "".join(f"dim {v} = 3\n" for v in range(1, 21)))
        code, out, err = run_cli(["ext", str(q), "--from", m, "--to", m, "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"] == {"hom_dim": 180, "ext_dim": 171, "euler_form": 9}

    def test_field_mismatch_exit_4(self, files, tmp_path):
        a = self._write_rep(tmp_path, "a.rep", "rep A over Q\ndim 1 = 1\ndim 2 = 0\n")
        b = self._write_rep(tmp_path, "b.rep", "rep B over F2\ndim 1 = 0\ndim 2 = 1\n")
        code, _, err = run_cli(["ext", files["A2_linear"], "--from", a, "--to", b])
        assert code == 4
        assert "mismatch" in err


class TestVerifyUDR:
    def test_a2_over_f2(self, files):
        code, out, _ = run_cli(["verify-udr", files["A2_linear"], "--field", "F2"])
        assert code == 0
        assert "THEOREM VERIFIED: 3/3 indecomposables have R(kQ,M) ≅ k" in out

    def test_d4_over_q(self, files):
        code, out, _ = run_cli(["verify-udr", files["D4_linear"], "--field", "Q"])
        assert code == 0
        assert "THEOREM VERIFIED: 12/12" in out

    def test_kronecker_exit_2_names_positivity(self, files):
        code, _, err = run_cli(["verify-udr", files["kronecker"], "--field", "Q"])
        assert code == 2
        assert "not positive definite" in err

    def test_single_root(self, files):
        code, out, _ = run_cli(
            ["verify-udr", files["A3_linear"], "--field", "F3", "--dim", "1,1,0", "--format", "json"]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result == {
            "root": [1, 1, 0],
            "end_dim": 1,
            "ext_dim": 0,
            "verdict": "isomorphic_to_k",
        }

    def test_a_failing_catalog_step_names_the_quiver_root_step_and_vertex(self, files, monkeypatch):
        """A back substitution that fails knows only its matrix; the rebuild
        step that ran it names the quiver, the root, the walk step and the
        vertex, and the CLI exits 5 with one `error:` line."""

        def corrupt(*args):
            raise InternalInvariantError("back substitution on a 1x2 matrix: row 0 is not divisible by its pivot 2")

        monkeypatch.setattr(linalg, "_back_substitute", corrupt)
        where = r"error: quiver D4_linear, root \([0-9,]+\), walk step [0-9]+, vertex [0-9]+: "
        for argv in (["verify-udr"], ["verify-udr", "--dim", "1,1,1,1"], ["indec", "--dim", "1,1,1,1"]):
            code, out, err = run_cli([argv[0], files["D4_linear"], "--field", "Q", *argv[1:]])
            assert (code, out) == (5, "")
            assert re.fullmatch(where + "back substitution on a 1x2 matrix: .*\n", err), err

    def test_a_failing_udr_report_names_the_root(self, files, monkeypatch):
        """A rank engine that fails inside udr_report: verify-udr names the
        quiver and the root it was checking, for a catalog and for --dim."""

        def corrupt(*args):
            raise InternalInvariantError("rank engine broke")

        monkeypatch.setattr(linalg, "_unit_phase", corrupt)
        for extra, root in (([], "0,0,1"), (["--dim", "1,1,0"], "1,1,0")):
            code, out, err = run_cli(["verify-udr", files["A3_linear"], "--field", "F3", *extra])
            assert (code, out, err) == (5, "", f"error: quiver A3_linear, root ({root}): rank engine broke\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["classify"],
            ["indec", "A2_linear", "--dim", "-1,2", "--field", "Q"],
            ["roots", "A2_linear", "--format", "xml"],
            ["classify", "A2_linear", "--seed", "x"],
            ["verify-udr", "A2_linear", "--field", "F2", "--seed", "\u0661_0"],
            ["verify-udr", "A2_linear", "--field", "F2", "--seed", "1_0"],
            ["classify", "A2_linear", "extra"],
            ["indec", "A2_linear", "--dim", "1,1"],
            ["ext", "A2_linear", "--from", "A2_linear"],
            ["roots", "no/such.quiver", "--format", "xml"],
        ],
    )
    def test_usage_error_exit_6_one_line(self, files, argv):
        argv = [files.get(a, a) for a in argv]
        code, out, err = run_cli(argv)
        assert code == 6
        assert out == ""
        assert err.startswith("error: quiverrep") and err.count("\n") == 1

    @pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() has no digit limit in this interpreter")
    def test_overlong_seed_is_an_invalid_int_value(self, files):
        seed = "9" * (INT_MAX_STR_DIGITS + 1)
        code, out, err = run_cli(["roots", files["A2_linear"], "--seed", seed])
        assert (code, out) == (6, "")
        assert err == f"error: quiverrep roots: argument --seed: invalid int value: {seed!r}\n"

    def test_help_still_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["classify", "--help"])
        assert exc.value.code == 0


class TestOneLineErrors:
    """Inputs the CLI fuzz test turned up: each ends in its exit code with
    one `error:` line."""

    def test_undecodable_file_exit_1(self, tmp_path):
        p = tmp_path / "latin1.quiver"
        p.write_bytes(b"quiver caf\xe9\nvertices: a\n")
        code, out, err = run_cli(["classify", str(p)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {p}: 'utf-8' codec can't decode") and err.count("\n") == 1

    def test_nul_in_path_exit_1(self):
        code, _, err = run_cli(["classify", "a\x00b.quiver"])
        assert code == 1
        assert err == "error: cannot read a\\x00b.quiver: embedded null byte\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["roots"],
            ["indec", "--dim", "x", "--field", "F4"],
            ["ext", "--from", "missing.rep", "--to", "missing.rep"],
            ["verify-udr", "--field", "F4", "--dim", "x"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_the_quiver_file_is_read_before_any_other_argument(self, tmp_path, argv):
        """`main` reads the quiver file once, before the subcommand checks
        `--field`, `--dim` or a `.rep` file, so its error is the one reported."""
        path = tmp_path / "missing.quiver"
        argv = [argv[0], str(path), *(str(tmp_path / a) if a.endswith(".rep") else a for a in argv[1:])]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == f"error: cannot read {path}: No such file or directory\n"

    def test_line_break_in_argv_is_escaped(self, files):
        code, _, err = run_cli(["classify", files["A2_linear"], "x\ny"])
        assert code == 6
        assert err == "error: quiverrep: unrecognized arguments: x\\ny\n"

    def test_infinite_classify_names_the_reason(self, files):
        code, out, err = run_cli(["classify", files["kronecker"]])
        assert code == 2
        assert "verdict: infinite representation type" in out
        assert err.startswith("error: infinite representation type: ") and err.count("\n") == 1


class TestInfiniteTypeRefusal:
    """Every command that needs finite type refuses an infinite-type quiver
    with the one reason that holds for all of them, loops included."""

    @pytest.mark.parametrize(
        "path",
        [None, QUIVER_DIR / "kronecker.quiver", QUIVER_DIR / "a2_tilde_cycle.quiver"],
        ids=["loop", "kronecker", "a2_tilde_cycle"],
    )
    def test_one_refusal_line_on_every_path(self, tmp_path, path):
        if path is None:
            path = tmp_path / "jordan.quiver"
            path.write_text(quiver_file_text(Quiver.from_edges(("v",), (("a", 0, 0),), "jordan")))
        Q = parse_quiver_file(path.read_text())
        dim = ",".join("1" * Q.vertex_count)
        expected = f"error: Tits form is not positive definite ({classify(Q).witness}); quiver has infinite representation type\n"
        for argv in [
            ["roots"],
            ["roots", "--format", "json"],
            ["verify-udr", "--field", "Q"],
            ["verify-udr", "--field", "Q", "--dim", dim],
            ["indec", "--field", "Q", "--dim", dim],
        ]:
            assert run_cli([argv[0], str(path), *argv[1:]]) == (2, "", expected), argv


class TestDeterminism:
    def test_byte_identical_reruns(self, files):
        argv = ["verify-udr", files["A3_linear"], "--field", "Q", "--format", "json", "--seed", "0"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_roots_byte_identical(self, files):
        argv = ["roots", files["D4_linear"], "--format", "json"]
        assert run_cli(argv)[1] == run_cli(argv)[1]

    def test_transcript_matches_the_golden_file(self):
        """Exit code, stdout and stderr of the fixed transcript of
        tools/catalog_digests.py hash to the recorded digests."""
        digests = load_tool("catalog_digests")
        assert digests.cli_digests() == json.loads(digests.CLI_GOLDEN.read_text(encoding="utf-8"))


class TestShippedQuivers:
    def test_all_files_parse_and_classify(self):
        shipped = QUIVER_DIR
        files = sorted(shipped.glob("*.quiver"))
        assert len(files) >= 35
        negatives = {"kronecker", "a2_tilde_cycle", "d4_tilde"}
        for path in files:
            code, _, _ = run_cli(["classify", str(path)])
            expected = 2 if path.stem in negatives else 0
            assert code == expected, path.name

    def test_two_orientations_per_diagram(self):
        shipped = QUIVER_DIR
        for letter, rank in [("A", r) for r in range(2, 9)] + [
            ("D", r) for r in range(4, 9)
        ] + [("E", 6), ("E", 7), ("E", 8)]:
            matches = list(shipped.glob(f"{letter.lower()}{rank}_*.quiver"))
            matches = [m for m in matches if "tilde" not in m.stem]
            assert len(matches) >= 2, f"{letter}{rank}"


class TestModuleEntry:
    def test_python_dash_m(self):
        repo = Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "quiverrep", "classify", "quivers/a3_linear.quiver"],
            cwd=repo,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "components: A3" in proc.stdout

    def test_import_loads_no_dataclass_machinery(self):
        """Start-up guard: `dataclasses` pulls in `inspect`, `ast`, `dis` and
        `tokenize`, which every CLI process would pay for before reading argv."""
        repo = Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys; before = set(sys.modules); import quiverrep.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_roots_on_a80_finishes_within_seconds(self, tmp_path):
        repo = Path(__file__).parent.parent
        path = tmp_path / "a80.quiver"
        path.write_text(quiver_file_text(build_quiver("A", 80)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "quiverrep", "roots", str(path), "--format", "json"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["count"] == 80 * 81 // 2
        assert elapsed < 5.0, f"roots on A80 took {elapsed:.1f} s"
