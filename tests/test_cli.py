"""Command-line surface: outputs, exit codes, and determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quiverrep.dynkin import build_quiver, cycle_quiver, kronecker_quiver
from quiverrep.formats import MAX_DIM, parse_rep_file, quiver_file_text
from quiverrep.linalg import Matrix
from quiverrep.rep import hom_ext_dims, is_schur

from conftest import run_cli


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

    def test_oversized_field_line_exit_1(self, files, tmp_path):
        big = self._write_rep(tmp_path, "big.rep", "rep B over F2305843009213693951\ndim 1 = 1\n")
        code, out, err = run_cli(["ext", files["A2_linear"], "--from", big, "--to", big])
        assert code == 1
        assert out == ""
        assert err == "error: prime field modulus must be below 2**31 = 2147483648\n"

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
        ],
    )
    def test_usage_error_exit_6_one_line(self, files, argv):
        argv = [files.get(a, a) for a in argv]
        code, out, err = run_cli(argv)
        assert code == 6
        assert out == ""
        assert err.startswith("error: quiverrep") and err.count("\n") == 1

    def test_help_still_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["classify", "--help"])
        assert exc.value.code == 0


class TestDeterminism:
    def test_byte_identical_reruns(self, files):
        argv = ["verify-udr", files["A3_linear"], "--field", "Q", "--format", "json", "--seed", "0"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_roots_byte_identical(self, files):
        argv = ["roots", files["D4_linear"], "--format", "json"]
        assert run_cli(argv)[1] == run_cli(argv)[1]


class TestShippedQuivers:
    def test_all_files_parse_and_classify(self):
        shipped = Path(__file__).parent.parent / "quivers"
        files = sorted(shipped.glob("*.quiver"))
        assert len(files) >= 35
        negatives = {"kronecker", "a2_tilde_cycle", "d4_tilde"}
        for path in files:
            code, _, _ = run_cli(["classify", str(path)])
            expected = 2 if path.stem in negatives else 0
            assert code == expected, path.name

    def test_two_orientations_per_diagram(self):
        shipped = Path(__file__).parent.parent / "quivers"
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
