"""Hypothesis fuzz of the command line: mutated quiver and rep files and argv,
and valid quivers at and just past the vertex bound.

Whatever the input, `main` must end in a documented exit code, 0 to 6.  A
nonzero exit prints exactly one line to stderr, starting with `error: `, and
a zero exit prints nothing there.  That line names no private (`_`-prefixed)
function or class of the package, unless the input itself holds the name.
"""

from __future__ import annotations

import ast
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quiverrep
from quiverrep.dynkin import build_quiver, cycle_quiver, kronecker_quiver
from quiverrep.formats import MAX_VERTICES, quiver_file_text, rep_file_text
from quiverrep.indec import construct_indecomposable
from quiverrep.linalg import Field, QQ

from conftest import run_cli

A3 = build_quiver("A", 3)
D4 = build_quiver("D", 4, "alternating")
QUIVER_TEXTS = [quiver_file_text(q) for q in (A3, D4, kronecker_quiver(), cycle_quiver(3))]
REP_TEXTS = [
    rep_file_text(construct_indecomposable(A3, (1, 1, 1), QQ), "P"),
    rep_file_text(construct_indecomposable(A3, (0, 1, 1), Field(3)), "M"),
    "rep F over Q\ndim 1 = 2\ndim 2 = 1\nmap a1 = [[1/2, -3]]\n",
]

# Fragments of the file grammar, near-miss tokens and characters a parser
# may mishandle: line breaks, NUL, a non-ASCII digit and a line separator.
PIECES = [
    "quiver", "vertices:", "arrow", "rep", "over", "dim", "map", "->", ":", "=",
    "[", "]", "[[", "]]", ",", "/", "-", "#", " ", "\n", "\r", "\t", "\x00",
    "0", "1", "2", "16", "17", "-1", "1/0", "99999999999999999999", "Q", "F2",
    "F3", "F4", "F101", "F2147483648", "a1", "3", "x", "é", "\u0663", "\u2028", "1_0",
]
FIELDS = ["Q", "F2", "F3", "F5", "F4", "F0", "F2147483648", "q", ""]
DIMS = ["1,1,1", "0,1,1", "1,1,1,1", "1,2,1,1", "1,1", "2,2,2", "-1,2", "1,,1", "x", "", "1\n1"]

piece = st.sampled_from(PIECES)

# Every `_`-prefixed, non-dunder function, method and class name in the package.
PRIVATE_NAMES = sorted(
    {
        node.name
        for path in Path(quiverrep.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
)


def leaked_private_names(err: str, argv: list[str], files: list[bytes]) -> list[str]:
    """The private names that `err` holds as whole words and the input does not."""
    found = []
    for name in PRIVATE_NAMES:
        if re.search(rf"(?<![A-Za-z0-9_]){name}(?![A-Za-z0-9_])", err):
            if not any(name in a for a in argv) and not any(name.encode() in f for f in files):
                found.append(name)
    return found


@st.composite
def mutated(draw, texts):
    """A base text with a few insertions, deletions and line edits, as bytes,
    sometimes with a byte that is not UTF-8."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["insert", "delete", "duplicate", "drop", "swap"]))
        lines = text.split("\n")
        if op == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + "".join(draw(st.lists(piece, min_size=1, max_size=3))) + text[at:]
        elif op == "delete":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + text[at + draw(st.integers(1, 6)) :]
        else:
            k = draw(st.integers(0, len(lines) - 1))
            if op == "duplicate":
                lines.insert(k, lines[k])
            elif op == "drop":
                del lines[k]
            else:
                j = draw(st.integers(0, len(lines) - 1))
                lines[k], lines[j] = lines[j], lines[k]
            text = "\n".join(lines)
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def argvs(draw):
    quiver, rep1, rep2 = "QUIVER", "REP1", "REP2"
    command = draw(st.sampled_from(["classify", "roots", "indec", "ext", "verify-udr"]))
    argv = [command, quiver]
    if command in ("indec", "verify-udr"):
        argv += ["--field", draw(st.sampled_from(FIELDS))]
        if command == "indec" or draw(st.booleans()):
            argv += ["--dim", draw(st.sampled_from(DIMS))]
    if command == "ext":
        argv += ["--from", rep1, "--to", draw(st.sampled_from([rep1, rep2]))]
    if command != "indec" and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["table", "json", "xml"]))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "7", "x", "\u0661_0", "1_0", "9" * 5000]))]
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["drop", "duplicate", "splice", "insert"]))
        k = draw(st.integers(0, len(argv) - 1))
        if op == "drop":
            del argv[k]
        elif op == "duplicate":
            argv.insert(k, argv[k])
        elif op == "splice":
            argv[k] += draw(piece)
        else:
            argv.insert(k, draw(st.sampled_from(PIECES + ["--dim", "--field", "--from", "missing.rep"])))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), quiver=mutated(QUIVER_TEXTS), rep1=mutated(REP_TEXTS), rep2=mutated(REP_TEXTS))
def test_every_input_ends_in_a_documented_exit_code(argv, quiver, rep1, rep2):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in (("QUIVER", quiver), ("REP1", rep1), ("REP2", rep2)):
            paths[name] = Path(tmp) / f"{name.lower()}.txt"
            paths[name].write_bytes(data)
        argv = [str(paths.get(a, a)) for a in argv]
        code, _, err = run_cli(argv)
    assert code in range(7)
    if code:
        assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1, err
        assert leaked_private_names(err, argv, [quiver, rep1, rep2]) == [], err
    else:
        assert err == ""


def test_a_leaked_private_name_is_caught_unless_the_input_holds_it():
    """The message an overlong `--seed` once gave named the private `_seed`."""
    err = "error: argument --seed: invalid _seed value: '99'\n"
    assert "_seed" in PRIVATE_NAMES
    assert leaked_private_names(err, ["roots", "q.quiver", "--seed", "99"], [b"quiver q\n"]) == ["_seed"]
    assert leaked_private_names(err, ["roots", "q.quiver", "--seed", "_seed"], []) == []
    assert leaked_private_names(err, ["roots", "q.quiver"], [b"vertices: _seed\n"]) == []
    assert leaked_private_names("error: invalid my_seed value\n", [], []) == []


# the highest root: all ones on A_n; on D_n (path 1..n-1, vertex n on n-2)
# 1 at both ends of the path and at n, 2 in between
HIGHEST_ROOT = {"A": lambda n: [1] * n, "D": lambda n: [1] + [2] * (n - 3) + [1, 1]}


@pytest.mark.parametrize("letter", ["A", "D"])
def test_quivers_at_the_vertex_bound_run_and_past_it_are_refused(letter, tmp_path):
    for rank in (MAX_VERTICES, MAX_VERTICES + 1):
        path = tmp_path / f"{letter}{rank}.quiver"
        path.write_text(quiver_file_text(build_quiver(letter, rank, "alternating")))
        dim = ",".join(map(str, HIGHEST_ROOT[letter](rank)))
        for argv in (["classify"], ["roots"], ["verify-udr", "--field", "Q", "--dim", dim]):
            code, out, err = run_cli([argv[0], str(path), *argv[1:], "--format", "json"])
            if rank == MAX_VERTICES:
                assert (code, err) == (0, ""), err
                result = json.loads(out)["result"]
                if argv[0] == "roots":
                    assert result["count"] == (rank * (rank + 1) // 2 if letter == "A" else rank * (rank - 1))
            else:
                assert (code, out) == (1, "")
                assert err == f"error: line 2: {rank} vertices exceed the bound {MAX_VERTICES}\n"
