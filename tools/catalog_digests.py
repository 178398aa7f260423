"""Record the sha256 of every shipped finite catalog, over Q, F2 and F3, and
of the Hom bases, Ext cocycles and coboundary verdicts on fixed random pairs.

A catalog's digest is the sha256 of the `rep_file_text` of its entries, in
catalog order, joined.  The digests go to tests/golden/catalog_sha256.json,
keyed by quiver file name and then by field token; the test suite compares
each catalog it builds against them, so any change to the emitted bytes of
an indecomposable shows.

The basis digests go to tests/golden/basis_sha256.json, keyed by quiver and
field: the sha256 of the `repr` of every `hom_space` basis, every
`ext1_space` cocycle and every `is_coboundary` verdict on seeded random
pairs, so a change to those bytes shows even when the `rep` functions and
their `linalg` counterparts drift together.

The CLI digests go to tests/golden/cli_sha256.json: the sha256 of the exit
code, stdout and stderr of each call of a fixed transcript, run in process
in a scratch directory that holds a copy of `quivers/` and the input files
of CLI_FILES.  The transcript runs `classify` and `roots` in table and
json, `verify-udr --field F2` as a table, `verify-udr --field Q` as json and
`verify-udr --dim 1` on every shipped quiver file, then the fixed calls of
CLI_CALLS (`indec`, `ext`, `verify-udr --dim`, the exit 1/2/3/4/6 paths).
Usage errors that argparse words itself (an unknown command or choice, a
missing or unrecognized argument) are left out, since that wording changes
between Python releases; tests/test_cli.py checks their exit code and
`error:` line instead.
Digests are keyed by quiver file name, or `fixed`, and then by the call's
arguments joined with spaces.  Run from the repository root:

    PYTHONPATH=src python tools/catalog_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

from quiverrep.cli import main as cli_main
from quiverrep.dynkin import build_quiver
from quiverrep.formats import parse_field, parse_quiver_file, rep_file_text
from quiverrep.indec import IndecCatalog, all_indecomposables
from quiverrep.linalg import Field, Matrix
from quiverrep.quiver import Quiver, classify
from quiverrep.rep import Representation, ext1_space, hom_space, is_coboundary

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "catalog_sha256.json"
FIELDS = ("Q", "F2", "F3")
BASES_GOLDEN = ROOT / "tests" / "golden" / "basis_sha256.json"
BASIS_FIELDS = ("Q", "F2", "F3", "F101")
# Two loops and a 2-cycle: the one quiver here where Phi adds two terms.
LOOPS_AND_TWO_CYCLE = Quiver.from_edges(
    ("x", "y"), (("l1", 0, 0), ("u", 0, 1), ("v", 1, 0), ("l2", 1, 1)), "loops_and_two_cycle"
)
BASIS_QUIVERS = (build_quiver("E", 7, "alternating"), build_quiver("E", 8), LOOPS_AND_TWO_CYCLE)
PAIRS = 6
CLI_GOLDEN = ROOT / "tests" / "golden" / "cli_sha256.json"
# The .rep and .quiver inputs of CLI_CALLS; a3 files are over A3_linear (1 -> 2 -> 3).
CLI_FILES = {
    "a3_m.rep": "rep M over Q\ndim 1 = 1\ndim 2 = 1\ndim 3 = 1\nmap a1 = [[1]]\nmap a2 = [[1]]\n",
    "a3_n.rep": "rep N over Q\ndim 2 = 1\ndim 3 = 1\nmap a2 = [[1]]\n",
    "a3_big.rep": "rep B over Q\ndim 1 = 2\ndim 2 = 2\ndim 3 = 2\nmap a1 = [[1/2,-3],[0,7]]\nmap a2 = [[2,1],[4,2]]\n",
    "a3_f3.rep": "rep P over F3\ndim 1 = 1\ndim 2 = 2\nmap a1 = [[2],[1]]\n",
    "a3_bad_dim.rep": "rep X over Q\ndim 1 = x\n",
    "a3_bad_field.rep": "rep X over F4\n",
    "a3_bad_arrow.rep": "rep X over Q\ndim 1 = 1\nmap b9 = [[1]]\n",
    "bad.quiver": "quiver bad\nvertices: a a\n",
}
CLI_CALLS = (
    "indec quivers/a3_linear.quiver --dim 1,1,1 --field Q",
    "indec quivers/a3_reversed.quiver --dim 0,1,1 --field F2",
    "indec quivers/d4_alternating.quiver --dim 1,2,1,1 --field F3",
    "indec quivers/e8_linear.quiver --dim 2,3,4,5,6,4,2,3 --field Q",
    "indec quivers/e8_sinkheavy.quiver --dim 2,3,4,5,6,4,2,3 --field F101",
    "indec quivers/a3_linear.quiver --dim 1,0,1 --field Q",
    "indec quivers/a3_linear.quiver --dim 1,x,1 --field Q",
    "indec quivers/a3_linear.quiver --dim 1,1 --field Q",
    "indec quivers/a3_linear.quiver --dim 1,1,1 --field F4",
    "indec quivers/kronecker.quiver --dim 1,1 --field Q",
    "ext quivers/a3_linear.quiver --from a3_m.rep --to a3_n.rep",
    "ext quivers/a3_linear.quiver --from a3_n.rep --to a3_m.rep --format json",
    "ext quivers/a3_linear.quiver --from a3_big.rep --to a3_big.rep",
    "ext quivers/a3_linear.quiver --from a3_big.rep --to a3_m.rep --format json",
    "ext quivers/a3_linear.quiver --from a3_f3.rep --to a3_f3.rep --format json",
    "ext quivers/a3_linear.quiver --from a3_m.rep --to a3_f3.rep",
    "ext quivers/a3_linear.quiver --from a3_bad_dim.rep --to a3_m.rep",
    "ext quivers/a3_linear.quiver --from a3_m.rep --to a3_bad_field.rep",
    "ext quivers/a3_linear.quiver --from a3_bad_arrow.rep --to a3_m.rep",
    "ext quivers/a3_linear.quiver --from missing.rep --to a3_m.rep",
    "verify-udr quivers/a3_linear.quiver --field Q --dim 0,1,1",
    "verify-udr quivers/a3_linear.quiver --field F2 --dim 1,1,1 --format json",
    "verify-udr quivers/e8_alternating.quiver --field F3 --dim 2,3,4,5,6,4,2,3",
    "verify-udr quivers/e8_linear.quiver --field Q --dim 2,3,4,5,6,4,2,3 --format json",
    "verify-udr quivers/a3_linear.quiver --field Q --dim 1,0,1",
    "verify-udr quivers/a3_linear.quiver --field Q --dim 1,0,1 --format json",
    "verify-udr quivers/a3_linear.quiver --field Q --dim 1,-1,1",
    "verify-udr quivers/kronecker.quiver --field Q --dim 1,1",
    "verify-udr quivers/a3_linear.quiver --field F6",
    "classify missing.quiver",
    "classify quivers",
    "classify bad.quiver",
    "roots bad.quiver --format json",
    "classify quivers/a3_linear.quiver --seed x",
    "classify quivers/a3_linear.quiver --seed 1_0",
    "classify quivers/a3_linear.quiver --seed -12",
)


def catalog_digest(catalog: IndecCatalog) -> str:
    """Hex sha256 of the catalog's entries written as `.rep` files, in order."""
    text = "".join(rep_file_text(m) for _, m in catalog.entries)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def catalog_digests() -> dict[str, dict[str, str]]:
    """Digest of each shipped finite-type quiver's catalog over each of FIELDS."""
    out = {}
    for path in sorted((ROOT / "quivers").glob("*.quiver")):
        q = parse_quiver_file(path.read_text(encoding="utf-8"))
        if classify(q).finite:
            out[path.name] = {t: catalog_digest(all_indecomposables(q, parse_field(t))) for t in FIELDS}
    return out


def _entry(field: Field, rng: random.Random):
    """A third zeros; otherwise a fraction over Q, any residue over F_p."""
    if rng.randrange(3) == 0:
        return 0
    return Fraction(rng.randint(-7, 7), rng.randint(1, 5)) if field.is_rational else rng.randrange(field.char)


def _random_rep(q: Quiver, field: Field, rng: random.Random) -> Representation:
    """Dims in [0, 3], so many blocks are empty."""
    dims = [rng.randint(0, 3) for _ in range(q.vertex_count)]
    maps = [Matrix(field, dims[a.target], dims[a.source], [_entry(field, rng) for _ in range(dims[a.target] * dims[a.source])]) for a in q.arrows]
    return Representation(q, field, dims, maps)


def _product(A: Matrix, B: Matrix) -> Matrix:
    """The matrix product AB, each entry the sum over the inner index."""
    ents = [sum(A.entry(i, t) * B.entry(t, j) for t in range(A.cols)) for i in range(A.rows) for j in range(B.cols)]
    return Matrix(A.field, A.rows, B.cols, ents)


def _cocycles(M: Representation, N: Representation, rng: random.Random) -> list[list[Matrix]]:
    """Zero, a random cocycle, and the coboundary of a random u."""
    field, arrows = M.field, M.quiver.arrows
    shapes = [(N.dims[a.target], M.dims[a.source]) for a in arrows]
    zero = [Matrix.zeros(field, r, c) for r, c in shapes]
    rand = [Matrix(field, r, c, [_entry(field, rng) for _ in range(r * c)]) for r, c in shapes]
    u = [Matrix(field, n, m, [_entry(field, rng) for _ in range(n * m)]) for m, n in zip(M.dims, N.dims)]
    cob = [_product(g, u[a.source]) - _product(u[a.target], f) for a, f, g in zip(arrows, M.maps, N.maps)]
    return [zero, rand, cob]


def _sha(items) -> str:
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


def _mats(mats) -> list:
    return [(m.rows, m.cols, m.entries) for m in mats]


def basis_digests() -> dict[str, dict[str, str]]:
    """Digests of hom_space, ext1_space and is_coboundary on seeded pairs per
    quiver of BASIS_QUIVERS and field of BASIS_FIELDS: PAIRS random pairs
    (M, N), each also as (M, M) and (N, M), plus the zero representation
    against a random one on both sides."""
    out = {}
    for q in BASIS_QUIVERS:
        for token in BASIS_FIELDS:
            field = parse_field(token)
            key = f"{q.name}/{token}"
            rng = random.Random(f"bases:{key}")
            pairs = []
            for _ in range(PAIRS):
                m, n = _random_rep(q, field, rng), _random_rep(q, field, rng)
                pairs += [(m, n), (m, m), (n, m)]
            zero = Representation.zero(q, field)
            pairs += [(zero, pairs[0][1]), (pairs[0][0], zero)]
            hom, ext, verdicts = [], [], []
            for m, n in pairs:
                hom.append([_mats(u) for u in hom_space(m, n).basis])
                cocycles = ext1_space(m, n).cocycles
                ext.append([_mats(eta) for eta in cocycles])
                verdicts.append([is_coboundary(m, n, eta) for eta in _cocycles(m, n, rng) + list(cocycles)])
            out[key] = {"hom": _sha(hom), "ext": _sha(ext), "coboundary": _sha(verdicts)}
    return out


def _cli_digest(args: str) -> str:
    """Hex sha256 of the exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(args.split())
    return _sha((code, out.getvalue(), err.getvalue()))


def _shipped_calls(name: str) -> list[str]:
    path = f"quivers/{name}"
    return [
        f"classify {path}",
        f"classify {path} --format json",
        f"roots {path}",
        f"roots {path} --format json",
        f"verify-udr {path} --field F2",
        f"verify-udr {path} --field Q --format json",
        f"verify-udr {path} --field Q --dim 1",
    ]


def cli_digests() -> dict[str, dict[str, str]]:
    """Digest of each call of the CLI transcript, by quiver file or `fixed`."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            shutil.copytree(ROOT / "quivers", "quivers")
            for name, text in CLI_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            out = {p.name: {a: _cli_digest(a) for a in _shipped_calls(p.name)} for p in sorted(Path("quivers").iterdir())}
            out["fixed"] = {a: _cli_digest(a) for a in CLI_CALLS}
        finally:
            os.chdir(cwd)
    return out


def _write(path: Path, digests: dict) -> None:
    path.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests to {path}")


def main() -> None:
    _write(GOLDEN, catalog_digests())
    _write(BASES_GOLDEN, basis_digests())
    _write(CLI_GOLDEN, cli_digests())


if __name__ == "__main__":
    main()
