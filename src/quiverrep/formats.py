"""Text file formats for quivers and representations, and JSON report assembly.

Quiver files::

    # comment lines and blank lines are ignored
    quiver <name>
    vertices: <label> <label> ...
    arrow <id>: <source-label> -> <target-label>

Representation files (parsed against a quiver)::

    rep <name> over <field>     field is Q or F<p> with p prime
    dim <vertex-label> = <nat>           nat is [0-9]+
    map <arrow-id> = [[..],[..]] row-major, entries n or a/b, each of
                                         n, a, b in [+-]?[0-9]+ (7, -3/2)

Missing dim lines default to 0; missing map lines default to the zero matrix,
which is also how zero-sized matrices are written out.  A repeated dim or map
line is a parse error.  A dim above MAX_DIM is a parse error, raised before
any matrix is built, so a file's maps have at most MAX_DIM**2 entries each.
The bound is well above 6, the largest coordinate of any root of a Dynkin
quiver.  It does not bound Hom/Ext between two files M and N: their
commutation map has sum_v m_v n_v columns and sum_a m_source(a) n_target(a)
rows, so its entry count grows as the square of the quiver's size (20224 x
20480, about 9 GB, for two A80 files of dim 16 everywhere).  `ext`
therefore calls check_pair_size, which refuses a pair over two fields,
then a pair whose map would have more than MAX_MAP_ENTRIES = 2**22
entries, on the two dimension vectors before anything is assembled.
`ext` needs only the map's rank: the rank
engine holds it as sparse rows and turns them into dense lists only for a
residual that has filled up, and never holds more than 2**17 sparse entries,
so at the bound its memory stays near the dense map's, about 23 bytes per
entry plus a 15 MB base, about 110 MB, of the order of the 88 MB peak of
verifying the largest catalog that MAX_VERTICES admits (below).  Two A20
files of dim 10 (a 1900 x 2000 map) peaked at 20-24 MB over F101 and over
Q on a 2-core VM under Python 3.11, against 102 MB for the dense map.  The
bound is on memory, not time; time follows the map's sparsity: over Q with
random entries in [-3, 3], `ext` on two A20 files of dim 8 (a 1216 x 1280
map) takes 0.3 s.
Every pair of
indecomposables on an accepted quiver passes with room to spare: every
positive root lies below the highest root, so the largest such map is that
of the D80 highest root with itself, 310 x 311.  A field token F<p>
needs p < MAX_CHAR = 2**31, checked on the digit string before `int()`:
primality is settled by trial division, about 23k steps at that bound, and
a longer token would otherwise run unbounded or overflow `int()`'s digit
limit.  A quiver may have at most MAX_VERTICES = 80 vertices, checked on
the vertices line before the quiver is built.  D_n is the worst case, with
n(n-1) positive roots and a catalog of that many modules: on a 2-core VM
under Python 3.11, `verify-udr --field Q` of a linear D80 took 11-13 s with
a peak RSS of 88 MB, while `roots` took 0.70 s on D80 and 0.43 s on A80,
each run as one CLI process.
Reports are rendered with sorted keys and a fixed layout so equal inputs
give equal bytes.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from . import __version__
from .errors import ParseError
from .linalg import QQ, Field, Matrix
from .quiver import Quiver
from .rep import Representation, _phi_size

__all__ = [
    "parse_field",
    "parse_quiver_file",
    "quiver_file_text",
    "parse_rep_file",
    "rep_file_text",
    "report_json",
    "MAX_DIM",
    "MAX_MAP_ENTRIES",
    "check_pair_size",
    "MAX_CHAR",
    "MAX_VERTICES",
]

MAX_DIM = 16
MAX_MAP_ENTRIES = 2**22
MAX_CHAR = 2**31
MAX_VERTICES = 80

_FIELD_RE = re.compile(r"^(Q|F([0-9]+))$")


def parse_field(token: str) -> Field:
    """Parse a field token: Q for the rationals, F<p> for a prime field."""
    m = _FIELD_RE.match(token.strip())
    if not m:
        raise ParseError(f"unknown field {token!r} (expected Q or F<p>)")
    if m.group(1) == "Q":
        return QQ
    digits = m.group(2).lstrip("0") or "0"
    if len(digits) > len(str(MAX_CHAR)) or int(digits) >= MAX_CHAR:
        raise ParseError(f"prime field modulus must be below 2**31 = {MAX_CHAR}")
    p = int(digits)
    if p < 2:  # Field(0) is the rationals, so F0 must be refused here
        raise ParseError(f"prime field modulus must be >= 2, got {p}")
    try:
        return Field(p)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_quiver_file(text: str) -> Quiver:
    name = None
    labels: list[str] = []
    arrows: list[tuple[str, int, int]] = []
    index: dict[str, int] = {}
    arrow_ids: set[str] = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "quiver":
            if len(parts) != 2:
                raise ParseError("expected 'quiver <name>'", lineno)
            if name is not None:
                raise ParseError("duplicate quiver header", lineno)
            name = parts[1]
        elif line.startswith("vertices:"):
            if labels:
                raise ParseError("duplicate vertices line", lineno)
            names = line[len("vertices:") :].split()
            if not names:
                raise ParseError("vertices line lists no vertices", lineno)
            if len(names) > MAX_VERTICES:
                raise ParseError(f"{len(names)} vertices exceed the bound {MAX_VERTICES}", lineno)
            for v in names:
                if v in index:
                    raise ParseError(f"duplicate vertex {v!r}", lineno)
                index[v] = len(labels)
                labels.append(v)
        elif line.startswith("arrow"):
            m = re.match(r"^arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", line)
            if not m:
                raise ParseError("expected 'arrow <id>: <src> -> <dst>'", lineno)
            aid, src, dst = m.groups()
            if aid in arrow_ids:
                raise ParseError(f"duplicate arrow id {aid!r}", lineno)
            if src not in index:
                raise ParseError(f"unknown vertex {src!r}", lineno)
            if dst not in index:
                raise ParseError(f"unknown vertex {dst!r}", lineno)
            arrow_ids.add(aid)
            arrows.append((aid, index[src], index[dst]))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if name is None:
        raise ParseError("missing 'quiver <name>' header")
    if not labels:
        raise ParseError("missing vertices line")
    return Quiver.from_edges(labels, arrows, name)


def quiver_file_text(Q: Quiver) -> str:
    lines = [f"quiver {Q.name or 'unnamed'}", "vertices: " + " ".join(Q.labels)]
    for a in Q.arrows:
        lines.append(f"arrow {a.name}: {Q.labels[a.source]} -> {Q.labels[a.target]}")
    return "\n".join(lines) + "\n"


def _parse_matrix_literal(s: str, field: Field, rows: int, cols: int, lineno: int) -> Matrix:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("matrix literal must look like [[..],[..]]", lineno)
    inner = s[1:-1].strip()
    row_strings = re.findall(r"\[([^\[\]]*)\]", inner)
    stripped = re.sub(r"\[[^\[\]]*\]|,|\s", "", inner)
    if stripped:
        raise ParseError(f"malformed matrix literal {s!r}", lineno)
    data = []
    for rs in row_strings:
        tokens = [t for t in rs.replace(",", " ").split() if t]
        try:
            data.append([field.parse(t) for t in tokens])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad matrix entry: {exc}", lineno) from exc
    if len(data) != rows or any(len(r) != cols for r in data):
        got = f"{len(data)}x{len(data[0]) if data else 0}"
        if any(len(r) != len(data[0]) for r in data):  # ragged: name the first row that does not fit
            got = next(f"row {i} of length {len(r)}" for i, r in enumerate(data, 1) if len(r) != cols)
        raise ParseError(f"matrix must be {rows}x{cols}, got {got}", lineno)
    return Matrix.from_rows(field, data, cols=cols)


def check_pair_size(M: Representation, N: Representation) -> None:
    """Refuse a pair whose Hom/Ext commutation map would exceed
    MAX_MAP_ENTRIES; a pair on different quivers or fields raises
    MismatchError first."""
    cod, dom = _phi_size(M, N)
    if cod * dom > MAX_MAP_ENTRIES:
        raise ParseError(f"Hom/Ext of this pair needs a {cod}x{dom} map, over the bound of {MAX_MAP_ENTRIES} entries")


def parse_rep_file(text: str, quiver: Quiver) -> tuple[str, Representation]:
    """Parse a representation file against its quiver; returns (name, representation)."""
    name = None
    field: Field | None = None
    dims = [0] * quiver.vertex_count
    dim_lines: set[str] = set()
    vindex = {lbl: i for i, lbl in enumerate(quiver.labels)}
    arrow_by_name = {a.name: a for a in quiver.arrows}
    raw_maps: dict[str, tuple[int, str]] = {}
    for lineno, line in _content_lines(text):
        if line.startswith("rep"):
            m = re.match(r"^rep\s+(\S+)\s+over\s+(\S+)$", line)
            if not m:
                raise ParseError("expected 'rep <name> over <field>'", lineno)
            if name is not None:
                raise ParseError("duplicate rep header", lineno)
            name = m.group(1)
            field = parse_field(m.group(2))
        elif line.startswith("dim"):
            m = re.match(r"^dim\s+(\S+)\s*=\s*([0-9]+)$", line)
            if not m:
                raise ParseError("expected 'dim <vertex> = <nat>'", lineno)
            v = m.group(1)
            if v not in vindex:
                raise ParseError(f"unknown vertex {v!r}", lineno)
            if v in dim_lines:
                raise ParseError(f"duplicate dim line for vertex {v!r}", lineno)
            dim_lines.add(v)
            # compare lengths first: int() refuses strings of over 4300 digits
            digits = m.group(2).lstrip("0") or "0"
            if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
                raise ParseError(f"dim of vertex {v!r} exceeds the bound {MAX_DIM}", lineno)
            dims[vindex[v]] = int(digits)
        elif line.startswith("map"):
            m = re.match(r"^map\s+(\S+)\s*=\s*(.+)$", line)
            if not m:
                raise ParseError("expected 'map <arrowid> = [[..],[..]]'", lineno)
            aid = m.group(1)
            if aid not in arrow_by_name:
                raise ParseError(f"unknown arrow {aid!r}", lineno)
            if aid in raw_maps:
                raise ParseError(f"duplicate map line for arrow {aid!r}", lineno)
            raw_maps[aid] = (lineno, m.group(2))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if name is None or field is None:
        raise ParseError("missing 'rep <name> over <field>' header")
    maps: dict[str, Matrix] = {}
    for aid, (lineno, literal) in raw_maps.items():
        a = arrow_by_name[aid]
        maps[aid] = _parse_matrix_literal(literal, field, dims[a.target], dims[a.source], lineno)
    try:
        rep = Representation.from_maps(quiver, field, dims, maps)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return name, rep


def _matrix_literal(m: Matrix) -> str:
    rows = []
    for i in range(m.rows):
        rows.append("[" + ",".join(str(x) for x in m.row(i)) + "]")
    return "[" + ",".join(rows) + "]"


def rep_file_text(rep: Representation, name: str = "M") -> str:
    lines = [f"rep {name} over {rep.field}"]
    for lbl, d in zip(rep.quiver.labels, rep.dims):
        lines.append(f"dim {lbl} = {d}")
    for a, m in zip(rep.quiver.arrows, rep.maps):
        if m.rows > 0 and m.cols > 0:
            lines.append(f"map {a.name} = {_matrix_literal(m)}")
    return "\n".join(lines) + "\n"


def report_json(command: str, quiver_name: str, field: Field | None, result: dict) -> str:
    payload = {
        "command": command,
        "quiver": quiver_name,
        "field": None if field is None else str(field),
        "result": result,
        "version": __version__,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
