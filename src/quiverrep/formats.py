"""Text file formats for quivers and representations, and JSON report assembly.

Quiver files::

    # comment lines and blank lines are ignored
    quiver <name>
    vertices: <label> <label> ...
    arrow <id>: <source-label> -> <target-label>

Representation files (parsed against a quiver)::

    rep <name> over <field>     field is Q or F<p> with p prime
    dim <vertex-label> = <nat>
    map <arrow-id> = [[..],[..]] row-major, entries like 7 or -3/2

Missing dim lines default to 0; missing map lines default to the zero matrix,
which is also how zero-sized matrices are written out.  A dim above MAX_DIM is
a parse error, raised before any matrix is built: Hom/Ext between two files
works on a matrix of at most #arrows x #vertices x MAX_DIM**4 entries, so an
unbounded dim would be an unbounded allocation.  The bound is well above 6,
the largest coordinate of any root of a Dynkin quiver.  A field token F<p>
needs p < MAX_CHAR = 2**31, checked on the digit string before `int()`:
primality is settled by trial division, about 23k steps at that bound, and
a longer token would otherwise run unbounded or overflow `int()`'s digit
limit.  Reports are rendered with sorted keys and a fixed layout so equal
inputs give equal bytes.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from . import __version__
from .errors import ParseError
from .linalg import Field, Matrix
from .quiver import Quiver
from .rep import Representation

__all__ = [
    "parse_field",
    "field_token",
    "parse_quiver_file",
    "quiver_file_text",
    "parse_rep_file",
    "rep_file_text",
    "report_json",
    "MAX_DIM",
    "MAX_CHAR",
]

MAX_DIM = 16
MAX_CHAR = 2**31

_FIELD_RE = re.compile(r"^(Q|F([0-9]+))$")


def parse_field(token: str) -> Field:
    """Parse a field token: Q for the rationals, F<p> for a prime field."""
    m = _FIELD_RE.match(token.strip())
    if not m:
        raise ParseError(f"unknown field {token!r} (expected Q or F<p>)")
    if m.group(1) == "Q":
        return Field.rationals()
    digits = m.group(2).lstrip("0") or "0"
    if len(digits) > len(str(MAX_CHAR)) or int(digits) >= MAX_CHAR:
        raise ParseError(f"prime field modulus must be below 2**31 = {MAX_CHAR}")
    p = int(digits)
    try:
        return Field.prime(p)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def field_token(field: Field) -> str:
    return "Q" if field.is_rational else f"F{field.char}"


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
        raise ParseError(f"matrix must be {rows}x{cols}, got {got}", lineno)
    return Matrix.from_rows(field, data, cols=cols)


def parse_rep_file(text: str, quiver: Quiver) -> tuple[str, Representation]:
    """Parse a representation file against its quiver; returns (name, representation)."""
    name = None
    field: Field | None = None
    dims = [0] * quiver.vertex_count
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
            m = re.match(r"^dim\s+(\S+)\s*=\s*(\d+)$", line)
            if not m:
                raise ParseError("expected 'dim <vertex> = <nat>'", lineno)
            v = m.group(1)
            if v not in vindex:
                raise ParseError(f"unknown vertex {v!r}", lineno)
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
        rep = Representation.from_maps(quiver, field, tuple(dims), maps)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return name, rep


def _matrix_literal(m: Matrix) -> str:
    rows = []
    for i in range(m.rows):
        rows.append("[" + ",".join(m.field.format(x) for x in m.row(i)) + "]")
    return "[" + ",".join(rows) + "]"


def rep_file_text(rep: Representation, name: str = "M") -> str:
    lines = [f"rep {name} over {field_token(rep.field)}"]
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
        "field": None if field is None else field_token(field),
        "result": result,
        "version": __version__,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
