"""Command-line interface.

Subcommands: classify, roots, indec, ext, verify-udr.  Exit codes: 0 success,
1 parse error, 2 infinite representation type, 3 not a positive root,
4 quiver/field mismatch, 5 internal invariant violation, 6 usage error (bad
or missing command-line arguments).  Every nonzero exit prints one
`error: ...` line to stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from pathlib import Path

from .deform import UDRVerdict, udr_report
from .errors import (
    InfiniteTypeError,
    InternalInvariantError,
    MismatchError,
    NotARootError,
    ParseError,
    _fmt_root,
)
from .formats import (
    check_pair_size,
    parse_field,
    parse_quiver_file,
    parse_rep_file,
    rep_file_text,
    report_json,
)
from .indec import all_indecomposables, construct_indecomposable
from .linalg import _INTEGER
from .quiver import classify, euler_form
from .rep import hom_ext_dims
from .roots import positive_roots

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFINITE = 2
EXIT_NOT_ROOT = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5
EXIT_USAGE = 6
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    InfiniteTypeError: EXIT_INFINITE,
    NotARootError: EXIT_NOT_ROOT,
    MismatchError: EXIT_MISMATCH,
    InternalInvariantError: EXIT_INTERNAL,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors reach `main`, not argparse's exit 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8, or a NUL in the path
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _error(message) -> None:
    """Print `error: <message>` on one line, unprintable characters escaped."""
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(message))
    print(f"error: {text}", file=sys.stderr)


def _report(args, Q, field, result: dict, lines: list[str]) -> None:
    """Write `result` as the JSON report of `args.command` under
    `--format json`, else the table `lines`."""
    if args.format == "json":
        sys.stdout.write(report_json(args.command, Q.name, field, result))
    else:
        print("\n".join(lines))


def _cmd_classify(args, Q) -> int:
    verdict = classify(Q)
    if verdict.finite:
        result = {"finite": True, "components": [str(t) for t in verdict.components]}
        lines = ["verdict: finite representation type", "components: " + " ".join(result["components"])]
    else:
        result = {"finite": False, "witness": verdict.witness}
        lines = ["verdict: infinite representation type", f"reason: {verdict.witness}"]
    _report(args, Q, None, result, [f"quiver: {Q.name}", *lines])
    if not verdict.finite:
        _error(f"infinite representation type: {verdict.witness}")
    return EXIT_OK if verdict.finite else EXIT_INFINITE


def _cmd_roots(args, Q) -> int:
    roots = positive_roots(Q)
    result = {"count": len(roots), "roots": [list(r) for r in roots]}
    lines = [f"quiver: {Q.name}", f"positive roots ({len(roots)}):", *map(_fmt_root, roots)]
    _report(args, Q, None, result, lines)
    return EXIT_OK


def _seed(text: str) -> int:
    """`--seed`: an ASCII integer `[+-]?[0-9]+`, as `--dim` reads its
    coordinates; anything else is a usage error."""
    if _INTEGER.fullmatch(text):
        with suppress(ValueError):  # more digits than int() accepts
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_dim(text: str, expected: int):
    parts = text.split(",")
    bad = next((t for t in parts if not _INTEGER.fullmatch(t)), None)
    if bad is not None:
        raise ParseError(f"bad dimension vector {text!r}: {bad!r} is not an integer in digits 0-9")
    try:
        coords = tuple(map(int, parts))
    except ValueError as exc:  # more digits than int() accepts
        raise ParseError(f"bad dimension vector {text!r}: {exc}") from exc
    if len(coords) != expected:
        raise ParseError(f"dimension vector needs {expected} coordinates, got {len(coords)}")
    return coords


def _cmd_indec(args, Q) -> int:
    field = parse_field(args.field)
    d = _parse_dim(args.dim, Q.vertex_count)
    rep = construct_indecomposable(Q, d, field)
    name = "indec_" + "_".join(str(c) for c in d)
    sys.stdout.write(rep_file_text(rep, name))
    return EXIT_OK


def _cmd_ext(args, Q) -> int:
    _, src = parse_rep_file(_read(args.src), Q)
    _, dst = parse_rep_file(_read(args.dst), Q)
    check_pair_size(src, dst)
    hom, ext = hom_ext_dims(src, dst)
    euler = euler_form(Q, src.dims, dst.dims)
    # hom - ext = dom - cod for any rank, so this checks Phi's block sizes
    # (`rep._phi_size`) against `euler_form`; it cannot catch a wrong rank.
    if hom - ext != euler:
        raise InternalInvariantError(
            f"Euler identity failed: {hom} - {ext} != {euler}"
        )
    result = {"hom_dim": hom, "ext_dim": ext, "euler_form": euler}
    lines = [f"quiver: {Q.name}", f"field: {src.field}"]
    lines += [f"dim Hom = {hom}", f"dim Ext1 = {ext}", f"euler form = {euler}"]
    _report(args, Q, src.field, result, lines)
    return EXIT_OK


def _cmd_verify_udr(args, Q) -> int:
    field = parse_field(args.field)
    if args.dim is None:
        modules = all_indecomposables(Q, field).entries
    else:
        d = _parse_dim(args.dim, Q.vertex_count)
        modules = [(d, construct_indecomposable(Q, d, field))]
    entries, lines, verified = [], [f"quiver: {Q.name} over {field}"], 0
    for root, rep in modules:
        try:
            report = udr_report(Q, rep)
        except InternalInvariantError as exc:
            raise InternalInvariantError(f"quiver {Q.name}, root ({_fmt_root(root)}): {exc}") from exc
        verified += report.verdict is UDRVerdict.ISOMORPHIC_TO_K
        entries.append({
            "root": list(root),
            "end_dim": report.end_dim,
            "ext_dim": report.ext_dim,
            "verdict": report.verdict.value,
        })
        lines.append(f"root {_fmt_root(root)}: end={report.end_dim} ext={report.ext_dim} {report.describe()}")
    total = len(entries)
    if args.dim is None:
        result = {
            "entries": entries,
            "total": total,
            "verified": verified,
            "theorem_holds": verified == total,
        }
        lines.append(f"THEOREM VERIFIED: {verified}/{total} indecomposables have R(kQ,M) ≅ k")
        failure = f"{total - verified} indecomposable(s) violate the theorem"
    else:
        result = entries[0]
        failure = f"root {_fmt_root(d)} violates the theorem"
    _report(args, Q, field, result, lines)
    if verified != total:
        _error(failure)
    return EXIT_OK if verified == total else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quiverrep",
        description="Exact computation with quiver representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=True):
        if formats:
            p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument(
            "--seed", type=_seed, default=0, help="accepted for compatibility; has no effect yet"
        )

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("quiverfile")
        p.set_defaults(func=func)
        return p

    add_common(command("classify", _cmd_classify, "finite/infinite type with Dynkin components"))
    add_common(command("roots", _cmd_roots, "list the positive roots of a finite-type quiver"))

    p = command("indec", _cmd_indec, "emit the indecomposable with a given dimension vector")
    p.add_argument("--dim", required=True, help="comma-separated coordinates in vertex order")
    p.add_argument("--field", required=True, help="Q or F<p>")
    add_common(p, formats=False)

    p = command("ext", _cmd_ext, "dim Hom, dim Ext1, and the Euler form for two representations")
    p.add_argument("--from", dest="src", required=True, metavar="REPFILE")
    p.add_argument("--to", dest="dst", required=True, metavar="REPFILE")
    add_common(p)

    p = command("verify-udr", _cmd_verify_udr, "verify the deformation-ring theorem over a catalog")
    p.add_argument("--field", required=True, help="Q or F<p>")
    p.add_argument("--dim", help="restrict to a single root")
    add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _error(exc)
        return EXIT_USAGE
    try:
        return args.func(args, parse_quiver_file(_read(args.quiverfile)))
    except tuple(_EXIT_CODES) as exc:
        _error(exc)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
