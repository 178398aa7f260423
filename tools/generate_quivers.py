"""Regenerate the quivers/ directory shipped with the package.

Writes every A/D/E diagram of rank <= 8 in each distinct orientation scheme,
plus the infinite-type counterexamples.  `quiver_files` returns the texts
without writing them.  Run from the repository root:

    python tools/generate_quivers.py
"""

from __future__ import annotations

from pathlib import Path

from quiverrep.dynkin import (
    build_quiver,
    cycle_quiver,
    extended_d4_quiver,
    kronecker_quiver,
    orientation_schemes,
)
from quiverrep.formats import quiver_file_text

DIAGRAMS = (
    [("A", r) for r in range(1, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)


def quiver_files() -> dict[str, str]:
    """The text of every shipped quiver file, keyed by file name."""
    quivers = [
        build_quiver(letter, rank, scheme)
        for letter, rank in DIAGRAMS
        for scheme in orientation_schemes(letter, rank)
    ]
    quivers += [kronecker_quiver(), cycle_quiver(3, "a2_tilde_cycle"), extended_d4_quiver()]
    return {f"{q.name.lower()}.quiver": quiver_file_text(q) for q in quivers}


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "quivers"
    out.mkdir(exist_ok=True)
    files = quiver_files()
    for name, text in files.items():
        (out / name).write_text(text)
    print(f"wrote {len(files)} files to {out}")


if __name__ == "__main__":
    main()
