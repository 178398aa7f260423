"""Seeded inputs: quiver files for Dynkin diagrams and infinite-type controls.

The benchmark writes its own `.quiver` texts instead of reading the shipped
ones, so the program sees only generated files.  A seed renames vertices
and arrows; it never reorders them, because vertex order fixes the
reflection walk and the work a catalog takes.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

ORIENTATIONS = ("linear", "alternating", "sinkheavy")
DYNKIN = [("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 9)] + [("E", r) for r in (6, 7, 8)]


@dataclass(frozen=True)
class QuiverSpec:
    """A generated quiver: 0-based arrows plus the names written to its file."""

    name: str
    labels: tuple[str, ...]
    arrow_ids: tuple[str, ...]
    arrows: tuple[tuple[int, int], ...]
    dynkin: str | None  # e.g. "E8"; None for an infinite-type control

    @property
    def n(self) -> int:
        return len(self.labels)

    def text(self) -> str:
        lines = [f"quiver {self.name}", "vertices: " + " ".join(self.labels)]
        for aid, (s, t) in zip(self.arrow_ids, self.arrows):
            lines.append(f"arrow {aid}: {self.labels[s]} -> {self.labels[t]}")
        return "\n".join(lines) + "\n"


def _center(letter: str, rank: int) -> int:
    """The branch vertex of D_n/E_n, the middle vertex of A_n."""
    return {"A": (rank - 1) // 2, "D": rank - 3, "E": rank - 4}[letter]


def _edges(letter: str, rank: int) -> list[tuple[int, int]]:
    """Undirected tree edges: a path, with D_n/E_n's last vertex hung off the branch vertex."""
    if letter == "A":
        return [(i, i + 1) for i in range(rank - 1)]
    return [(i, i + 1) for i in range(rank - 2)] + [(_center(letter, rank), rank - 1)]


def _orient(letter: str, rank: int, scheme: str) -> list[tuple[int, int]]:
    edges = _edges(letter, rank)
    if scheme == "linear":
        return edges
    adj = {v: [] for v in range(rank)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    root = 0 if scheme == "alternating" else _center(letter, rank)
    depth = {root: 0}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                stack.append(v)
    if scheme == "alternating":
        # Even depth from vertex 0 is a source, odd depth a sink.
        return [(u, v) if depth[u] % 2 == 0 else (v, u) for u, v in edges]
    # sinkheavy: every arrow points toward the branch (or middle) vertex.
    return [(u, v) if depth[u] > depth[v] else (v, u) for u, v in edges]


def _names(rng: random.Random, count: int, prefix: str) -> tuple[str, ...]:
    out: list[str] = []
    while len(out) < count:
        name = prefix + "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(4))
        if name not in out:
            out.append(name)
    return tuple(out)


def _spec(rng: random.Random, name: str, n: int, arrows, dynkin) -> QuiverSpec:
    return QuiverSpec(name, _names(rng, n, "v"), _names(rng, len(arrows), "x"), tuple(arrows), dynkin)


def dynkin_quiver(rng: random.Random, letter: str, rank: int, scheme: str) -> QuiverSpec:
    arrows = _orient(letter, rank, scheme)
    return _spec(rng, f"{letter}{rank}_{scheme}", rank, arrows, f"{letter}{rank}")


def infinite_controls(rng: random.Random) -> list[QuiverSpec]:
    """Kronecker quiver, oriented 3-cycle and four-subspace star: all of infinite type."""
    return [
        _spec(rng, "kronecker", 2, [(0, 1), (0, 1)], None),
        _spec(rng, "cycle3", 3, [(0, 1), (1, 2), (2, 0)], None),
        _spec(rng, "star4", 5, [(0, 4), (1, 4), (2, 4), (3, 4)], None),
    ]


def random_matrix(rng: random.Random, rows: int, cols: int, p: int) -> list[list[int]]:
    """Entries in [-5, 5] over Q, uniform residues over F_p."""
    if p:
        return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
