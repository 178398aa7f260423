"""Quiver data model, Euler/Tits forms, and Dynkin classification.

A quiver is a finite directed multigraph; loops and parallel arrows are
accepted structurally and rejected only by classification, where the
mathematics (the Tits form) does the rejecting.  Each quiver computes its
symmetrized Tits matrix, neighbour lists and per-vertex arrow lists at most
once, on first use, and holds them itself; nothing here is memoized at
module level, so a quiver lives no longer than its callers keep it.

`Arrow`, `Quiver`, `DynkinType` and `Classification` are plain immutable
value classes (see `value`), not dataclasses, so loading this module runs no
generated code.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import attrgetter
from typing import Sequence

from .errors import InfiniteTypeError, InternalInvariantError
from .value import Value, setfield

__all__ = [
    "Arrow",
    "Quiver",
    "DynkinType",
    "Classification",
    "euler_form",
    "tits_form",
    "is_positive_definite",
    "classify",
]


class Arrow(Value):
    _fields = ("name", "source", "target")

    def __init__(self, name: str, source: int, target: int):
        setfield(self, "name", name)
        setfield(self, "source", source)
        setfield(self, "target", target)


class Quiver(Value):
    """Vertices are dense 0-based indices; labels are user-facing strings.

    Equality and hashing ignore `name`."""

    _fields = ("labels", "arrows", "name")
    _key = attrgetter("labels", "arrows")

    def __init__(self, labels: Sequence[str], arrows: Sequence[Arrow], name: str = ""):
        labels, arrows = tuple(labels), tuple(arrows)
        setfield(self, "labels", labels)
        setfield(self, "arrows", arrows)
        setfield(self, "name", name)
        if len(labels) < 1:
            raise ValueError("a quiver needs at least one vertex")
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be unique")
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow ids must be unique")
        n = len(labels)
        for a in arrows:
            if not (0 <= a.source < n and 0 <= a.target < n):
                raise ValueError(f"arrow {a.name!r} references an undeclared vertex")

    @staticmethod
    def from_edges(labels: Sequence[str], edges: Sequence[tuple[str, int, int]], name: str = "") -> "Quiver":
        return Quiver(labels, (Arrow(nm, s, t) for nm, s, t in edges), name)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def _check_vertex(self, i: int) -> None:
        """Refuse an index outside [0, vertex_count), which a list index
        would wrap (a negative i) or raise a bare IndexError for."""
        if not 0 <= i < len(self.labels):
            raise ValueError(f"vertex {i} is not a vertex of a quiver with {len(self.labels)} vertices")

    def is_sink(self, i: int) -> bool:
        self._check_vertex(i)
        return not self.outgoing[i]

    def is_source(self, i: int) -> bool:
        self._check_vertex(i)
        return not self.incoming[i]

    def reverse_arrows_at(self, i: int) -> "Quiver":
        """Flip every arrow incident to vertex i, keeping ids and order."""
        flipped = tuple(
            Arrow(a.name, a.target, a.source) if a.source == i or a.target == i else a
            for a in self.arrows
        )
        return Quiver(self.labels, flipped, self.name)

    @cached_property
    def tits_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Symmetric integer matrix B with n^T B n = 2 * tits_form(self, n)."""
        n = self.vertex_count
        B = [[0] * n for _ in range(n)]
        for i in range(n):
            B[i][i] = 2
        for a in self.arrows:
            if a.source == a.target:
                B[a.source][a.source] -= 2
            else:
                B[a.source][a.target] -= 1
                B[a.target][a.source] -= 1
        return tuple(tuple(r) for r in B)

    @cached_property
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex i, the pairs (j, B[i][j]) over the other vertices j joined
        to i by an arrow, in increasing j (B the Tits matrix)."""
        return tuple(
            tuple((j, b) for j, b in enumerate(row) if b and j != i)
            for i, row in enumerate(self.tits_matrix)
        )

    @cached_property
    def outgoing(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the indices of the arrows leaving it, in arrow order."""
        return _arrows_by_vertex(self.vertex_count, [a.source for a in self.arrows])

    @cached_property
    def incoming(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the indices of the arrows entering it, in arrow order."""
        return _arrows_by_vertex(self.vertex_count, [a.target for a in self.arrows])


def _arrows_by_vertex(n: int, ends: list[int]) -> tuple[tuple[int, ...], ...]:
    at = [[] for _ in range(n)]
    for k, v in enumerate(ends):
        at[v].append(k)
    return tuple(map(tuple, at))


class DynkinType(Value):
    _fields = ("letter", "rank")

    def __init__(self, letter: str, rank: int):
        setfield(self, "letter", letter)
        setfield(self, "rank", rank)

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


class Classification(Value):
    _fields = ("finite", "components", "witness")

    def __init__(self, finite: bool, components: Sequence[DynkinType] = (), witness: str | None = None):
        setfield(self, "finite", finite)
        setfield(self, "components", tuple(components))
        setfield(self, "witness", witness)


def _check_sizes(Q: Quiver, *vectors: Sequence[int]):
    for v in vectors:
        if len(v) != Q.vertex_count:
            raise ValueError(f"vector of length {len(v)} does not fit a quiver on {Q.vertex_count} vertices")


def euler_form(Q: Quiver, m: Sequence[int], n: Sequence[int]) -> int:
    """Bilinear form <m, n> = sum_i m_i n_i - sum_a m_source(a) n_target(a)."""
    _check_sizes(Q, m, n)
    total = sum(mi * ni for mi, ni in zip(m, n))
    for a in Q.arrows:
        total -= m[a.source] * n[a.target]
    return total


def tits_form(Q: Quiver, n: Sequence[int]) -> int:
    """Quadratic form of the Euler form; depends only on the underlying graph."""
    return euler_form(Q, n, n)


def is_positive_definite(Q: Quiver) -> bool:
    """Sylvester's criterion on the symmetrized Tits matrix, in exact integers.

    One fraction-free (Bareiss) pass without row swaps: the k-th pivot is the
    k-th leading principal minor, so the first pivot <= 0 settles the answer.
    """
    B = [list(r) for r in Q.tits_matrix]
    n = len(B)
    prev = 1
    for k in range(n):
        piv, top = B[k][k], B[k]
        if piv <= 0:
            return False
        for row in B[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(x * piv - f * t) // prev for x, t in zip(row[k + 1 :], top[k + 1 :])]
        prev = piv
    return True


def _components(Q: Quiver) -> list[list[int]]:
    n = Q.vertex_count
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w, _ in Q.neighbours[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _classify_component(Q: Quiver, comp: list[int]) -> DynkinType | str:
    """Dynkin type of one connected component, or a textual rejection reason."""
    label = Q.labels[comp[0]]
    in_comp = set(comp)
    edges = []
    for a in Q.arrows:
        if a.source in in_comp:
            if a.source == a.target:
                return f"loop at vertex '{Q.labels[a.source]}'"
            edges.append((min(a.source, a.target), max(a.source, a.target)))
    for (u, v), cnt in Counter(edges).items():
        if cnt > 1:
            return f"parallel arrows between '{Q.labels[u]}' and '{Q.labels[v]}'"
    if len(edges) != len(comp) - 1:
        return f"cycle in the component containing '{label}'"
    # a tree without loops or parallel arrows: each neighbour is one edge
    neighbours = Q.neighbours
    branch = [v for v in comp if len(neighbours[v]) >= 3]
    if not branch:
        return DynkinType("A", len(comp))
    if len(branch) > 1:
        return f"two branch vertices in the component containing '{label}'"
    center = branch[0]
    if len(neighbours[center]) > 3:
        return f"vertex '{Q.labels[center]}' has degree {len(neighbours[center])}"
    legs = []
    for first, _ in neighbours[center]:
        length = 1
        prev, cur = center, first
        while len(neighbours[cur]) == 2:
            prev, cur = cur, next(w for w, _ in neighbours[cur] if w != prev)
            length += 1
        legs.append(length)
    p, q, r = sorted(legs)
    if p == 1 and q == 1:
        return DynkinType("D", r + 3)
    if (p, q, r) == (1, 2, 2):
        return DynkinType("E", 6)
    if (p, q, r) == (1, 2, 3):
        return DynkinType("E", 7)
    if (p, q, r) == (1, 2, 4):
        return DynkinType("E", 8)
    return f"branch at '{Q.labels[center]}' with legs ({p},{q},{r}) is not of type A/D/E"


def classify(Q: Quiver) -> Classification:
    """Finite/infinite representation type with per-component Dynkin types.

    Graph-shape recognition is cross-checked against Sylvester positivity of
    the symmetrized Tits matrix; a disagreement means an implementation bug.
    """
    results = [_classify_component(Q, comp) for comp in _components(Q)]
    rejections = [r for r in results if isinstance(r, str)]
    finite_by_shape = not rejections
    if finite_by_shape != is_positive_definite(Q):
        raise InternalInvariantError(
            "Dynkin shape recognition disagrees with Sylvester positivity"
        )
    if finite_by_shape:
        return Classification(finite=True, components=results)
    return Classification(finite=False, witness=rejections[0])


def _require_finite(Q: Quiver) -> None:
    """Refuse a quiver of infinite type with the one message every command
    prints: the witness, then "quiver has infinite representation type"."""
    verdict = classify(Q)
    if not verdict.finite:
        raise InfiniteTypeError(f"Tits form is not positive definite ({verdict.witness}); quiver has infinite representation type")
