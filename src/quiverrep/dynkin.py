"""Builders for Dynkin diagram quivers in several orientations.

Vertex labels are "1".."n"; arrows are "a1".."am" in edge declaration order.
D_n attaches vertices n-1 and n to vertex n-2; E_n hangs the branch vertex
off the long path (E8: path 1..7 with vertex 8 attached to vertex 5).
"""

from __future__ import annotations

from .quiver import Quiver

__all__ = [
    "dynkin_edges",
    "build_quiver",
    "orientation_schemes",
    "kronecker_quiver",
    "cycle_quiver",
    "extended_d4_quiver",
]

ORIENTATIONS = ("linear", "alternating", "sinkheavy")


def dynkin_edges(letter: str, rank: int) -> list[tuple[int, int]]:
    """Tree edges (0-based) of the A/D/E diagram of the given rank."""
    if letter == "A":
        if rank < 1:
            raise ValueError("A_n needs n >= 1")
        return [(i, i + 1) for i in range(rank - 1)]
    if letter == "D":
        if rank < 4:
            raise ValueError("D_n needs n >= 4")
        edges = [(i, i + 1) for i in range(rank - 2)]
        edges.append((rank - 3, rank - 1))
        return edges
    if letter == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        edges = [(i, i + 1) for i in range(rank - 2)]
        edges.append((rank - 4, rank - 1))
        return edges
    raise ValueError(f"unknown Dynkin letter {letter!r}")


def _center_vertex(letter: str, rank: int) -> int:
    if letter == "A":
        return (rank - 1) // 2
    if letter == "D":
        return rank - 3
    return rank - 4


def _distances(edges: list[tuple[int, int]], n: int, start: int) -> list[int]:
    """Breadth-first distance of every vertex of the tree from start."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[start] = 0
    queue = [start]
    for v in queue:
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _orient(letter: str, rank: int, scheme: str) -> list[tuple[int, int]]:
    edges = dynkin_edges(letter, rank)
    if scheme == "linear":
        return edges
    if scheme == "reversed":
        return [(v, u) for u, v in edges]
    if scheme == "alternating":
        depth = _distances(edges, rank, 0)
        return [(u, v) if depth[u] % 2 == 0 else (v, u) for u, v in edges]
    if scheme == "sinkheavy":
        dist = _distances(edges, rank, _center_vertex(letter, rank))
        return [(u, v) if dist[u] > dist[v] else (v, u) for u, v in edges]
    raise ValueError(f"unknown orientation scheme {scheme!r}")


def build_quiver(letter: str, rank: int, scheme: str = "linear", name: str | None = None) -> Quiver:
    """Dynkin quiver of the given type with the requested edge orientation."""
    directed = _orient(letter, rank, scheme)
    labels = tuple(str(i + 1) for i in range(rank))
    arrows = tuple((f"a{k + 1}", s, t) for k, (s, t) in enumerate(directed))
    if name is None:
        name = f"{letter}{rank}_{scheme}"
    return Quiver.from_edges(labels, arrows, name)


def orientation_schemes(letter: str, rank: int) -> list[str]:
    """Schemes yielding pairwise distinct orientations for this diagram."""
    seen = {}
    for scheme in ORIENTATIONS:
        key = tuple(_orient(letter, rank, scheme))
        seen.setdefault(key, scheme)
    if len(seen) < 3:
        key = tuple(_orient(letter, rank, "reversed"))
        seen.setdefault(key, "reversed")
    return list(seen.values())


def kronecker_quiver(name: str = "kronecker") -> Quiver:
    return Quiver.from_edges(("1", "2"), (("a1", 0, 1), ("a2", 0, 1)), name)


def cycle_quiver(n: int, name: str | None = None) -> Quiver:
    """Oriented n-cycle (extended Dynkin A~_{n-1})."""
    if n < 2:
        raise ValueError("cycle needs >= 2 vertices")
    labels = tuple(str(i + 1) for i in range(n))
    arrows = tuple((f"a{i + 1}", i, (i + 1) % n) for i in range(n))
    return Quiver.from_edges(labels, arrows, name or f"cycle{n}")


def extended_d4_quiver(name: str = "d4_tilde") -> Quiver:
    """Star with four legs into a central vertex (extended Dynkin D~_4)."""
    labels = ("1", "2", "3", "4", "5")
    arrows = tuple((f"a{i + 1}", i, 4) for i in range(4))
    return Quiver.from_edges(labels, arrows, name)
