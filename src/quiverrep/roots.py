"""Weyl reflections on dimension vectors and positive-root enumeration.

Positive roots (nonzero n >= 0 with Tits form 1) are produced from the simple
roots by the reflections that raise the height: s_i changes only coordinate
i, by -(d, e_i) in the symmetrized Tits form, so it raises the height of d
exactly when (d, e_i) < 0.  In finite type every positive root other than a
simple one is reached from a lower one that way, so the closure under these
steps, read off the quiver's neighbour lists, is the set of positive roots
and never leaves the positive cone.  `positive_roots` returns them as a
plain tuple of root tuples in lexicographic order; it refuses, through the
one finite-type gate of `quiver`, a quiver that does not classify as finite.

`_reflected` holds the one copy of the reflection formula; the public
`simple_reflection` checks its arguments first, while the reflection walk
of `indec`, whose vertices and vectors are checked once before it starts,
calls `_reflected` on every step.
"""

from __future__ import annotations

from typing import Sequence

from .quiver import Quiver, _check_sizes, _require_finite

__all__ = ["simple_reflection", "positive_roots"]


def simple_reflection(Q: Quiver, i: int, d: Sequence[int]) -> tuple[int, ...]:
    """Reflect an integer vector in the hyperplane of the i-th simple root."""
    Q._check_vertex(i)
    if Q.tits_matrix[i][i] != 2:
        raise ValueError(f"vertex {i} carries a loop; reflection undefined")
    _check_sizes(Q, d)
    out = list(d)
    out[i] = _reflected(Q, i, d)
    return tuple(out)


def _reflected(Q: Quiver, i: int, d: Sequence[int]) -> int:
    """Coordinate i of s_i(d), the only one s_i changes: d[i] - (d, e_i) in
    the symmetrized Tits form, for a vertex i without a loop."""
    return -d[i] - sum(b * d[j] for j, b in Q.neighbours[i])


def positive_roots(Q: Quiver) -> tuple[tuple[int, ...], ...]:
    """All positive roots of a finite-type quiver: a tuple of root tuples,
    sorted lexicographically."""
    _require_finite(Q)
    n = Q.vertex_count
    neighbours = Q.neighbours
    frontier = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(frontier)
    while frontier:
        higher = []
        for d in frontier:
            for i, nbrs in enumerate(neighbours):
                pairing = 2 * d[i] + sum(b * d[j] for j, b in nbrs)
                if pairing < 0:
                    r = d[:i] + (d[i] - pairing,) + d[i + 1 :]
                    if r not in seen:
                        seen.add(r)
                        higher.append(r)
        frontier = higher
    return tuple(sorted(seen))
