"""Indecomposable representations of finite-type quivers via reflection functors.

A positive root is walked down to a simple root by reflections taken along a
cyclic sink-admissible vertex ordering; the indecomposable is then rebuilt by
applying the inverse functors in reverse, reorienting the quiver step by step
until it returns to the input orientation.  Dimension bookkeeping is asserted
after every functor application, so the classical theorems this relies on are
enforced at runtime, and a failure, the functor's own included, names the
quiver, root, vertex and step.

The walk state after t reflections is (dimension vector, t mod n).  Walks are
deterministic and functors are injective on indecomposables, so the walks that
end at one simple root and phase all lie on one thread: the walk up from it.
A catalog walks each of the n threads up by integer reflections, rebuilds it
once, up to its last non-simple root at phase 0, and keeps the modules at
phase 0: one functor call per walk state, and no other module outlives it.
A walk reflects its vector by `roots._reflected` and checks only that each
step stays in the positive cone: the quiver was classified as finite, so it
has no loop, the vector's length was checked against it before the walk,
and the reflection pass names only its vertices.

A rebuild carries its module as plain data: the dimension vector, one
row-major entry tuple per arrow (arrows keep their ids and order in every
orientation), and the index of its orientation among the n + 1 that the
reflection pass computes once.  Each step runs one kernel, `_reflect`, that
rewrites only the space at the reflected vertex v and the blocks of the
arrows at v, and the rebuild checks only what the step changed: the arrows
at v leave v before the step and enter it after, and the new dimension at v
is the walk's.  A rebuild returns the modules it keeps as the same plain
data, and each caller builds a validated `Representation` only for the ones
it keeps: `construct_indecomposable` for the module of its root, the catalog
for the non-simple ones.  `reflect_at_source` runs the same kernel between
validated representations.
"""

from __future__ import annotations

import random
from itertools import chain, cycle
from typing import Iterable, Sequence

from .errors import InternalInvariantError, NotARootError, RetryCapError, _fmt_root
from .linalg import Field, Matrix, _kernel_of_rows
from .quiver import Arrow, Quiver, _require_finite, tits_form
from .rep import Representation, is_schur
from .roots import _reflected, positive_roots
from .value import Value, setfield

__all__ = [
    "IndecCatalog",
    "reflect_at_sink",
    "reflect_at_source",
    "construct_indecomposable",
    "all_indecomposables",
    "generic_rep_oracle",
]


class IndecCatalog(Value):
    """One indecomposable per positive root, in lexicographic root order."""

    _fields = ("quiver", "field", "entries")

    def __init__(self, quiver: Quiver, field: Field, entries: Iterable[tuple[Sequence[int], Representation]]):
        setfield(self, "quiver", quiver)
        setfield(self, "field", field)
        setfield(self, "entries", tuple((tuple(r), M) for r, M in entries))

    def __len__(self) -> int:
        return len(self.entries)


def _dual(M: Representation) -> Representation:
    """The dual D M over the opposite quiver: every arrow reversed, every map
    transposed (coordinates of each dual space in the dual basis)."""
    Q = M.quiver
    opposite = Quiver(Q.labels, (Arrow(a.name, a.target, a.source) for a in Q.arrows), Q.name)
    return Representation(opposite, M.field, M.dims, (f.transpose() for f in M.maps))


def reflect_at_sink(Q: Quiver, i: int, M: Representation) -> tuple[Quiver, Representation]:
    """BGP functor at a sink, as D o (functor at the source i of the opposite
    quiver) o D: the vertex space becomes the kernel of the assembled incoming
    map, incident arrows reverse, and the reversed arrow maps are the block
    rows of the canonical kernel inclusion."""
    if M.quiver != Q:
        raise ValueError("representation is not over the given quiver")
    if not (0 <= i < Q.vertex_count and Q.is_sink(i)):
        raise ValueError(f"vertex {i} is not a sink")
    dual = _dual(M)
    _, N = reflect_at_source(dual.quiver, i, dual)
    N = _dual(N)
    return N.quiver, N


def reflect_at_source(Q: Quiver, i: int, M: Representation) -> tuple[Quiver, Representation]:
    """Dual BGP functor at a source: the vertex space becomes the cokernel of
    the assembled outgoing map, and the reversed arrow maps are the blocks of
    the canonical projection onto it."""
    if M.quiver != Q:
        raise ValueError("representation is not over the given quiver")
    if not (0 <= i < Q.vertex_count and Q.is_source(i)):
        raise ValueError(f"vertex {i} is not a source")
    dims, maps = _reflect(Q, i, M.field, M.dims, tuple(f.entries for f in M.maps))
    new_quiver = Q.reverse_arrows_at(i)
    return new_quiver, _module(new_quiver, M.field, dims, maps)


def _reflect(Q: Quiver, v: int, field: Field, dims: tuple[int, ...], maps: tuple[tuple, ...]):
    """`reflect_at_source` at the source v of Q on plain data: the dimension
    vector and one row-major tuple of canonical entries per arrow.  Returns
    the new (dims, maps), in which only dims[v] and the blocks of the arrows
    leaving v change; the caller checks that v is a source."""
    arrows, out, n_v = Q.arrows, Q.outgoing[v], dims[v]
    widths = [dims[arrows[k].target] for k in out]
    # The transpose of the assembled outgoing map: row q holds column q of
    # each outgoing block in turn.
    blocks = [maps[k] for k in out]
    rows_ = [[x for b in blocks for x in b[q::n_v]] for q in range(n_v)]
    # Row q of the projection onto the cokernel is e_q - sum_k R[k, q] e_{p_k},
    # R = rref(assembled^T) with pivots p_k: its kernel vector at free column q.
    proj = _kernel_of_rows(field, rows_, sum(widths))
    new_maps = list(maps)
    off = 0  # where the current outgoing block's columns start in proj
    for k, w in zip(out, widths):
        new_maps[k] = tuple(chain.from_iterable([row[off : off + w] for row in proj]))
        off += w
    return dims[:v] + (len(proj),) + dims[v + 1 :], tuple(new_maps)


def _module(Q: Quiver, field: Field, dims: tuple[int, ...], maps: tuple[tuple, ...]) -> Representation:
    """The validated representation of plain data, as `_reflect` returns it."""
    mats = (Matrix(field, dims[a.target], dims[a.source], m) for a, m in zip(Q.arrows, maps))
    return Representation(Q, field, dims, mats)


def _reflection_pass(Q: Quiver) -> tuple[list[int], list[Quiver]]:
    """Vertex order in which each vertex is a sink once all earlier ones are
    flipped, and the orientation before each flip (n + 1 quivers, the last
    equal to Q)."""
    order = []
    orientations = [Q]
    remaining = set(range(Q.vertex_count))
    while remaining:
        cur = orientations[-1]
        v = min((x for x in remaining if cur.is_sink(x)), default=None)
        if v is None:
            raise InternalInvariantError(
                f"quiver {Q.name}: no admissible sink; quiver has an oriented cycle"
            )
        order.append(v)
        remaining.remove(v)
        orientations.append(cur.reverse_arrows_at(v))
    if orientations[-1] != Q:
        raise InternalInvariantError(
            f"quiver {Q.name}: full reflection pass did not restore the orientation"
        )
    return order, orientations


def _require_positive_root(Q: Quiver, d) -> tuple[int, ...]:
    _require_finite(Q)
    d = tuple(int(x) for x in d)
    q = tits_form(Q, d)
    if any(c < 0 for c in d) or all(c == 0 for c in d) or q != 1:
        raise NotARootError(d, q)
    return d


def _fail(Q: Quiver, root: tuple[int, ...], step: int, v: int, what: str) -> InternalInvariantError:
    return InternalInvariantError(f"quiver {Q.name}, root ({_fmt_root(root)}), walk step {step}, vertex {Q.labels[v]}: {what}")


def _walk(Q: Quiver, d: tuple[int, ...], vertices: cycle) -> list[tuple[int, ...]]:
    """States met reflecting d at each of vertices in turn, up to the simple
    root of the next vertex, the one positive root its reflection takes out of
    the positive cone.  On a component of rank m and Coxeter number h, any mh/2
    consecutive letters of the cyclic order spell a reduced word of the longest
    Weyl group element, so a walk reflects there fewer than mh/2 times, within
    ceil(h/2) <= max(m, 15) passes (E8: h = 30); n max(n, 15) steps bound it."""
    cap = Q.vertex_count * max(Q.vertex_count, 15)
    dims = [d]
    for step, v in enumerate(vertices):
        if d[v] == 1 and sum(d) == 1:
            return dims
        if step == cap:
            raise _fail(Q, dims[0], step, v, "reflection walk did not reach a simple root")
        d = d[:v] + (_reflected(Q, v, d),) + d[v + 1 :]
        if d[v] < 0:
            raise _fail(Q, dims[0], step, v, "reflection walk left the positive cone")
        dims.append(d)


def _rebuild(Q: Quiver, field: Field, walk: tuple[list[int], list[Quiver]], dims) -> list[tuple]:
    """Rebuild upwards along dims, the states at times 0..t of a walk down to a
    simple root; returns the modules at times s < t with s = 0 mod n, time 0
    last, as plain data (dims, maps) over orientations[0], which is Q.  The
    module at time s is plain data over orientations[s mod n]."""
    (order, orientations), n, t = walk, Q.vertex_count, len(dims) - 1
    # The simple module: without loops every arrow has a zero space at one end.
    d = tuple(int(j == order[t % n]) for j in range(n))
    maps = ((),) * len(Q.arrows)
    kept = []
    for s in reversed(range(t)):
        v = order[s % n]
        before, after = orientations[s % n + 1], orientations[s % n]
        # The arrows at v leave it before the step and enter it after.
        if before.incoming[v] or after.outgoing[v] or before.outgoing[v] != after.incoming[v]:
            raise _fail(Q, dims[0], s, v, "reflection functor reoriented the quiver incorrectly")
        try:
            d, maps = _reflect(before, v, field, d, maps)
        except InternalInvariantError as exc:  # raised by an elimination, which knows only its matrix
            raise _fail(Q, dims[0], s, v, str(exc)) from exc
        if d[v] != dims[s][v]:
            raise _fail(Q, dims[0], s, v, f"dimension bookkeeping failed: {d} != {dims[s]}")
        if s % n == 0:
            kept.append((d, maps))
    return kept


def construct_indecomposable(Q: Quiver, d, field: Field) -> Representation:
    """The unique indecomposable with dimension vector d, built by reflection functors."""
    d = _require_positive_root(Q, d)
    if sum(d) == 1:
        return Representation.simple(Q, field, d.index(1))
    walk = _reflection_pass(Q)
    return _module(Q, field, *_rebuild(Q, field, walk, _walk(Q, d, cycle(walk[0])))[-1])


def all_indecomposables(Q: Quiver, field: Field) -> IndecCatalog:
    """Catalog of every indecomposable of a finite-type quiver, one per positive
    root: the simple modules, and the other modules at phase 0 on the threads.
    Thread j walks up from the simple root of order[j] at phase j, reflecting at
    order[j-1], order[j-2], ... cyclically, and is rebuilt from the last
    non-simple root it meets at phase 0."""
    roots = positive_roots(Q)
    walk = _reflection_pass(Q)
    order, n = walk[0], Q.vertex_count
    simples = [Representation.simple(Q, field, v) for v in range(n)]
    entries = [(S.dims, S) for S in simples]
    for j, v in enumerate(order):
        up = _walk(Q, simples[v].dims, cycle(reversed(order[j:] + order[:j])))
        top = max((k for k in range(j, len(up), n) if sum(up[k]) > 1), default=None)
        if top is not None:
            entries += ((d, _module(Q, field, d, maps)) for d, maps in _rebuild(Q, field, walk, up[top::-1]) if sum(d) > 1)
    entries.sort(key=lambda e: e[0])
    if [r for r, _ in entries] != list(roots):
        raise InternalInvariantError(f"quiver {Q.name}: the threads do not give one module per positive root")
    return IndecCatalog(Q, field, entries)


def generic_rep_oracle(Q: Quiver, d, field: Field, seed: int = 0) -> Representation:
    """Independent randomized construction: fill arrow matrices with random
    entries (integers in [-5, 5] over the rationals, uniform residues over a
    prime field with p >= 101) and retry until the result is Schur."""
    d = _require_positive_root(Q, d)
    if not field.is_rational and field.char < 101:
        raise ValueError("generic sampling needs the rationals or a prime field with p >= 101")
    rng = random.Random(seed)
    p = field.char
    for _ in range(50):
        maps = []
        for a in Q.arrows:
            rows_, cols_ = d[a.target], d[a.source]
            if p:
                ents = [rng.randrange(p) for _ in range(rows_ * cols_)]
            else:
                ents = [rng.randint(-5, 5) for _ in range(rows_ * cols_)]
            maps.append(Matrix(field, rows_, cols_, ents))
        rep = Representation(Q, field, d, maps)
        if is_schur(rep):
            return rep
    raise RetryCapError(f"no Schur representation of dimension {d} found in 50 samples")
