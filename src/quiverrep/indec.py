"""Indecomposable representations of finite-type quivers via reflection functors.

A positive root is walked down to a simple root by reflections taken along a
cyclic sink-admissible vertex ordering; the indecomposable is then rebuilt by
applying the inverse functors in reverse, reorienting the quiver step by step
until it returns to the input orientation.  Dimension bookkeeping is asserted
after every functor application, so the classical theorems this relies on are
enforced at runtime, and a failure names the quiver, root, vertex and step.

The walk state after t reflections is (dimension vector, t mod n).  The phase
t mod n fixes the next vertex in the ordering and the current orientation, so
the module rebuilt at a state depends on that state alone.  Each module is
stored in a memo under its state, and a walk stops descending at the first
state already in the memo.  A catalog shares one memo across all its roots, so
each state costs one functor call; a single construction uses a fresh memo.
"""

from __future__ import annotations

import random

from .errors import InfiniteTypeError, InternalInvariantError, NotARootError, RetryCapError
from .linalg import Field, Matrix, kernel_basis
from .quiver import Arrow, Quiver, classify, tits_form
from .rep import Representation, is_schur
from .roots import RootSet, positive_roots, simple_reflection
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

    def __init__(self, quiver: Quiver, field: Field, entries: tuple[tuple[tuple[int, ...], Representation], ...]):
        setfield(self, "quiver", quiver)
        setfield(self, "field", field)
        setfield(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def roots(self) -> RootSet:
        return RootSet(self.quiver, tuple(r for r, _ in self.entries))


def _dual(M: Representation) -> Representation:
    """The dual D M over the opposite quiver: every arrow reversed, every map
    transposed (coordinates of each dual space in the dual basis)."""
    Q = M.quiver
    opposite = Quiver(Q.labels, tuple(Arrow(a.name, a.target, a.source) for a in Q.arrows), Q.name)
    return Representation(opposite, M.field, M.dims, tuple(f.transpose() for f in M.maps))


def reflect_at_sink(Q: Quiver, i: int, M: Representation) -> tuple[Quiver, Representation]:
    """BGP functor at a sink, as D o (functor at the source i of the opposite
    quiver) o D: the vertex space becomes the kernel of the assembled incoming
    map, incident arrows reverse, and the reversed arrow maps are the block
    rows of the canonical kernel inclusion."""
    if M.quiver != Q:
        raise ValueError("representation is not over the given quiver")
    if not Q.is_sink(i):
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
    if not Q.is_source(i):
        raise ValueError(f"vertex {i} is not a source")
    field = M.field
    blocks = [f for a, f in zip(Q.arrows, M.maps) if a.source == i]
    n_i = M.dims[i]
    # The transpose of the assembled outgoing map: row q holds column q of
    # each outgoing block in turn.
    flat = [x for q in range(n_i) for b in blocks for x in b.entries[q::n_i]]
    assembled_t = Matrix(field, n_i, sum(b.rows for b in blocks), flat)
    # Row q of the projection onto the cokernel is e_q - sum_k R[k, q] e_{p_k},
    # R = rref(assembled^T) with pivots p_k: its kernel vector at free column q.
    proj_rows = kernel_basis(assembled_t)
    new_dim = len(proj_rows)
    new_quiver = Q.reverse_arrows_at(i)
    new_dims = tuple(new_dim if j == i else d for j, d in enumerate(M.dims))
    new_maps = []
    off = 0  # where the current outgoing block's columns start in proj_rows
    for a, f in zip(Q.arrows, M.maps):
        if a.source == i:
            tgt_dim = M.dims[a.target]
            flat = [proj_rows[r][off + c] for r in range(new_dim) for c in range(tgt_dim)]
            new_maps.append(Matrix(field, new_dim, tgt_dim, flat))
            off += tgt_dim
        else:
            new_maps.append(f)
    return new_quiver, Representation(new_quiver, field, new_dims, tuple(new_maps))


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


def _unit_vector(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if t == j else 0 for t in range(n))


def _require_positive_root(Q: Quiver, d) -> tuple[int, ...]:
    verdict = classify(Q)
    if not verdict.finite:
        raise InfiniteTypeError(
            f"Tits form is not positive definite ({verdict.witness}); "
            "quiver has infinite representation type"
        )
    d = tuple(int(x) for x in d)
    if len(d) != Q.vertex_count:
        raise ValueError("dimension vector size mismatch")
    q = tits_form(Q, d)
    if any(c < 0 for c in d) or all(c == 0 for c in d) or q != 1:
        raise NotARootError(d, q)
    return d


def _build(
    Q: Quiver,
    root: tuple[int, ...],
    field: Field,
    walk: tuple[list[int], list[Quiver]],
    memo: dict[tuple[tuple[int, ...], int], Representation],
) -> Representation:
    """Indecomposable with dimension vector root: walk down until a state in
    memo or a simple root, then rebuild upwards, storing each module in memo
    under its (dimension vector, phase) state."""
    n = Q.vertex_count
    for j in range(n):
        if root == _unit_vector(n, j):
            return Representation.simple(Q, field, j)
    order, orientations = walk

    def fail(step: int, v: int, what: str) -> InternalInvariantError:
        coords = ",".join(str(c) for c in root)
        return InternalInvariantError(
            f"quiver {Q.name}, root ({coords}), walk step {step}, "
            f"vertex {Q.labels[v]}: {what}"
        )

    cap = 60 * n + 10
    dim_walk = [root]
    d = root
    t = 0
    while (d, t % n) not in memo:
        v = order[t % n]
        if d == _unit_vector(n, v):
            memo[d, t % n] = Representation.simple(orientations[t % n], field, v)
            break
        if t >= cap:
            raise fail(t, v, "reflection walk did not reach a simple root")
        d = simple_reflection(Q, v, d)
        if any(c < 0 for c in d):
            raise fail(t, v, "reflection walk left the positive cone")
        t += 1
        dim_walk.append(d)
    M = memo[d, t % n]
    for s in reversed(range(t)):
        v = order[s % n]
        new_q, M = reflect_at_source(orientations[s % n + 1], v, M)
        if new_q != orientations[s % n]:
            raise fail(s, v, "reflection functor reoriented the quiver incorrectly")
        if M.dims != dim_walk[s]:
            raise fail(s, v, f"dimension bookkeeping failed: {M.dims} != {dim_walk[s]}")
        memo[dim_walk[s], s % n] = M
    return M


def construct_indecomposable(Q: Quiver, d, field: Field) -> Representation:
    """The unique indecomposable with dimension vector d, built by reflection functors."""
    d = _require_positive_root(Q, d)
    return _build(Q, d, field, _reflection_pass(Q), {})


def all_indecomposables(Q: Quiver, field: Field) -> IndecCatalog:
    """Catalog of every indecomposable of a finite-type quiver, one per positive
    root; all roots share one walk memo."""
    roots = positive_roots(Q)
    walk = _reflection_pass(Q)
    memo: dict[tuple[tuple[int, ...], int], Representation] = {}
    entries = tuple((r, _build(Q, r, field, walk, memo)) for r in roots)
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
        rep = Representation(Q, field, d, tuple(maps))
        if is_schur(rep):
            return rep
    raise RetryCapError(f"no Schur representation of dimension {d} found in 50 samples")
