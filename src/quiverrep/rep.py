"""Representations of a quiver and the Hom/Ext calculus.

Hom and Ext^1 both come from one linear map: the commutation map

    Phi : (+)_i Hom_k(V_i, W_i)  ->  (+)_a Hom_k(V_source(a), W_target(a))
    Phi(u)_a = g_a u_source(a) - u_target(a) f_a

whose kernel is the morphism space and whose cokernel carries the extension
classes.  Domain coordinates run over vertices in index order, row-major
within each block; codomain coordinates run over arrows in declaration
order, row-major within each block.  The sign convention (g u - u f) is
shared with the deformation module.

Phi is assembled as sparse rows in codomain order: each entry is a copied
entry of g_a or a negated entry of f_a, placed at its domain coordinate.
The two terms land on the same entry only for a loop (source(a) ==
target(a)), and only there are entries added.  `commutation_map` is the
dense `Matrix` view of the same rows.

Phi's shape is read off the dimension vectors: `_phi_size` checks that M
and N are compatible and returns the codomain and domain sizes, and
`_split` cuts a coordinate vector into the vertex or arrow blocks.

Questions about one pair share one rank.  A slot holds the facts of the
last pair asked about: Phi's domain and codomain sizes, an upper bound on
its rank, and its rank once some question has found it (`_pair`).
The key is the identities of M and N.  Representations are immutable, so
the same two objects always give the same Phi; a cache keyed by value
would hash both modules on every question, where an identity test costs
nothing.  The slot keeps only numbers and the references to M and N, which
stay alive until another pair is asked about; it never keeps rows.

A question about a pair the slot does not hold makes the facts from Phi's
size alone.  Phi's rows are built only where a question eliminates them.
`hom_space` answers an empty basis when the rank is the domain size,
`ext1_space` an empty cocycle list and `is_coboundary` True when it is the
codomain size; only a rank equal to the bound can be either, and the slot
ranks a copy of the rows for it when it has no rank yet.  Otherwise the
rows go to the linalg kernel, cokernel or solve as lists, turned from
sparse rows once (`_phi_unless_full`).  Over Q that check is the rank mod
the residue prime, a lower bound that settles every full-rank question; the
slot keeps it only when it reaches the bound, where it is the rank, so the
slot holds an exact rank or none.  `hom_ext_dims` ranks Phi when the slot
holds no rank.  So no question eliminates more than it would alone.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from itertools import accumulate, compress, starmap
from operator import add, mul
from typing import Iterable, Sequence

from .errors import MismatchError
from .linalg import Field, Matrix, _cokernel_of_rows, _dense, _kernel_of_rows, _rank_lower_bound, _rank_of, _solve_rows, rank
from .quiver import Quiver
from .value import Value, setfield

__all__ = [
    "Representation",
    "MorphismSpace",
    "ExtSpace",
    "IsoVerdict",
    "commutation_map",
    "hom_space",
    "ext1_space",
    "hom_ext_dims",
    "is_coboundary",
    "end_dim",
    "is_schur",
    "direct_sum",
    "is_isomorphic",
    "isomorphism_verdict",
]


class Representation(Value):
    """Vector spaces on vertices, one matrix per arrow (target-dim x source-dim)."""

    _fields = ("quiver", "field", "dims", "maps")

    def __init__(self, quiver: Quiver, field: Field, dims: Sequence[int], maps: Sequence[Matrix]):
        dims, maps = tuple(dims), tuple(maps)
        setfield(self, "quiver", quiver)
        setfield(self, "field", field)
        setfield(self, "dims", dims)
        setfield(self, "maps", maps)
        if len(dims) != quiver.vertex_count:
            raise ValueError("dimension vector does not match vertex count")
        if any(d < 0 for d in dims):
            raise ValueError("dimensions must be non-negative")
        if len(maps) != len(quiver.arrows):
            raise ValueError("need exactly one matrix per arrow")
        for arrow, m in zip(quiver.arrows, maps):
            if m.field != field:
                raise ValueError(f"matrix for {arrow.name!r} is over the wrong field")
            if m.rows != dims[arrow.target] or m.cols != dims[arrow.source]:
                raise ValueError(
                    f"matrix for {arrow.name!r} must be "
                    f"{dims[arrow.target]}x{dims[arrow.source]}, got {m.rows}x{m.cols}"
                )

    @staticmethod
    def from_maps(quiver: Quiver, field: Field, dims: Sequence[int], maps_by_name: dict[str, Matrix] | None = None) -> "Representation":
        """Build a representation from a (possibly partial) arrow-name -> matrix
        dict; a missing arrow gets the zero map, and a name that is no arrow of
        the quiver raises `ValueError`."""
        maps_by_name = dict(maps_by_name or {})
        mats = []
        for a in quiver.arrows:
            m = maps_by_name.pop(a.name, None)
            mats.append(Matrix.zeros(field, dims[a.target], dims[a.source]) if m is None else m)
        if maps_by_name:
            raise ValueError(f"unknown arrow {next(iter(maps_by_name))!r}")
        return Representation(quiver, field, dims, mats)

    @staticmethod
    def zero(quiver: Quiver, field: Field) -> "Representation":
        return Representation.from_maps(quiver, field, (0,) * quiver.vertex_count)

    @staticmethod
    def simple(quiver: Quiver, field: Field, i: int) -> "Representation":
        quiver._check_vertex(i)
        dims = tuple(1 if j == i else 0 for j in range(quiver.vertex_count))
        return Representation.from_maps(quiver, field, dims)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)


class MorphismSpace(Value):
    """Basis of Hom(source, target); each element is one matrix per vertex."""

    _fields = ("source", "target", "basis")

    def __init__(self, source: Representation, target: Representation, basis: Iterable[Sequence[Matrix]]):
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "basis", tuple(map(tuple, basis)))

    @property
    def dimension(self) -> int:
        return len(self.basis)


class ExtSpace(Value):
    """Cocycle representatives spanning Ext^1(source, target), one matrix per arrow."""

    _fields = ("source", "target", "cocycles")

    def __init__(self, source: Representation, target: Representation, cocycles: Iterable[Sequence[Matrix]]):
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "cocycles", tuple(map(tuple, cocycles)))

    @property
    def dimension(self) -> int:
        return len(self.cocycles)


def _check_compatible(M: Representation, N: Representation):
    if M.quiver != N.quiver:
        raise MismatchError("representations live on different quivers")
    if M.field != N.field:
        raise MismatchError(f"field mismatch: {M.field} vs {N.field}")


def _phi_size(M: Representation, N: Representation) -> tuple[int, int]:
    """(cod, dom): Phi's codomain and domain sizes, read off the dimension
    vectors once M and N are checked to be compatible."""
    _check_compatible(M, N)
    return sum(starmap(mul, _arrow_shapes(M, N))), sum(map(mul, N.dims, M.dims))


def _arrow_shapes(M: Representation, N: Representation) -> list[tuple[int, int]]:
    """The codomain's block shapes: N_target(a) x M_source(a) per arrow a."""
    return [(N.dims[a.target], M.dims[a.source]) for a in M.quiver.arrows]


def _check_cochain(M: Representation, N: Representation, eta: Sequence[Matrix], what: str) -> None:
    """Refuse eta unless it is a cochain of Phi's codomain: one matrix per
    arrow a, N_target(a) x M_source(a), over the field.  `what` names the
    matrices in the message."""
    shapes = _arrow_shapes(M, N)
    if len(eta) != len(shapes):
        raise MismatchError("need one matrix per arrow")
    for a, (rows, cols), m in zip(M.quiver.arrows, shapes, eta):
        if m.rows != rows or m.cols != cols or m.field != M.field:
            raise MismatchError(f"{what} matrix for {a.name!r} must be {rows}x{cols} over {M.field}")


def _split(vec: Sequence, shapes: Iterable[tuple[int, int]], field: Field) -> tuple[Matrix, ...]:
    """Cut a coordinate vector into one matrix per block shape, in order."""
    out, pos = [], 0
    for rows, cols in shapes:
        out.append(Matrix(field, rows, cols, vec[pos : pos + rows * cols]))
        pos += rows * cols
    return tuple(out)


def _phi_rows(M: Representation, N: Representation) -> list[dict]:
    """Phi's rows in codomain order, each {domain coordinate: nonzero entry},
    for a compatible pair.

    Row (t, j) of arrow a's block holds row t of g_a at the entries u_source(a)[c, j]
    and minus column j of f_a at the entries u_target(a)[t, c]; the two sets meet
    only when a is a loop, where they are added.  Entries are canonical.
    """
    voffs = list(accumulate(map(mul, N.dims, M.dims), initial=0))
    p = M.field.char
    rows = []
    for a, f, g in zip(M.quiver.arrows, M.maps, N.maps):
        ms, mt = M.dims[a.source], M.dims[a.target]
        src, tgt = voffs[a.source], voffs[a.target]
        span = N.dims[a.source] * ms
        neg_cols = [[(-x) % p if p else -x for x in f.entries[j::ms]] for j in range(ms)]
        for t in range(g.rows):
            g_row = g.row(t)
            lo = tgt + t * mt
            for j, neg_col in enumerate(neg_cols):
                # zip(...) pairs each coordinate with its entry; compress keeps the nonzero ones
                row = dict(compress(zip(range(src + j, src + j + span, ms), g_row), g_row))
                if a.source != a.target:
                    row.update(compress(zip(range(lo, lo + mt), neg_col), neg_col))
                else:
                    for c, x in compress(zip(range(lo, lo + mt), neg_col), neg_col):
                        y = row.get(c, 0) + x
                        y = y % p if p else y
                        if y:
                            row[c] = y
                        else:
                            del row[c]
                rows.append(row)
    return rows


def commutation_map(M: Representation, N: Representation) -> Matrix:
    """Matrix of Phi(u)_a = g_a u_source(a) - u_target(a) f_a in the documented coordinates."""
    cod, dom = _phi_size(M, N)
    return Matrix(M.field, cod, dom, [x for row in _dense(_phi_rows(M, N), range(dom)) for x in row])


# The facts of the last pair asked about: [M, N, dom, cod, bound, r]; see
# `_pair`.
_last: list = [None, None]


def _pair(M: Representation, N: Representation) -> list:
    """The slot's facts about the pair of these very objects M and N, made
    from Phi's size when the slot held another pair, which checks that M and
    N are compatible.

    The facts are Phi's domain and codomain sizes, an upper bound on its
    rank, and its rank.  The bound is min(dom, cod), or dom - 1 for M == N,
    whose identity lies in the kernel.  r is None until a question has found
    the rank exactly.
    """
    global _last
    facts = _last  # one read: another thread may replace the slot between two
    if facts[0] is M and facts[1] is N:
        return facts
    cod, dom = _phi_size(M, N)
    _last = facts = [M, N, dom, cod, min(cod, dom - 1 if dom and M == N else dom), None]
    return facts


def _phi_unless_full(M: Representation, N: Representation, onto: bool) -> tuple[list[list] | None, int]:
    """(Phi's rows as lists, dom), with None for the rows when Phi is onto
    (onto true) or one to one (onto false), which only a rank equal to the
    bound can show.  The rows are built only when the slot cannot answer;
    when it holds no rank and the bound is that size, a copy of them is
    ranked, as the lower bound consumes or rescales the rows, and the slot
    keeps that rank when it is exact: over F_p, or when it reaches the bound."""
    facts = _pair(M, N)
    _, _, dom, cod, bound, r = facts
    n = cod if onto else dom
    if r == n:
        return None, dom
    rows = _phi_rows(M, N)
    if r is None and n == bound:
        r = _rank_lower_bound(M.field, [row.copy() for row in rows], bound)
        facts[5] = r if M.field.char or r == bound else None
    return (None if r == n else _dense(rows, range(dom))), dom


def hom_space(M: Representation, N: Representation) -> MorphismSpace:
    """Canonical basis of the space of quiver morphisms M -> N."""
    rows, dom = _phi_unless_full(M, N, onto=False)
    basis = [] if rows is None else _kernel_of_rows(M.field, rows, dom)
    shapes = list(zip(N.dims, M.dims))
    return MorphismSpace(M, N, (_split(v, shapes, M.field) for v in basis))


def ext1_space(M: Representation, N: Representation) -> ExtSpace:
    """Cocycle representatives of Ext^1(M, N) as a cokernel of the commutation map."""
    rows, _ = _phi_unless_full(M, N, onto=True)
    cocycles = [] if rows is None else _cokernel_of_rows(M.field, rows)
    shapes = _arrow_shapes(M, N)
    return ExtSpace(M, N, (_split(v, shapes, M.field) for v in cocycles))


def hom_ext_dims(M: Representation, N: Representation) -> tuple[int, int]:
    """(dim Hom, dim Ext^1) from a single rank computation: the slot's, or
    the rank engine's at the bound on rows built for it."""
    facts = _pair(M, N)
    _, _, dom, cod, bound, r = facts
    if r is None:
        r = facts[5] = _rank_of(M.field, _phi_rows(M, N), bound)
    return dom - r, cod - r


def is_coboundary(M: Representation, N: Representation, eta: Sequence[Matrix]) -> bool:
    """Whether an arrow-indexed cocycle lies in the image of the commutation map."""
    _pair(M, N)  # refuses an incompatible pair before eta is read
    _check_cochain(M, N, eta, "cocycle")
    phi_rows, dom = _phi_unless_full(M, N, onto=True)
    return phi_rows is None or _solve_rows(M.field, phi_rows, dom, [x for m in eta for x in m.entries]) is not None


def end_dim(M: Representation) -> int:
    return hom_ext_dims(M, M)[0]


def is_schur(M: Representation) -> bool:
    """Whether End(M) is one-dimensional; undefined (raises) for the zero representation."""
    if M.is_zero():
        raise ValueError("the zero representation has no Schur property")
    return end_dim(M) == 1


def direct_sum(M: Representation, N: Representation) -> Representation:
    """Blockwise direct sum, M in the upper-left blocks."""
    _check_compatible(M, N)
    mats = []
    for f, g in zip(M.maps, N.maps):
        right, left = (0,) * g.cols, (0,) * f.cols
        rows = [f.row(i) + right for i in range(f.rows)] + [left + g.row(i) for i in range(g.rows)]
        mats.append(Matrix.from_rows(M.field, rows, f.cols + g.cols))
    return Representation(M.quiver, M.field, tuple(map(add, M.dims, N.dims)), mats)


class IsoVerdict(Enum):
    ISOMORPHIC = "isomorphic"
    NOT_ISOMORPHIC = "not_isomorphic"
    NOT_CERTIFIED = "not_certified"


def _is_invertible_tuple(mats: Sequence[Matrix]) -> bool:
    return all(m.rows == m.cols and rank(m) == m.rows for m in mats)


def _combination(basis, coeffs) -> tuple[Matrix, ...]:
    """sum_j coeffs[j] * basis[j], one matrix per vertex; Matrix reduces the sums."""
    out = []
    for mats in zip(*basis):
        m = mats[0]
        ents = [sum(c * x for c, x in zip(coeffs, xs) if c) for xs in zip(*(b.entries for b in mats))]
        out.append(Matrix(m.field, m.rows, m.cols, ents))
    return tuple(out)


def isomorphism_verdict(M: Representation, N: Representation, seed: int = 0) -> IsoVerdict:
    """Decide isomorphism by searching Hom(M, N) for an invertible element.

    Unequal dimension vectors and exhaustive searches over small prime fields
    certify a negative; a failed randomized search over the rationals (20
    retries, integer coefficients in [-3, 3]) is reported as not certified.
    """
    _check_compatible(M, N)
    if M.dims != N.dims:
        return IsoVerdict.NOT_ISOMORPHIC
    if M.is_zero():
        return IsoVerdict.ISOMORPHIC
    basis = hom_space(M, N).basis
    d = len(basis)
    if d == 0:
        return IsoVerdict.NOT_ISOMORPHIC
    field = M.field
    # Deterministic first tries: each basis element, then their sum.
    candidates = [tuple(1 if k == j else 0 for k in range(d)) for j in range(d)]
    candidates.append((1,) * d)
    for coeffs in candidates:
        if _is_invertible_tuple(_combination(basis, coeffs)):
            return IsoVerdict.ISOMORPHIC
    p = field.char
    if p and d <= 4 and p**d <= 100_000:
        for coeffs in itertools.product(range(p), repeat=d):
            if any(coeffs) and _is_invertible_tuple(_combination(basis, coeffs)):
                return IsoVerdict.ISOMORPHIC
        return IsoVerdict.NOT_ISOMORPHIC
    rng = random.Random(seed)
    for _ in range(20):
        if p:
            coeffs = tuple(rng.randrange(p) for _ in range(d))
        else:
            coeffs = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(coeffs) and _is_invertible_tuple(_combination(basis, coeffs)):
            return IsoVerdict.ISOMORPHIC
    return IsoVerdict.NOT_CERTIFIED


def is_isomorphic(M: Representation, N: Representation, seed: int = 0) -> bool:
    """True only for a certified isomorphism; see isomorphism_verdict for the trichotomy."""
    return isomorphism_verdict(M, N, seed) is IsoVerdict.ISOMORPHIC
