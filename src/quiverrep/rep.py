"""Representations of a quiver and the Hom/Ext calculus.

Hom and Ext^1 both come from one linear map: the commutation map

    Phi : (+)_i Hom_k(V_i, W_i)  ->  (+)_a Hom_k(V_source(a), W_target(a))
    Phi(u)_a = g_a u_source(a) - u_target(a) f_a

whose kernel is the morphism space and whose cokernel carries the extension
classes.  Domain coordinates run over vertices in index order, row-major
within each block; codomain coordinates run over arrows in declaration
order, row-major within each block.  The sign convention (g u - u f) is
shared with the deformation module.

Phi is assembled row by row in codomain order: each entry is a copied entry
of g_a or a negated entry of f_a, placed at its domain coordinate.  The two
terms land on the same entry only for a loop (source(a) == target(a)), and
only there are entries added.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from typing import Sequence

from .errors import MismatchError
from .linalg import Field, Matrix, kernel_basis, cokernel_basis, rank, solve
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

    def __init__(self, quiver: Quiver, field: Field, dims: tuple[int, ...], maps: tuple[Matrix, ...]):
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.quiver, self.field, self.dims, self.maps) == (other.quiver, other.field, other.dims, other.maps)
        return NotImplemented

    def __hash__(self):
        return hash((self.quiver, self.field, self.dims, self.maps))

    @staticmethod
    def from_maps(quiver: Quiver, field: Field, dims: Sequence[int], maps_by_name: dict[str, Matrix] | None = None) -> "Representation":
        """Build a representation from a (possibly partial) arrow-name -> matrix dict."""
        dims = tuple(dims)
        maps_by_name = maps_by_name or {}
        mats = []
        for a in quiver.arrows:
            m = maps_by_name.get(a.name)
            if m is None:
                m = Matrix.zeros(field, dims[a.target], dims[a.source])
            mats.append(m)
        return Representation(quiver, field, dims, tuple(mats))

    @staticmethod
    def zero(quiver: Quiver, field: Field) -> "Representation":
        return Representation.from_maps(quiver, field, (0,) * quiver.vertex_count)

    @staticmethod
    def simple(quiver: Quiver, field: Field, i: int) -> "Representation":
        dims = tuple(1 if j == i else 0 for j in range(quiver.vertex_count))
        return Representation.from_maps(quiver, field, dims)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)


class MorphismSpace(Value):
    """Basis of Hom(source, target); each element is one matrix per vertex."""

    _fields = ("source", "target", "basis")

    def __init__(self, source: Representation, target: Representation, basis: tuple[tuple[Matrix, ...], ...]):
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "basis", basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)


class ExtSpace(Value):
    """Cocycle representatives spanning Ext^1(source, target), one matrix per arrow."""

    _fields = ("source", "target", "cocycles")

    def __init__(self, source: Representation, target: Representation, cocycles: tuple[tuple[Matrix, ...], ...]):
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "cocycles", cocycles)

    @property
    def dimension(self) -> int:
        return len(self.cocycles)


def _check_compatible(M: Representation, N: Representation):
    if M.quiver != N.quiver:
        raise MismatchError("representations live on different quivers")
    if M.field != N.field:
        raise MismatchError(f"field mismatch: {M.field} vs {N.field}")


def _domain_offsets(M: Representation, N: Representation) -> tuple[list[int], int]:
    offs = []
    pos = 0
    for mi, ni in zip(M.dims, N.dims):
        offs.append(pos)
        pos += ni * mi
    return offs, pos


def _codomain_offsets(M: Representation, N: Representation) -> tuple[list[int], int]:
    offs = []
    pos = 0
    for a in M.quiver.arrows:
        offs.append(pos)
        pos += N.dims[a.target] * M.dims[a.source]
    return offs, pos


def commutation_map(M: Representation, N: Representation) -> Matrix:
    """Matrix of Phi(u)_a = g_a u_source(a) - u_target(a) f_a in the documented coordinates.

    Row (t, j) of arrow a's block holds row t of g_a at the entries u_source(a)[c, j]
    and minus column j of f_a at the entries u_target(a)[t, c]; the two sets meet
    only when a is a loop, where they are added.
    """
    _check_compatible(M, N)
    voffs, dom = _domain_offsets(M, N)
    _, cod = _codomain_offsets(M, N)
    flat = [0] * (cod * dom)
    row = 0
    for a, f, g in zip(M.quiver.arrows, M.maps, N.maps):
        ms, mt = M.dims[a.source], M.dims[a.target]
        span = N.dims[a.source] * ms
        # over F_p the negated entries are reduced by the Matrix constructor
        neg_cols = [[-x for x in f.entries[j::ms]] for j in range(ms)]
        for t in range(g.rows):
            g_row = g.row(t)
            for j, neg_col in enumerate(neg_cols):
                start = row + voffs[a.source] + j
                flat[start : start + span : ms] = g_row
                lo = row + voffs[a.target] + t * mt
                if a.source == a.target:
                    for c, x in enumerate(neg_col, lo):
                        flat[c] += x
                else:
                    flat[lo : lo + mt] = neg_col
                row += dom
    return Matrix(M.field, cod, dom, flat)


def _unflatten_vertex(vec: Sequence, M: Representation, N: Representation) -> tuple[Matrix, ...]:
    voffs, _ = _domain_offsets(M, N)
    mats = []
    for i, off in enumerate(voffs):
        mi, ni = M.dims[i], N.dims[i]
        mats.append(Matrix(M.field, ni, mi, vec[off : off + ni * mi]))
    return tuple(mats)


def _unflatten_arrow(vec: Sequence, M: Representation, N: Representation) -> tuple[Matrix, ...]:
    aoffs, _ = _codomain_offsets(M, N)
    mats = []
    for k, a in enumerate(M.quiver.arrows):
        rows_, cols_ = N.dims[a.target], M.dims[a.source]
        mats.append(Matrix(M.field, rows_, cols_, vec[aoffs[k] : aoffs[k] + rows_ * cols_]))
    return tuple(mats)


def _flatten_arrow(eta: Sequence[Matrix], M: Representation, N: Representation) -> list:
    if len(eta) != len(M.quiver.arrows):
        raise MismatchError("need one matrix per arrow")
    vec: list = []
    for a, m in zip(M.quiver.arrows, eta):
        if m.rows != N.dims[a.target] or m.cols != M.dims[a.source] or m.field != M.field:
            raise MismatchError(
                f"cocycle matrix for {a.name!r} must be {N.dims[a.target]}x{M.dims[a.source]} over {M.field}"
            )
        vec.extend(m.entries)
    return vec


def hom_space(M: Representation, N: Representation) -> MorphismSpace:
    """Canonical basis of the space of quiver morphisms M -> N."""
    phi = commutation_map(M, N)
    basis = tuple(_unflatten_vertex(v, M, N) for v in kernel_basis(phi))
    return MorphismSpace(M, N, basis)


def ext1_space(M: Representation, N: Representation) -> ExtSpace:
    """Cocycle representatives of Ext^1(M, N) as a cokernel of the commutation map."""
    phi = commutation_map(M, N)
    cocycles = tuple(_unflatten_arrow(v, M, N) for v in cokernel_basis(phi))
    return ExtSpace(M, N, cocycles)


def hom_ext_dims(M: Representation, N: Representation) -> tuple[int, int]:
    """(dim Hom, dim Ext^1) from a single rank computation."""
    phi = commutation_map(M, N)
    r = rank(phi)
    return phi.cols - r, phi.rows - r


def is_coboundary(M: Representation, N: Representation, eta: Sequence[Matrix]) -> bool:
    """Whether an arrow-indexed cocycle lies in the image of the commutation map."""
    vec = _flatten_arrow(eta, M, N)
    phi = commutation_map(M, N)
    return solve(phi, vec) is not None


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
    Q = M.quiver
    field = M.field
    dims = tuple(a + b for a, b in zip(M.dims, N.dims))
    mats = []
    for k, a in enumerate(Q.arrows):
        f, g = M.maps[k], N.maps[k]
        rows_, cols_ = dims[a.target], dims[a.source]
        flat = []
        for i in range(rows_):
            for j in range(cols_):
                if i < f.rows and j < f.cols:
                    flat.append(f.entry(i, j))
                elif i >= f.rows and j >= f.cols:
                    flat.append(g.entry(i - f.rows, j - f.cols))
                else:
                    flat.append(0)
        mats.append(Matrix(field, rows_, cols_, flat))
    return Representation(Q, field, dims, tuple(mats))


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
