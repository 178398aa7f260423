"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately written from scratch: plain Gauss elimination
instead of fraction-free pivoting, Laplace minor expansion, a numpy box scan
for roots, and a hom/ext constraint system assembled in its own coordinate
order.  The column-by-column commutation map is the library's earlier
assembly, kept as the reference for the row-by-row one.  None of it shares
code with the package under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from quiverrep.quiver import Quiver
from quiverrep.rep import Representation


def gauss_rank(rows: list[list], p: int | None = None) -> int:
    """Rank by textbook Gauss elimination; Fractions when p is None, else mod p."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(x) for x in r] for r in rows] if p is None else [[x % p for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank_ = 0
    for c in range(ncols):
        # bottom-most nonzero pivot, unlike the library's top-most rule
        pivot = next((i for i in range(nrows - 1, rank_ - 1, -1) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank_], m[pivot] = m[pivot], m[rank_]
        pv = m[rank_][c]
        inv = pow(pv, -1, p) if p else 1 / pv
        m[rank_] = [(x * inv) % p if p else x * inv for x in m[rank_]]
        for i in range(nrows):
            if i != rank_ and m[i][c]:
                f = m[i][c]
                if p:
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank_])]
                else:
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank_])]
        rank_ += 1
        if rank_ == nrows:
            break
    return rank_


def gauss_rref(rows: list[list], ncols: int, p: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and its pivot columns, by textbook Gauss-Jordan.

    Over Q (p None) every step is Fraction arithmetic: the pivot row is
    divided by its pivot, chosen as the entry of largest absolute value,
    before it clears its column above and below.  Mod p the entries are the
    residues of the (integer or fractional) input and the pivot is the
    bottom-most nonzero entry.  The rref is unique, so the library's
    elimination must give the same rows and pivots.
    """
    if p is None:
        m = [[Fraction(x) for x in r] for r in rows]
        norm, pivot_key = (lambda x: x), (lambda x, i: abs(x))
    else:
        m = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in r] for r in rows]
        norm, pivot_key = (lambda x: x % p), (lambda x, i: (x != 0, i))
    pivots: list[int] = []
    for c in range(ncols):
        top = len(pivots)
        if top == len(m):
            break
        best = max(range(top, len(m)), key=lambda i: pivot_key(m[i][c], i))
        if m[best][c] == 0:
            continue
        m[top], m[best] = m[best], m[top]
        inv = 1 / m[top][c] if p is None else pow(m[top][c], -1, p)
        m[top] = [norm(x * inv) for x in m[top]]
        for i in range(len(m)):
            f = m[i][c]
            if i != top and f:
                m[i] = [norm(a - f * b) for a, b in zip(m[i], m[top])]
        pivots.append(c)
    return m, pivots


def det_laplace(rows: list[list]):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det_laplace(minor)
    return total


def rank_by_minors(rows: list[list], p: int | None = None) -> int:
    """Largest k with a nonzero k x k minor; only sensible for tiny matrices."""
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                d = det_laplace(sub)
                if (d % p if p is not None else d) != 0:
                    return k
    return 0


def box_roots(Q: Quiver, bound: int = 6) -> list[tuple[int, ...]]:
    """All vectors 0 <= n_i <= bound with Tits form 1, by exhaustive scan."""
    n = Q.vertex_count
    pairs = [(a.source, a.target) for a in Q.arrows]
    vals = np.arange(bound + 1, dtype=np.int64)
    if n <= 6:
        grids = np.meshgrid(*([vals] * n), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        chunks = [pts]
    else:
        chunks = []
        grids = np.meshgrid(*([vals] * (n - 2)), indexing="ij")
        tail = np.stack([g.ravel() for g in grids], axis=1)
        for a in range(bound + 1):
            for b in range(bound + 1):
                head = np.full((tail.shape[0], 2), (a, b), dtype=np.int64)
                chunks.append(np.hstack([head, tail]))
    found: list[tuple[int, ...]] = []
    for pts in chunks:
        q = (pts * pts).sum(axis=1)
        for s, t in pairs:
            q = q - pts[:, s] * pts[:, t]
        for row in pts[q == 1]:
            found.append(tuple(int(x) for x in row))
    return sorted(found)


def naive_hom_ext(M: Representation, N: Representation) -> tuple[int, int]:
    """(dim Hom, dim Ext1) from a freshly assembled commutation system.

    Unknowns are the entries of the vertex maps, allocated in reverse vertex
    order and column-major, so any agreement with the library is about the
    mathematics rather than shared conventions.
    """
    col_of: dict[tuple[int, int, int], int] = {}
    for i in reversed(range(M.quiver.vertex_count)):
        for s in range(M.dims[i]):
            for r in range(N.dims[i]):
                col_of[(i, r, s)] = len(col_of)
    rows = []
    p = None if M.field.is_rational else M.field.char
    for k, a in enumerate(M.quiver.arrows):
        f, g = M.maps[k], N.maps[k]
        for i in range(N.dims[a.target]):
            for j in range(M.dims[a.source]):
                row = [0] * len(col_of)
                for c in range(N.dims[a.source]):
                    row[col_of[(a.source, c, j)]] += g.entry(i, c)
                for c in range(M.dims[a.target]):
                    row[col_of[(a.target, i, c)]] -= f.entry(c, j)
                rows.append(row)
    n_eq = len(rows)
    n_unknown = len(col_of)
    if n_unknown == 0:
        return 0, n_eq
    r = gauss_rank(rows, p)
    return n_unknown - r, n_eq - r


def closed_form_count(letter: str, rank: int) -> int:
    if letter == "A":
        return rank * (rank + 1) // 2
    if letter == "D":
        return rank * (rank - 1)
    return {6: 36, 7: 63, 8: 120}[rank]


def columnwise_commutation_map(M: Representation, N: Representation) -> tuple[int, int, tuple]:
    """(rows, cols, row-major entries) of the commutation map, one column at a time.

    Same coordinates and sign convention as `quiverrep.rep.commutation_map`:
    each domain coordinate u_i[r, s] gets a column of canonical field
    elements, accumulated by scalar additions (so loops add both terms), and
    the columns are transposed into rows at the end.
    """
    Q = M.quiver
    p = M.field.char
    zero = M.field.zero()
    aoffs, cod = [], 0
    for a in Q.arrows:
        aoffs.append(cod)
        cod += N.dims[a.target] * M.dims[a.source]
    cols: list[list] = []
    for i in range(Q.vertex_count):
        for r in range(N.dims[i]):
            for s in range(M.dims[i]):
                col = [zero] * cod
                for k, a in enumerate(Q.arrows):
                    base = aoffs[k]
                    ms = M.dims[a.source]
                    if a.source == i:
                        g = N.maps[k]
                        for t in range(g.rows):
                            col[base + t * ms + s] = col[base + t * ms + s] + g.entry(t, r)
                    if a.target == i:
                        f = M.maps[k]
                        for t in range(f.cols):
                            col[base + r * ms + t] = col[base + r * ms + t] - f.entry(s, t)
                if p:
                    col = [x % p for x in col]
                cols.append(col)
    dom = len(cols)
    return cod, dom, tuple(cols[j][i] for i in range(cod) for j in range(dom))
