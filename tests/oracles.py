"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately written from scratch: the matrix product and
sum by their textbook formulas, plain Gauss elimination instead of
fraction-free pivoting, Laplace minor expansion, a numpy box scan
for roots, and a hom/ext constraint system assembled in its own coordinate
order.  The column-by-column commutation map is the library's earlier
assembly, kept as the reference for the row-by-row one, and the column-space
pivot projection is the dual reflection functor's earlier construction, kept
as the reference for the kernel-of-the-transpose one, and the kernel
inclusion is the reference for the functor at a sink, now derived by
duality.  Likewise Sylvester's
test by one determinant per leading minor is the reference for the single
Bareiss pass, and the closure of the simple roots under every reflection is
the reference for the height-raising one.  The eager Bareiss elimination,
which rescales every row below the pivot at every step, is the library's
earlier form, kept as the reference for the one that defers the rescaling.
The direct sum filled entry by entry is the library's earlier form, kept as
the reference for the one built from padded rows.
Hom and Ext^1 between indecomposables of a Dynkin quiver come from the
Euler form, by its own sum over the arrow list, with no elimination.
None of it shares code with the package under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from quiverrep.linalg import Matrix
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


def bareiss_echelon(rows_: list[list[int]], m: int, n: int) -> list[int]:
    """Eager fraction-free forward elimination in place; returns pivot columns.

    Canonical pivots (first nonzero in column order, lowest row first), each
    made positive by negating its row.  At every step every row below the
    pivot row becomes (a * piv - f * b) // prev from the pivot column on,
    with f its pivot-column entry, 0 included, so a row with f = 0 is
    rescaled by piv / prev; the division is exact since entries are minors.
    """
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows_[i][c]), None)
        if pr is None:
            continue
        rows_[r], rows_[pr] = rows_[pr], rows_[r]
        if rows_[r][c] < 0:
            rows_[r][c:] = [-a for a in rows_[r][c:]]
        piv_row = rows_[r]
        piv = piv_row[c]
        for i in range(r + 1, m):
            ri = rows_[i]
            f = ri[c]
            ri[c:] = [(a * piv - f * b) // prev for a, b in zip(ri[c:], piv_row[c:])]
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def matmul(A: Matrix, B: Matrix) -> Matrix:
    """The product AB, each entry the textbook sum over the inner index."""
    assert A.field == B.field and A.cols == B.rows
    ents = [sum(A.entry(i, t) * B.entry(t, j) for t in range(A.cols)) for i in range(A.rows) for j in range(B.cols)]
    return Matrix(A.field, A.rows, B.cols, ents)


def matadd(A: Matrix, B: Matrix) -> Matrix:
    """The entrywise sum A + B."""
    assert A.field == B.field and (A.rows, A.cols) == (B.rows, B.cols)
    return Matrix(A.field, A.rows, A.cols, [a + b for a, b in zip(A.entries, B.entries)])


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


def tits_matrix_from_arrows(Q: Quiver) -> list[list[int]]:
    """B[i][j] = <e_i, e_j> + <e_j, e_i> for the Euler form, arrow by arrow."""
    n = Q.vertex_count
    B = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a in Q.arrows:
        B[a.source][a.target] -= 1
        B[a.target][a.source] -= 1
    return B


def det_with_row_swaps(rows: list[list[int]]) -> int:
    """Integer determinant by Bareiss elimination, swapping rows past zero pivots."""
    n = len(rows)
    if n == 0:
        return 1
    m = [r[:] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        piv = m[k][k]
        for i in range(k + 1, n):
            m[i] = [(m[i][j] * piv - m[i][k] * m[k][j]) // prev for j in range(n)]
        prev = piv
    return sign * m[n - 1][n - 1]


def sylvester_by_minors(Q: Quiver) -> bool:
    """Positive definiteness of the Tits form: every leading principal minor,
    each its own determinant, is positive."""
    B = tits_matrix_from_arrows(Q)
    return all(det_with_row_swaps([row[:k] for row in B[:k]]) > 0 for k in range(1, len(B) + 1))


def roots_by_full_closure(Q: Quiver) -> list[tuple[int, ...]]:
    """Positive roots of a positive-definite quiver: close the simple roots
    under every simple reflection, negative vectors included, then keep the
    positive ones, sorted.  Does not terminate on an indefinite form."""
    B = tits_matrix_from_arrows(Q)
    n = len(B)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for d in frontier:
            for i in range(n):
                r = list(d)
                r[i] -= sum(B[i][j] * d[j] for j in range(n))
                r = tuple(r)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(d for d in seen if all(c >= 0 for c in d) and any(d))


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


def dynkin_hom_ext(arrows: list[tuple[int, int]], x, y) -> tuple[int, int]:
    """(dim Hom(X, Y), dim Ext^1(X, Y)) for indecomposables X, Y of a Dynkin
    quiver with the given (source, target) arrows and dimension vectors x, y,
    from the Euler form alone: (max(<x, y>, 0), max(-<x, y>, 0)).

    Over a Dynkin quiver Hom(X, Y) and Ext^1(X, Y) are never both nonzero:
    Ext^1(X, Y) is dual to Hom(Y, tau X), and nonzero maps X -> Y -> tau X
    would close a cycle in the directed Auslander-Reiten quiver (Ringel,
    LNM 1099, 2.4; Happel, LMS LN 119).  As hom - ext is <x, y>, that fixes
    both, over every field.  <x, y> = sum_i x_i y_i - sum_(i -> j) x_i y_j.
    """
    euler = sum(a * b for a, b in zip(x, y)) - sum(x[s] * y[t] for s, t in arrows)
    return max(euler, 0), max(-euler, 0)


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
    aoffs, cod = [], 0
    for a in Q.arrows:
        aoffs.append(cod)
        cod += N.dims[a.target] * M.dims[a.source]
    cols: list[list] = []
    for i in range(Q.vertex_count):
        for r in range(N.dims[i]):
            for s in range(M.dims[i]):
                col = [0] * cod
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


def direct_sum_by_entries(M: Representation, N: Representation) -> Representation:
    """M (+) N with M in the upper-left blocks, each arrow's matrix filled
    entry by entry: f's entries, g's shifted past them, zeros elsewhere."""
    dims = tuple(a + b for a, b in zip(M.dims, N.dims))
    mats = []
    for a, f, g in zip(M.quiver.arrows, M.maps, N.maps):
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
        mats.append(Matrix(M.field, rows_, cols_, flat))
    return Representation(M.quiver, M.field, dims, mats)


def reflect_at_source_by_projection(Q: Quiver, i: int, M: Representation) -> Representation:
    """The dual BGP functor at source i, its projection built from column-space pivots.

    The outgoing maps are stacked, in arrow order, into one matrix A.  The
    pivots p_k of rref(A^T), by `gauss_rref`, are the pivot coordinates of
    im(A); the projection onto the cokernel has one row per other coordinate
    q, namely e_q minus entry (k, q) of rref(A^T) at each p_k.  Its column
    blocks, one per outgoing arrow, are the reversed arrow maps.
    """
    p = M.field.char or None
    stacked = [list(M.maps[k].row(t)) for k, a in enumerate(Q.arrows) if a.source == i for t in range(M.maps[k].rows)]
    total = len(stacked)
    reduced, pivots = gauss_rref([[row[j] for row in stacked] for j in range(M.dims[i])], total, p)
    proj = []
    for q in range(total):
        if q in pivots:
            continue
        row = [0] * total
        row[q] = 1
        for k, pc in enumerate(pivots):
            row[pc] = -reduced[k][q]
        proj.append(row)
    maps, off = [], 0
    for k, a in enumerate(Q.arrows):
        if a.source == i:
            width = M.dims[a.target]
            maps.append(Matrix.from_rows(M.field, [r[off : off + width] for r in proj], cols=width))
            off += width
        else:
            maps.append(M.maps[k])
    dims = tuple(len(proj) if j == i else d for j, d in enumerate(M.dims))
    return Representation(Q.reverse_arrows_at(i), M.field, dims, tuple(maps))


def reflect_at_sink_by_kernel_inclusion(Q: Quiver, i: int, M: Representation) -> Representation:
    """The BGP functor at sink i, built directly from the kernel of the incoming maps.

    The incoming maps are placed side by side, in arrow order, as one matrix
    A.  Each free column q of rref(A), by `gauss_rref`, gives the kernel
    vector e_q minus entry (k, q) of rref(A) at each pivot p_k; its row
    blocks, one per incoming arrow, are the columns of the reversed arrow
    maps.  This is the functor's construction before it was derived from
    the one at a source by duality.
    """
    p = M.field.char or None
    blocks = [M.maps[k] for k, a in enumerate(Q.arrows) if a.target == i]
    side = [[x for b in blocks for x in b.row(t)] for t in range(M.dims[i])]
    total = sum(b.cols for b in blocks)
    reduced, pivots = gauss_rref(side, total, p)
    kernel = []
    for q in range(total):
        if q in pivots:
            continue
        vec = [0] * total
        vec[q] = 1
        for k, pc in enumerate(pivots):
            vec[pc] = -reduced[k][q]
        kernel.append(vec)
    maps, off = [], 0
    for k, a in enumerate(Q.arrows):
        if a.target == i:
            height = M.dims[a.source]
            maps.append(Matrix.from_rows(M.field, [[v[off + r] for v in kernel] for r in range(height)], cols=len(kernel)))
            off += height
        else:
            maps.append(M.maps[k])
    dims = tuple(len(kernel) if j == i else d for j, d in enumerate(M.dims))
    return Representation(Q.reverse_arrows_at(i), M.field, dims, tuple(maps))
