"""Reference mathematics the benchmark checks the program against.

Nothing here imports quiverrep: roots, forms, ranks and matrix products are
recomputed from the arrow list and the raw matrix entries, so a wrong answer
from the program cannot be confirmed by the same wrong code.

A quiver is given as ``(n, arrows)`` with ``arrows`` a list of 0-based
``(source, target)`` pairs.  A matrix is a list of rows.  ``p`` is the field
characteristic (0 for the rationals).
"""

from __future__ import annotations

from fractions import Fraction

CLOSED_FORM = {
    "A": lambda n: n * (n + 1) // 2,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
}


def root_count(letter: str, rank: int) -> int:
    """Number of positive roots of a Dynkin diagram, in closed form."""
    return CLOSED_FORM[letter](rank)


def euler_form(n: int, arrows, d, e) -> int:
    """<d, e> = sum_i d_i e_i - sum over arrows s->t of d_s e_t."""
    return sum(d[i] * e[i] for i in range(n)) - sum(d[s] * e[t] for s, t in arrows)


def positive_roots(n: int, arrows) -> list[tuple[int, ...]]:
    """Positive roots of a Dynkin quiver, sorted lexicographically.

    Grows roots by adding one simple root at a time and keeping vectors with
    Tits form 1; for a simply-laced positive-definite form every non-simple
    positive root is such an extension of a smaller one.
    """
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = set(simples)
    frontier = list(simples)
    while frontier:
        grown = []
        for d in frontier:
            for i in range(n):
                e = d[:i] + (d[i] + 1,) + d[i + 1 :]
                if e not in found and euler_form(n, arrows, e, e) == 1:
                    found.add(e)
                    grown.append(e)
        frontier = grown
    return sorted(found)


def _reduce(x, p):
    return int(x) % p if p else Fraction(x)


def rank(rows, p: int) -> int:
    """Exact rank by Gaussian elimination over Q (Fractions) or F_p."""
    m = [[_reduce(x, p) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        top = [x * inv for x in m[r]]
        if p:
            top = [x % p for x in top]
        m[r] = top
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                row = [a - f * b for a, b in zip(m[i], top)]
                m[i] = [x % p for x in row] if p else row
        r += 1
        if r == len(m):
            break
    return r


def matmul(a, b, cols: int, p: int):
    """Product of row-list matrices a (r x k) and b (k x cols); k = len(b) may be 0."""
    inner = len(b)
    out = []
    for row in a:
        acc = [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        out.append([_reduce(x, p) for x in acc])
    return out


def commutes(arrows, m_maps, n_maps, u, m_dims, p: int) -> bool:
    """Whether the vertex maps u_i : M_i -> N_i satisfy g_a u_s = u_t f_a for every arrow."""
    for k, (s, t) in enumerate(arrows):
        if matmul(n_maps[k], u[s], m_dims[s], p) != matmul(u[t], m_maps[k], m_dims[s], p):
            return False
    return True


def commutation_rows(arrows, m_maps, n_maps, m_dims, n_dims, n: int) -> list[list]:
    """Matrix of u -> (g_a u_s - u_t f_a)_a.

    Columns are the entries u_i[r][c] vertex by vertex, rows the entries of
    each arrow's (n_t x m_s) block, arrow by arrow, row-major.
    """
    col_of = {}
    for i in range(n):
        for r in range(n_dims[i]):
            for c in range(m_dims[i]):
                col_of[i, r, c] = len(col_of)
    rows = []
    for k, (s, t) in enumerate(arrows):
        f, g = m_maps[k], n_maps[k]
        for r in range(n_dims[t]):
            for c in range(m_dims[s]):
                row = [0] * len(col_of)
                for x in range(n_dims[s]):
                    row[col_of[s, x, c]] += g[r][x]
                for x in range(m_dims[t]):
                    row[col_of[t, r, x]] -= f[x][c]
                rows.append(row)
    return rows


def hom_dim(arrows, m_maps, n_maps, m_dims, n_dims, n: int, p: int) -> tuple[int, int]:
    """(dim Hom(M, N), rank of the commutation matrix)."""
    r = rank(commutation_rows(arrows, m_maps, n_maps, m_dims, n_dims, n), p)
    return sum(m_dims[i] * n_dims[i] for i in range(n)) - r, r


def parse_rep_text(text: str, labels, arrow_ids) -> tuple[str, list[int], dict]:
    """Read the `rep`/`dim`/`map` lines of a representation file.

    Returns the field token, the dimension vector in vertex order, and the
    arrow matrices by arrow id (arrows without a `map` line are absent).
    """
    field = None
    dims = [0] * len(labels)
    maps = {}
    index = {lbl: i for i, lbl in enumerate(labels)}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "rep":
            field = rest.split()[-1]
        elif head == "dim":
            lbl, _, val = rest.partition("=")
            dims[index[lbl.strip()]] = int(val)
        elif head == "map":
            aid, _, lit = rest.partition("=")
            if aid.strip() not in arrow_ids:
                raise ValueError(f"unknown arrow {aid.strip()!r}")
            inner = lit.strip()[1:-1]
            maps[aid.strip()] = [
                [Fraction(tok) for tok in row.split(",") if tok.strip()]
                for row in inner.replace("],[", "]|[").strip("[]").split("]|[")
            ]
        else:
            raise ValueError(f"unexpected line {line!r}")
    return field, dims, maps
