"""Exact linear algebra over the rationals and over prime fields.

Routines that return a basis or a solution run one canonical forward
elimination, then back-substitute only the columns they need: none for
`cokernel_basis`, the free columns for `kernel_basis` and `rref`, the
right-hand side for `solve`.  Rational rows are scaled to integers by the
lcm of their denominators and reduced by fraction-free (Bareiss) elimination
with positive pivots, so entries stay bounded by minors of the input; the
back substitution solves for D*x, D the last pivot, with checked exact
divisions and one Fraction per non-integral entry at the end.  Prime-field
rows use modular elimination with unit pivots.  A step updates only the
rows below the pivot that have an entry in its column, from that column on:
Bareiss leaves the others unscaled and catches each up by an exact division
when a later step reads it.  Pivoting is canonical (first
nonzero entry in column order, lowest row first), so every basis returned is
reproducible bit for bit.  The eliminations work on plain row lists:
`kernel_basis`, `cokernel_basis` and `solve` are `_kernel_of_rows`,
`_cokernel_of_rows` and `_solve_rows` on a `Matrix`'s rows, and `rep` hands
those three the commutation map's rows, which it turns from sparse rows
into lists once with `_dense`.  The reflection functors call
`_kernel_of_rows` on rows they assemble without building a `Matrix`.

A rank does not depend on pivot order, so questions that need only a rank go
to one rank engine on sparse rows.  One pipeline, `_rank_mod`, ranks integer
rows mod p or over Z: it eliminates sparsely on unit pivots, then hands the
dense residual rows to `_fp_eliminate` or `_bareiss_echelon`.  The sparse
phase keeps, per column, a list of the rows that held it, which may name rows
that have lost the column since; readers skip those.
`_rank_lower_bound` runs it over F_p, and over Q modulo one word-size prime;
it settles a full-rank question alone, which `rep` uses to answer an empty
kernel or cokernel, and a system solvable whatever its right-hand side,
without an elimination.  `_rank_of` answers `rank` and `rep.hom_ext_dims`
from that bound, and runs the pipeline over Z only when the bound falls
short of what the caller knows the rank can be.  The answers are exact and
the same as the canonical elimination's.

The `Matrix` constructor is the one place where a matrix's entries become
canonical: it stores `field.canon(x)` for each entry x, and `Field.canon`
tests for a plain int, the common input, first.  `Matrix.__sub__` hands it
raw differences without reducing them first; `solve` puts its right-hand
side through `Field.canon`.  Immutability, equality, hashing and copying come
from `value.Value`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Sequence

from .errors import InternalInvariantError
from .value import Value, setfield

__all__ = [
    "Field",
    "QQ",
    "Matrix",
    "rank",
    "kernel_basis",
    "cokernel_basis",
    "solve",
]


# An integer as the file formats write it.  int() alone would also read
# other scripts' digits, underscores between digits and surrounding spaces.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field(Value):
    """The rationals (`Field(0)`, also `QQ`) or the prime field with `char` elements.

    A rational element is an int when it is an integer and a
    `fractions.Fraction` in lowest terms otherwise; a prime-field element is
    an int in the range [0, p).  So 0 and 1 are the zero and one of every
    field, `str` prints every element as the `.rep` format writes it, and
    equality and hashing agree across the two rational types.  Nothing here
    divides field elements with `/`, which would turn integral rationals
    back into Fractions.
    """

    _fields = ("char",)

    def __init__(self, char: int):
        setfield(self, "char", char)
        if char < 0 or char == 1 or (char > 1 and not _is_prime(char)):
            raise ValueError(f"field characteristic must be 0 or prime, got {char}")

    @property
    def is_rational(self) -> bool:
        return self.char == 0

    def canon(self, x):
        """The canonical element equal to x, an int, Fraction, bool or float
        (floats are converted exactly)."""
        p = self.char
        if type(x) is int:
            return x % p if p else x
        x = x if type(x) is Fraction else Fraction(x)
        if not p:
            return x.numerator if x.denominator == 1 else x
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator {x.denominator} vanishes mod {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def parse(self, token: str):
        """Parse an element written as `n` or `a/b`, with n, a and b ASCII
        integers `[+-]?[0-9]+`; anything else raises ValueError."""
        num_s, slash, den_s = token.strip().partition("/")
        if not _INTEGER.fullmatch(num_s) or (slash and not _INTEGER.fullmatch(den_s)):
            raise ValueError(f"{token!r} is not an integer n or a fraction a/b in digits 0-9")
        if slash:
            num, den = int(num_s), int(den_s)
            if den == 0:
                raise ZeroDivisionError(f"zero denominator in {token!r}")
            return self.canon(Fraction(num, den))
        return self.canon(int(num_s))

    def __str__(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"


QQ = Field(0)


class Matrix(Value):
    """Immutable dense matrix over a `Field`, entries stored row-major."""

    _fields = __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        setfield(self, "field", field)
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        # A list, not map(): tuple() grows an iterator's result by repeated
        # reallocs, which raised the benchmark's peak RSS by 2 %.
        setfield(self, "entries", tuple([field.canon(x) for x in entries]))

    @classmethod
    def from_rows(cls, field: Field, data: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = [list(r) for r in data]
        if data:
            cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = [x for r in data for x in r]
        return cls(field, len(data), cols, flat)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [0] * (rows * cols))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list]:
        """Mutable copy of the rows, for elimination."""
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        flat = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.field, self.cols, self.rows, flat)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.field, self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape or field mismatch")

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


# --- elimination kernels ------------------------------------------------


def _integer_rows(rows: list[list]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators in place (kernel/rank preserving).

    A row with no Fraction, whose lcm is 1, is already ints and is kept as it is.
    """
    for i, r in enumerate(rows):
        if Fraction in map(type, r):
            mult = lcm(*(x.denominator for x in r))
            rows[i] = [x.numerator * (mult // x.denominator) for x in r]
    return rows


def _bareiss_echelon(rows_: list[list[int]], m: int, n: int) -> list[int]:
    """Fraction-free (Bareiss) forward elimination in place; returns pivot columns.

    A pivot row whose pivot is negative is negated, which is the same as
    negating that input row, so every pivot is positive and a matrix of
    +-1 pivots keeps the divisor at 1.  After step k every entry is, up to
    those signs, a (k+1)-minor of the input, so the exact integer divisions
    by the previous pivot never truncate.  Rows below the pivot row are zero
    left of the pivot column, so each step updates them from that column on.
    Entries above the pivots stay; `_back_substitute` reads the reduced form.

    A step touches only the rows with a nonzero entry in the pivot column.
    The eager form would multiply every other row by the pivot and divide it
    by the previous one, ratios that telescope; so a skipped row is left as
    it is, and `stale` records the pivot its entries are scaled to, the one
    before the first step that skipped it.  The step that next reads the row
    divides by that pivot instead: (a * piv - f * b) // then to update it,
    a * prev // then to make it the pivot row.  Both equal the eager entries
    as rationals, which are minors, so the divisions are exact and the
    echelon form is the eager one entry for entry.  Every row left below the
    last pivot is zero, so none needs scaling at the end.
    """
    pivots: list[int] = []
    prev = 1
    stale: dict[int, int] = {}
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = r if rows_[r][c] else next((i for i in range(r + 1, m) if rows_[i][c]), None)
        if pr is None:
            continue
        rows_[r], rows_[pr] = rows_[pr], rows_[r]
        piv_row = rows_[r]
        then = stale.pop(pr, prev)
        if r in stale:
            stale[pr] = stale.pop(r)
        if then != prev:
            piv_row[c:] = [a * prev // then for a in piv_row[c:]]
        piv = piv_row[c]
        if piv < 0:
            piv = -piv
            piv_row[c:] = [-a for a in piv_row[c:]]
        piv_tail = piv_row[c:]
        for i in range(r + 1, m):
            ri = rows_[i]
            f = ri[c]
            if not f:
                if piv != prev and i not in stale:
                    stale[i] = prev
                continue
            then = stale.pop(i, prev)
            ri[c:] = [(a * piv - f * b) // then for a, b in zip(ri[c:], piv_tail)]
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def _fp_eliminate(rows_: list[list[int]], m: int, n: int, p: int) -> list[int]:
    """Modular forward elimination in place with unit pivots; returns pivot columns.

    The pivot row is zero left of the pivot column, so a step leaves those
    columns of every row as they are and each row below it is updated from
    the pivot column on.
    """
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = r if rows_[r][c] else next((i for i in range(r + 1, m) if rows_[i][c]), None)
        if pr is None:
            continue
        rows_[r], rows_[pr] = rows_[pr], rows_[r]
        prow = rows_[r]
        inv = pow(prow[c], -1, p)
        if inv != 1:
            prow[c:] = [(x * inv) % p for x in prow[c:]]
        ptail = prow[c:]
        for i in range(r + 1, m):
            ri = rows_[i]
            f = ri[c]
            if f:
                ri[c:] = [(a - f * b) % p for a, b in zip(ri[c:], ptail)]
        pivots.append(c)
        r += 1
    return pivots


def _echelon(field: Field, rows_: list[list], n: int) -> list[int]:
    """Forward elimination in place of the rows of an n-column matrix (made
    integral first over Q); returns the pivot columns."""
    if field.is_rational:
        return _bareiss_echelon(_integer_rows(rows_), len(rows_), n)
    return _fp_eliminate(rows_, len(rows_), n, field.char)


# --- rank engine --------------------------------------------------------

# The residual prime over Q: below 2**15, so a product of two residues stays
# below 2**30, one CPython digit.
_RESIDUE_PRIME = 32749

# The sparse phase hands over to the dense kernels once the live rows hold
# more than _DENSE_SHARE of the live rows x live columns block, past which a
# dict row update is slower than a list one, or more than _SPARSE_CAP
# entries.  An entry of a dict row and its slot in a column's row list cost
# ten to fifteen times a list slot (tracemalloc, 2000 x 2000 maps with 5 to
# 100 entries a row), so the cap keeps a large map's peak near its dense size.
_DENSE_SHARE = 0.75
_SPARSE_CAP = 2**17


def _unit_phase(rows: list[dict], p: int, bound: int) -> tuple[int, list[dict], list[int]]:
    """Sparse elimination with unit pivots in place; returns (pivot count,
    residual rows, residual columns).

    Each row is {column: nonzero entry}, integers over Q and residues mod p
    over F_p.  A pivot is a unit: +-1 over Z (so a step never divides and is
    exact over Q and mod every prime), any nonzero mod p.  Columns are taken
    in order, as `_fp_eliminate` takes them, so the residual keeps the
    input's band; each pivots on its shortest live row with a unit there,
    ties going to the lower index, and a column with none is left to the
    residual.  The phase stops when the live rows get dense (see
    _DENSE_SHARE) or when the pivots reach `bound`, an upper bound on the
    rank.  The rank is the pivot count plus the rank of the residual rows.

    A step touches only the rows it changes.  `colrows` lists, for each
    column some live row holds, the rows that have held it: a fill-in
    appends, while an entry that cancels or a row taken as pivot (its slot
    becomes an empty dict) leaves a stale index behind.  A column's list is
    pruned to the rows that still have the column when the column comes up
    for a pivot; it may still repeat a row, which the update then skips.
    The pivot row is not scaled, since it is dropped after the step: the
    inverse of its pivot goes into each target row's multiplier.  A column
    of the pivot row stays live in every updated row that did not cancel it,
    so only the columns that cancelled, or all of them when no row was
    updated, are looked up for a live holder and dropped without one.
    """
    colrows: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            colrows.setdefault(c, []).append(i)
    live = {i for i, r in enumerate(rows) if r}
    nnz = sum(map(len, rows))
    # Over Z the dense kernel is Bareiss, slower than a unit step at any density.
    share = _DENSE_SHARE if p else 1
    done = 0
    for pc in sorted(colrows):
        if done == bound or nnz > min(share * len(live) * len(colrows), _SPARSE_CAP):
            break
        targets = [i for i in colrows.pop(pc, ()) if pc in rows[i]]
        units = targets if p else [i for i in targets if rows[i][pc] in (1, -1)]
        if not units:
            if targets:
                colrows[pc] = targets
            continue
        i = min(units, key=lambda i: (len(rows[i]), i))
        row, rows[i] = rows[i], {}
        live.discard(i)
        nnz -= len(row)
        piv = row.pop(pc)
        neg_inv = p - pow(piv, -1, p) if p else -piv
        items = row.items()
        updated, gone = False, []
        for j in targets:
            rj = rows[j]
            if pc not in rj:
                continue
            updated = True
            before = len(rj)
            nf = rj.pop(pc) * neg_inv
            if p:
                nf %= p
            for c, x in items:
                y = rj.get(c)
                if y is None:
                    rj[c] = nf * x % p if p else nf * x
                    colrows[c].append(j)
                else:
                    y = (y + nf * x) % p if p else y + nf * x
                    if y:
                        rj[c] = y
                    else:
                        del rj[c]
                        gone.append(c)
            nnz += len(rj) - before
            if not rj:
                live.discard(j)
        for c in gone if updated else row:
            for j in colrows.get(c, ()):
                if c in rows[j]:
                    break
            else:
                colrows.pop(c, None)
        done += 1
    return done, [rows[i] for i in sorted(live)], sorted(colrows)


def _dense(rows: list[dict], cols: Sequence[int]) -> list[list]:
    """The rows as lists over the given columns; each dict is emptied once
    copied, so the two forms are never both held in full."""
    at = {c: k for k, c in enumerate(cols)}
    out = []
    for r in rows:
        d = [0] * len(cols)
        for c, x in r.items():
            d[at[c]] = x
        r.clear()
        out.append(d)
    return out


def _integer_dict_rows(rows: list[dict]) -> list[dict]:
    """`_integer_rows` for rows {column: rational}."""
    for r in rows:
        if Fraction in map(type, r.values()):
            mult = lcm(*(x.denominator for x in r.values()))
            for c, x in r.items():
                r[c] = x.numerator * (mult // x.denominator)
    return rows


def _rank_mod(rows: list[dict], p: int, bound: int) -> int:
    """Rank mod p of sparse integer rows, or over Z when p = 0, at most
    `bound`; the rows are consumed.  The unit pivots are taken first, then
    the dense kernel of the field (`_fp_eliminate` mod p, `_bareiss_echelon`
    over Z) ranks their residual."""
    done, rest, cols = _unit_phase(rows, p, bound)
    if done >= bound or not rest:
        return done
    m, n = len(rest), len(cols)
    rest = _dense(rest, cols)
    return done + len(_fp_eliminate(rest, m, n, p) if p else _bareiss_echelon(rest, m, n))


def _rank_lower_bound(field: Field, rows: list[dict], bound: int) -> int:
    """A lower bound on the rank of sparse rows {column: canonical entry}, at
    most `bound`, that reaches `bound` only when the rank does.  Over F_p it
    is the rank, and the rows are consumed; over Q it is the rank mod
    _RESIDUE_PRIME of the rows, which are made integral in place."""
    p = field.char
    if p:
        return _rank_mod(rows, p, bound)
    q = _RESIDUE_PRIME
    return _rank_mod([{c: x % q for c, x in row.items() if x % q} for row in _integer_dict_rows(rows)], q, bound)


def _rank_of(field: Field, rows: list[dict], bound: int) -> int:
    """Rank of the matrix with sparse rows {column: canonical entry}, at most
    `bound`, an upper bound the caller knows; the rows are consumed.

    `_rank_lower_bound` is the rank over F_p, and over Q when it reaches
    `bound`; otherwise the rows, which it has made integral, are ranked over Z.
    """
    r = _rank_lower_bound(field, rows, bound)
    return r if field.char or r == bound else _rank_mod(rows, 0, bound)


def _sparse_rows(A: "Matrix") -> list[dict]:
    """A's rows as {column: nonzero entry}."""
    n, ents, cols = A.cols, A.entries, range(A.cols)
    return [dict(compress(zip(cols, r), r)) for r in (ents[i * n : (i + 1) * n] for i in range(A.rows))]


def _back_substitute(field: Field, rows_: list[list[int]], pivots: list[int], cols: list[int]) -> list[list]:
    """Columns `cols` of the rref, one list per pivot row, from the echelon rows.

    Column j solves U x = u_j, U the echelon rows at the pivot columns.  Over
    Q this solves for y = D x, D the last Bareiss pivot, which is integral by
    Cramer's rule, so each division by a row's pivot is exact (a remainder
    means a corrupt echelon form); over F_p the pivots and D are 1.
    """
    r, p = len(pivots), field.char
    big_d = rows_[r - 1][pivots[-1]] if r else 1
    ys: list[list[int]] = [[]] * r
    for k in reversed(range(r)):
        row = rows_[k]
        acc = [big_d * row[j] for j in cols]
        for l in range(k + 1, r):
            f = row[pivots[l]]
            if f:
                acc = [a - f * b for a, b in zip(acc, ys[l])]
        d = row[pivots[k]]
        if p:
            acc = [a % p for a in acc]
        elif d != 1:
            qr = [divmod(a, d) for a in acc]
            if any(rem for _, rem in qr):
                raise InternalInvariantError(
                    f"back substitution on a {len(rows_)}x{len(row)} matrix: row {k} is not divisible by its pivot {d}"
                )
            acc = [q for q, _ in qr]
        ys[k] = acc
    if big_d == 1:
        return ys
    return [[Fraction(y, big_d) if y % big_d else y // big_d for y in row] for row in ys]


def _free_columns(n: int, pivots: list[int]) -> list[int]:
    pivot_set = set(pivots)
    return [j for j in range(n) if j not in pivot_set]


def rref(A: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (unique, hence canonical)."""
    rows_ = A.row_lists()
    pivots = _echelon(A.field, rows_, A.cols)
    free = _free_columns(A.cols, pivots)
    vals = _back_substitute(A.field, rows_, pivots, free)
    field, n = A.field, A.cols
    flat = [0] * (A.rows * n)
    for k, pc in enumerate(pivots):
        flat[k * n + pc] = 1
        for j, x in zip(free, vals[k]):
            flat[k * n + j] = x
    return Matrix(field, A.rows, n, flat), tuple(pivots)


def rank(A: Matrix) -> int:
    """Exact rank, by the rank engine `_rank_of`."""
    return _rank_of(A.field, _sparse_rows(A), min(A.rows, A.cols))


def kernel_basis(A: Matrix) -> list[tuple]:
    """Canonical basis of the right kernel {x : Ax = 0}, one vector per free column."""
    return _kernel_of_rows(A.field, A.row_lists(), A.cols)


def cokernel_basis(A: Matrix) -> list[tuple]:
    """Standard-basis representatives of target/im(A), one per non-pivot coordinate."""
    return _cokernel_of_rows(A.field, A.row_lists())


def solve(A: Matrix, b: Sequence):
    """Some exact solution of Ax = b with free variables zero, or None."""
    return _solve_rows(A.field, A.row_lists(), A.cols, [A.field.canon(x) for x in b])


# --- bases and solutions on row lists -----------------------------------
#
# Each routine takes a matrix as plain rows of canonical elements of field
# and eliminates them in place.


def _kernel_of_rows(field: Field, rows_: list[list], n: int) -> list[tuple]:
    """`kernel_basis` of the n-column matrix with rows `rows_`."""
    pivots = _echelon(field, rows_, n)
    free = _free_columns(n, pivots)
    vals = _back_substitute(field, rows_, pivots, free)
    p = field.char
    basis = []
    for t, j in enumerate(free):
        v = [0] * n
        v[j] = 1
        for pc, row in zip(pivots, vals):
            v[pc] = (-row[t]) % p if p else -row[t]
        basis.append(tuple(v))
    return basis


def _cokernel_of_rows(field: Field, rows_: list[list]) -> list[tuple]:
    """`cokernel_basis` of the matrix with rows `rows_`: the coordinates that
    are pivots of the column space (a forward pass on the transposed lists)
    span the image, and the remaining standard basis vectors descend to a
    basis of the cokernel."""
    m = len(rows_)
    free = _free_columns(m, _echelon(field, [list(c) for c in zip(*rows_)], m))
    return [tuple(int(t == i) for t in range(m)) for i in free]


def _solve_rows(field: Field, rows_: list[list], n: int, b: Sequence):
    """`solve` on the n-column matrix with rows `rows_` and canonical
    right-hand side b, by eliminating the rows augmented by it in place."""
    m = len(rows_)
    if len(b) != m:
        raise ValueError(f"rhs length {len(b)} != row count {m}")
    for r, bi in zip(rows_, b):
        r.append(bi)
    pivots = _echelon(field, rows_, n + 1)
    if n in pivots:
        return None
    x = [0] * n
    for pc, (val,) in zip(pivots, _back_substitute(field, rows_, pivots, [n])):
        x[pc] = val
    return tuple(x)
