"""Exact linear algebra over the rationals and over prime fields.

Rational matrices are eliminated in integers only.  Each row is scaled by
the lcm of its denominators, then reduced by fraction-free (Bareiss)
elimination with positive pivots, so intermediate entries stay bounded by
minors of the input.  `rank` stops after the forward pass.  `rref` runs the
same fraction-free step above each pivot as well (Gauss-Jordan), which
leaves every pivot equal to the last one, D; the reduced form is then the
integer result divided by D, one division per nonzero entry at the end.
Prime-field matrices use plain modular elimination.  An elimination step
updates a row only from the pivot column on wherever that is exact: every
row over F_p, the rows below the pivot over Q (the Gauss-Jordan rows above
a Bareiss pivot are rescaled, so they are updated whole).  All results are
exact, and pivoting is canonical (first nonzero entry in column order,
lowest row first), so every basis this module returns is reproducible bit
for bit.

A `Matrix` canonicalizes its entries in one pass per field: ints are reduced
mod p directly, Fractions over Q are kept, and any other input goes through
`Field.canon`, so each stored entry is exactly `field.canon(x)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

__all__ = [
    "Field",
    "QQ",
    "Matrix",
    "rank",
    "rref",
    "kernel_basis",
    "cokernel_basis",
    "solve",
    "inverse",
]


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


@dataclass(frozen=True)
class Field:
    """The rationals (char 0) or the prime field with `char` elements.

    Rational elements are `fractions.Fraction` in lowest terms; prime-field
    elements are ints reduced to the range [0, p).
    """

    char: int

    def __post_init__(self):
        if self.char < 0 or self.char == 1 or (self.char > 1 and not _is_prime(self.char)):
            raise ValueError(f"field characteristic must be 0 or prime, got {self.char}")

    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    @staticmethod
    def prime(p: int) -> "Field":
        if p < 2:
            raise ValueError(f"prime field modulus must be >= 2, got {p}")
        return Field(p)

    @property
    def is_rational(self) -> bool:
        return self.char == 0

    def canon(self, x):
        """Reduce an int or Fraction to the canonical element representation."""
        if self.char == 0:
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(f"denominator {x.denominator} vanishes mod {self.char}")
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        return x % self.char

    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def neg(self, x):
        return -x if self.char == 0 else (-x) % self.char

    def inv(self, x):
        if self.char == 0:
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(x)
        return pow(x, -1, self.char)

    def parse(self, token: str):
        """Parse an element written as `n` or `a/b`."""
        token = token.strip()
        if "/" in token:
            num_s, _, den_s = token.partition("/")
            num, den = int(num_s), int(den_s)
            if den == 0:
                raise ZeroDivisionError(f"zero denominator in {token!r}")
            return self.canon(Fraction(num, den))
        return self.canon(int(token))

    def format(self, x) -> str:
        if self.char == 0 and x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        return str(int(x))

    def __str__(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"


QQ = Field.rationals()


class Matrix:
    """Immutable dense matrix over a `Field`, entries stored row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        # One pass per field: the common input types are canonicalized inline
        # (an exact type test, no ABC isinstance), everything else by canon.
        p = field.char
        if p:
            ents = [x % p if type(x) is int else field.canon(x) for x in entries]
        else:
            ents = [x if type(x) is Fraction else field.canon(x) for x in entries]
        object.__setattr__(self, "entries", tuple(ents))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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
        return cls(field, rows, cols, [field.zero()] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

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
        zero = self.field.zero()
        return all(x == zero for x in self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p = self.field.char
        n, m, k = self.rows, other.cols, self.cols
        out = []
        for i in range(n):
            ri = self.row(i)
            for j in range(m):
                acc = sum(ri[t] * other.entries[t * m + j] for t in range(k) if ri[t])
                out.append(acc % p if p else Fraction(acc))
        return Matrix(self.field, n, m, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.char
        ents = [a + b for a, b in zip(self.entries, other.entries)]
        if p:
            ents = [x % p for x in ents]
        return Matrix(self.field, self.rows, self.cols, ents)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.char
        ents = [a - b for a, b in zip(self.entries, other.entries)]
        if p:
            ents = [x % p for x in ents]
        return Matrix(self.field, self.rows, self.cols, ents)

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, [f.neg(x) for x in self.entries])

    def scale(self, c) -> "Matrix":
        c = self.field.canon(c)
        p = self.field.char
        ents = [c * x for x in self.entries]
        if p:
            ents = [x % p for x in ents]
        return Matrix(self.field, self.rows, self.cols, ents)

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape or field mismatch")

    @staticmethod
    def hstack(field: Field, mats: Iterable["Matrix"], rows: int) -> "Matrix":
        mats = list(mats)
        for m in mats:
            if m.rows != rows or m.field != field:
                raise ValueError("hstack row count or field mismatch")
        cols = sum(m.cols for m in mats)
        flat = []
        for i in range(rows):
            for m in mats:
                flat.extend(m.row(i))
        return Matrix(field, rows, cols, flat)

    @staticmethod
    def vstack(field: Field, mats: Iterable["Matrix"], cols: int) -> "Matrix":
        mats = list(mats)
        flat = []
        rows = 0
        for m in mats:
            if m.cols != cols or m.field != field:
                raise ValueError("vstack column count or field mismatch")
            flat.extend(m.entries)
            rows += m.rows
        return Matrix(field, rows, cols, flat)

    def submatrix(self, row_start: int, row_stop: int, col_start: int, col_stop: int) -> "Matrix":
        flat = []
        for i in range(row_start, row_stop):
            flat.extend(self.entries[i * self.cols + col_start : i * self.cols + col_stop])
        return Matrix(self.field, row_stop - row_start, col_stop - col_start, flat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.format(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


# --- elimination kernels ------------------------------------------------

_ZERO = Fraction(0)


def _integer_rows(frac_rows: list[list[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (kernel/rank preserving)."""
    out = []
    for r in frac_rows:
        mult = lcm(*(x.denominator for x in r))
        if mult == 1:
            out.append([x.numerator for x in r])
        else:
            out.append([x.numerator * (mult // x.denominator) for x in r])
    return out


def _bareiss_echelon(rows_: list[list[int]], m: int, n: int, full: bool) -> list[int]:
    """Fraction-free Gauss(-Jordan) elimination in place; returns pivot columns.

    A pivot row whose pivot is negative is negated, which is the same as
    negating that input row, so every pivot is positive and a matrix of
    +-1 pivots keeps the divisor at 1.  After step k every entry is, up to
    those signs, a (k+1)-minor of the input, so the exact integer divisions
    by the previous pivot never truncate.  With `full`, rows above the pivot
    are eliminated too, and every pivot row ends with the last pivot at its
    pivot column.  Rows from the pivot row down are zero left of the pivot
    column, so they are updated from that column on; rows above it have
    nonzero entries there that the step still rescales, so they are updated
    whole.
    """
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows_[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows_[r], rows_[pr] = rows_[pr], rows_[r]
        piv_row = rows_[r]
        piv = piv_row[c]
        if piv < 0:
            piv = -piv
            piv_row[c:] = [-a for a in piv_row[c:]]
        piv_tail = piv_row[c:]
        for i in range(m) if full else range(r + 1, m):
            if i == r:
                continue
            ri = rows_[i]
            f = ri[c]
            if not f and piv == prev:
                continue
            s, pb = (c, piv_tail) if i > r else (0, piv_row)
            if f:
                if prev == 1:
                    ri[s:] = [a * piv - f * b for a, b in zip(ri[s:], pb)]
                else:
                    ri[s:] = [(a * piv - f * b) // prev for a, b in zip(ri[s:], pb)]
            elif prev == 1:
                ri[s:] = [a * piv for a in ri[s:]]
            else:
                ri[s:] = [(a * piv) // prev for a in ri[s:]]
        prev = piv
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _fp_eliminate(rows_: list[list[int]], m: int, n: int, p: int, full: bool) -> list[int]:
    """Modular Gauss(-Jordan) elimination in place; returns pivot columns.

    The pivot row is zero left of the pivot column, so a step leaves those
    columns of every row as they are and each row is updated from the pivot
    column on.
    """
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows_[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows_[r], rows_[pr] = rows_[pr], rows_[r]
        prow = rows_[r]
        inv = pow(prow[c], -1, p)
        if inv != 1:
            prow[c:] = [(x * inv) % p for x in prow[c:]]
        ptail = prow[c:]
        for i in range(m) if full else range(r + 1, m):
            if i == r:
                continue
            ri = rows_[i]
            f = ri[c]
            if f:
                ri[c:] = [(a - f * b) % p for a, b in zip(ri[c:], ptail)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _rref_rational(A: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    rows_ = _integer_rows(A.row_lists())
    pivots = _bareiss_echelon(rows_, A.rows, A.cols, full=True)
    d = rows_[len(pivots) - 1][pivots[-1]] if pivots else 1
    frows = [[Fraction(x, d) if x else _ZERO for x in r] for r in rows_]
    return frows, pivots


def rref(A: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (unique, hence canonical)."""
    if A.field.is_rational:
        rows_, pivots = _rref_rational(A)
    else:
        rows_ = A.row_lists()
        pivots = _fp_eliminate(rows_, A.rows, A.cols, A.field.char, full=True)
    flat = [x for r in rows_ for x in r]
    return Matrix(A.field, A.rows, A.cols, flat), tuple(pivots)


def rank(A: Matrix) -> int:
    """Exact rank via forward elimination only."""
    if A.field.is_rational:
        rows_ = _integer_rows(A.row_lists())
        return len(_bareiss_echelon(rows_, A.rows, A.cols, full=False))
    rows_ = A.row_lists()
    return len(_fp_eliminate(rows_, A.rows, A.cols, A.field.char, full=False))


def kernel_basis(A: Matrix) -> list[tuple]:
    """Canonical basis of the right kernel {x : Ax = 0}, one vector per free column."""
    R, pivots = rref(A)
    pivot_set = set(pivots)
    field = A.field
    zero, one = field.zero(), field.one()
    basis = []
    for free in range(A.cols):
        if free in pivot_set:
            continue
        v = [zero] * A.cols
        v[free] = one
        for k, pc in enumerate(pivots):
            v[pc] = field.neg(R.entry(k, free))
        basis.append(tuple(v))
    return basis


def cokernel_basis(A: Matrix) -> list[tuple]:
    """Standard-basis representatives of target/im(A), one per non-pivot coordinate.

    Coordinates are pivots of the column space (rref of the transpose); the
    remaining standard basis vectors descend to a basis of the cokernel.
    """
    _, pivots = rref(A.transpose())
    pivot_set = set(pivots)
    field = A.field
    zero, one = field.zero(), field.one()
    reps = []
    for i in range(A.rows):
        if i in pivot_set:
            continue
        v = [zero] * A.rows
        v[i] = one
        reps.append(tuple(v))
    return reps


def column_space_pivots(A: Matrix) -> tuple[tuple[int, ...], Matrix]:
    """Pivot coordinates of im(A) and the reduced basis of im(A) as rows."""
    R, pivots = rref(A.transpose())
    return tuple(pivots), R.submatrix(0, len(pivots), 0, A.rows)


def solve(A: Matrix, b: Sequence):
    """Some exact solution of Ax = b with free variables zero, or None."""
    b = [A.field.canon(x) for x in b]
    if len(b) != A.rows:
        raise ValueError(f"rhs length {len(b)} != row count {A.rows}")
    bmat = Matrix(A.field, A.rows, 1, b)
    aug = Matrix.hstack(A.field, [A, bmat], A.rows)
    R, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = [A.field.zero()] * A.cols
    for k, pc in enumerate(pivots):
        x[pc] = R.entry(k, A.cols)
    return tuple(x)


def inverse(A: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    if A.rows != A.cols:
        raise ValueError("inverse requires a square matrix")
    n = A.rows
    aug = Matrix.hstack(A.field, [A, Matrix.identity(A.field, n)], n)
    R, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return R.submatrix(0, n, n, 2 * n)
