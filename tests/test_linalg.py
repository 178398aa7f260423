"""Exact linear algebra: frozen examples plus randomized oracle comparisons."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import quiverrep.linalg as linalg
from quiverrep.errors import InternalInvariantError
from quiverrep.linalg import (
    _RESIDUE_PRIME,
    _back_substitute,
    _bareiss_echelon,
    _echelon,
    _integer_dict_rows,
    _rank_lower_bound,
    _rank_mod,
    _rank_of,
    _sparse_rows,
    _unit_phase,
    Field,
    Matrix,
    QQ,
    cokernel_basis,
    kernel_basis,
    rank,
    rref,
    solve,
)

from oracles import bareiss_echelon, gauss_rank, gauss_rref, matmul, rank_by_minors

F2 = Field(2)
F5 = Field(5)


def mat(field, rows, cols=None):
    return Matrix.from_rows(field, rows, cols=cols)


def eye(field, n):
    return mat(field, [[int(i == j) for j in range(n)] for i in range(n)], cols=n)


class TestField:
    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            Field(6)
        with pytest.raises(ValueError):
            Field(9)

    def test_canonical_forms(self):
        assert F5.canon(7) == 2
        assert F5.canon(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
        assert QQ.canon(4) == Fraction(4)

    def test_parse_and_format_round_trip(self):
        for token in ["3", "-2", "7/4", "-9/5"]:
            assert str(QQ.parse(token)) == token
        assert F5.parse("7/4") == F5.canon(Fraction(7, 4))


class TestRank:
    def test_empty_matrix(self):
        assert rank(Matrix.zeros(QQ, 0, 0)) == 0

    def test_identity_over_f2(self):
        assert rank(eye(F2, 2)) == 2

    def test_rank_one_rational(self):
        assert rank(mat(QQ, [[2, 4], [1, 2]])) == 1

    def test_rank_equals_transpose_rank(self):
        a = mat(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert rank(a) == rank(a.transpose()) == 2


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(eye(QQ, 3)) == []

    def test_zero_matrix_full_kernel(self):
        assert len(kernel_basis(Matrix.zeros(QQ, 2, 3))) == 3

    def test_row_vector_kernel(self):
        (v,) = kernel_basis(mat(QQ, [[1, 1]]))
        assert v[0] == -v[1] != 0

    def test_kernel_vectors_annihilated(self):
        a = mat(F5, [[1, 2, 3], [4, 0, 1]])
        for v in kernel_basis(a):
            col = Matrix(F5, 3, 1, v)
            assert matmul(a, col).is_zero()


class TestCokernel:
    def test_surjective_map(self):
        assert cokernel_basis(eye(QQ, 2)) == []

    def test_zero_map(self):
        assert len(cokernel_basis(Matrix.zeros(QQ, 3, 2))) == 3

    def test_column_inclusion(self):
        a = mat(QQ, [[1], [0]])
        (rep,) = cokernel_basis(a)
        # the representative is congruent to (0, 1) modulo the image
        diff = [rep[0] - 0, rep[1] - 1]
        assert solve(a, diff) is not None


class TestSolve:
    def test_identity(self):
        assert solve(eye(QQ, 2), [3, 4]) == (Fraction(3), Fraction(4))

    def test_underdetermined_solution_verifies(self):
        a = mat(QQ, [[1, 1]])
        x = solve(a, [2])
        assert x is not None and x[0] + x[1] == 2

    def test_inconsistent(self):
        assert solve(Matrix.zeros(QQ, 2, 2), [1, 0]) is None

    def test_length_check(self):
        with pytest.raises(ValueError):
            solve(Matrix.zeros(QQ, 2, 2), [1, 0, 0])


entry_st = st.integers(min_value=-6, max_value=6)


def matrix_strategy(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry_st, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@settings(max_examples=80, deadline=None)
@given(rows=matrix_strategy())
def test_rank_matches_minor_expansion_oracle(rows):
    for field, p in [(QQ, None), (F2, 2), (F5, 5)]:
        assert rank(Matrix.from_rows(field, rows)) == rank_by_minors(rows, p)


@settings(max_examples=80, deadline=None)
@given(rows=matrix_strategy(max_dim=5))
def test_rank_nullity_and_transpose(rows):
    for field in (QQ, F2, F5):
        a = Matrix.from_rows(field, rows)
        assert len(kernel_basis(a)) + rank(a) == a.cols
        assert rank(a) == rank(a.transpose())


@settings(max_examples=80, deadline=None)
@given(rows=matrix_strategy(max_dim=5))
def test_bareiss_agrees_with_plain_gauss(rows):
    assert rank(Matrix.from_rows(QQ, rows)) == gauss_rank(rows)
    assert rank(Matrix.from_rows(F5, rows)) == gauss_rank(rows, 5)


@settings(max_examples=60, deadline=None)
@given(rows=matrix_strategy(max_dim=5))
def test_kernel_exactness_and_rref_idempotence(rows):
    for field in (QQ, F2):
        a = Matrix.from_rows(field, rows)
        for v in kernel_basis(a):
            assert matmul(a, Matrix(field, a.cols, 1, v)).is_zero()
        r1, piv1 = rref(a)
        r2, piv2 = rref(r1)
        assert r1 == r2 and piv1 == piv2


@settings(max_examples=60, deadline=None)
@given(
    rows=matrix_strategy(max_dim=4),
    xs=st.lists(entry_st, min_size=4, max_size=4),
)
def test_solve_verifies_by_substitution(rows, xs):
    for field in (QQ, F5):
        a = Matrix.from_rows(field, rows)
        x = Matrix(field, a.cols, 1, [field.canon(v) for v in xs[: a.cols]])
        b = matmul(a, x)
        got = solve(a, b.entries)
        assert got is not None
        assert got == tuple(map(field.canon, got))
        assert matmul(a, Matrix(field, a.cols, 1, got)) == b


def test_rational_entries_reduced():
    a = mat(QQ, [[Fraction(2, 4), Fraction(6, 3)]])
    assert a.entries == (Fraction(1, 2), Fraction(2))


def test_prime_field_entries_reduced():
    a = mat(F5, [[7, -1], [10, 12]])
    assert a.entries == (2, 4, 0, 2)


mixed_entry_st = st.one_of(
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(mixed_entry_st, max_size=12))
def test_bulk_canonicalization_equals_canon_per_entry(xs):
    for field in (QQ, F2, Field(3), Field(101)):
        try:
            want = tuple(field.canon(x) for x in xs)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                Matrix(field, 1, len(xs), xs)
            continue
        got = Matrix(field, 1, len(xs), xs).entries
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


@settings(max_examples=200, deadline=None)
@given(x=mixed_entry_st)
def test_canon_returns_the_canonical_element(x):
    """An int in [0, p) over F_p, and over Q an int or a Fraction that is not
    integral; in each field equal to x."""
    for p in (2, 3, 101):
        if Fraction(x).denominator % p == 0:
            continue
        y = Field(p).canon(x)
        assert type(y) is int and 0 <= y < p
        assert (Fraction(x) - y).numerator % p == 0
    y = QQ.canon(x)
    assert type(y) is int or (type(y) is Fraction and y.denominator > 1)
    assert y == x


def test_vanishing_denominator_raises_in_the_constructor():
    with pytest.raises(ZeroDivisionError):
        Matrix(Field(3), 1, 2, [1, Fraction(1, 6)])
    assert Matrix(QQ, 1, 2, [True, Fraction(1, 6)]).entries == (Fraction(1), Fraction(1, 6))


@st.composite
def rational_matrices(draw):
    """Rows over Q with a column count, including 0 x n and n x 0 shapes.

    Entries come from one of three pools per matrix: {0, +-1} (the shape of
    catalog matrices), small integers, or non-integer fractions.  Some
    matrices get a duplicated or summed row, and some a negative first pivot.
    Two more kinds exercise the column-sliced elimination steps: wide
    matrices whose leading column and some interior columns are all zero,
    and integer matrices in [-5, 5] whose first pivot is at least 2 in
    absolute value, so every later Bareiss step divides by a pivot other
    than 1.
    """
    kind = draw(st.sampled_from(["plain", "wide", "growing"]))
    pools = [
        st.sampled_from([0, 1, -1]),
        st.integers(-5, 5),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    ]
    if kind == "plain":
        nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        entry = draw(st.sampled_from(pools))
    elif kind == "wide":
        nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(6, 10))
        entry = draw(st.sampled_from(pools))
    else:
        nrows, ncols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        entry = pools[1]
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if kind == "wide":
        zero_cols = {0} | draw(st.sets(st.integers(1, ncols - 2), min_size=1, max_size=3))
        rows = [[0 if j in zero_cols else x for j, x in enumerate(r)] for r in rows]
    elif kind == "growing":
        rows[0][0] = draw(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]))
    if rows:
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        extra = draw(st.sampled_from(["none", "duplicate", "sum"]))
        if extra == "duplicate":
            rows.append(list(rows[i]))
        elif extra == "sum":
            rows.append([a + b for a, b in zip(rows[i], rows[j])])
    if kind == "plain" and rows and ncols and draw(st.booleans()):
        rows[0][0] = -abs(rows[0][0]) or -1
    return rows, ncols


def _times(rows, v):
    return [sum((Fraction(a) * x for a, x in zip(r, v)), Fraction(0)) for r in rows]


def _cokernel_oracle(rows, ncols, p=None):
    """Unit vectors at the coordinates that are not pivots of gauss_rref(A^T)."""
    _, pivots = gauss_rref([[row[j] for row in rows] for j in range(ncols)], len(rows), p)
    return [tuple(int(t == q) for t in range(len(rows))) for q in range(len(rows)) if q not in pivots]


def _kernel_oracle(reduced, pivots, ncols):
    """One vector per free column f: 1 at f, minus column f of the rref at the pivots."""
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[f] = 1
        for k, c in enumerate(pivots):
            v[c] = -reduced[k][f]
        basis.append(v)
    return basis


def _solve_oracle(rows, ncols, b, p=None):
    aug, aug_pivots = gauss_rref([row + [x] for row, x in zip(rows, b)], ncols + 1, p)
    if ncols in aug_pivots:
        return None
    expected = [0] * ncols
    for k, c in enumerate(aug_pivots):
        expected[c] = aug[k][ncols]
    return expected


@settings(max_examples=300, deadline=None)
@given(data=rational_matrices(), rhs=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_rational_elimination_matches_textbook_gauss_jordan(data, rhs):
    rows, ncols = data
    a = Matrix.from_rows(QQ, rows, cols=ncols)
    want, want_pivots = gauss_rref(rows, ncols)
    r, pivots = rref(a)
    assert r.entries == tuple(x for row in want for x in row)
    assert pivots == tuple(want_pivots)
    assert rank(a) == len(want_pivots)

    basis = kernel_basis(a)
    assert len(basis) == ncols - len(want_pivots)
    for v in basis:
        assert _times(rows, v) == [0] * len(rows)
    assert gauss_rank([list(v) for v in basis]) == len(basis)
    assert basis == [tuple(v) for v in _kernel_oracle(want, want_pivots, ncols)]
    assert cokernel_basis(a) == _cokernel_oracle(rows, ncols)

    b = rhs[: len(rows)]
    x = solve(a, b)
    expected = _solve_oracle(rows, ncols, b)
    if expected is None:
        assert x is None
    else:
        assert x == tuple(expected)
        assert _times(rows, x) == [Fraction(v) for v in b]

    for p in (3, 101):
        if any(Fraction(v).denominator % p == 0 for row in rows for v in row):
            continue
        ap = Matrix.from_rows(Field(p), rows, cols=ncols)
        want_p, want_p_pivots = gauss_rref(rows, ncols, p)
        rp, pivots_p = rref(ap)
        assert rp.entries == tuple(x for row in want_p for x in row)
        assert pivots_p == tuple(want_p_pivots)
        assert rank(ap) == len(want_p_pivots)
        assert kernel_basis(ap) == [tuple(x % p for x in v) for v in _kernel_oracle(want_p, want_p_pivots, ncols)]
        assert cokernel_basis(ap) == _cokernel_oracle(rows, ncols, p)
        expected_p = _solve_oracle(rows, ncols, b, p)
        assert solve(ap, b) == (None if expected_p is None else tuple(expected_p))


def test_back_substitution_rejects_a_corrupt_echelon_form():
    # A 2x3 echelon form with pivots 2 and 3 (so D = 3) whose entry (0, 1)
    # was zeroed: row 0 then needs 3 * 1 - 0 * 1 = 3 divided by its pivot 2.
    with pytest.raises(InternalInvariantError, match=r"2x3 matrix: row 0 is not divisible by its pivot 2"):
        _back_substitute(QQ, [[2, 0, 1], [0, 3, 1]], [0, 1], [2])
    # uncorrupted, column 2 of the reduced form is (1/3, 1/3)
    assert _back_substitute(QQ, [[2, 1, 1], [0, 3, 1]], [0, 1], [2]) == [[Fraction(1, 3)], [Fraction(1, 3)]]


def test_rational_rank_and_rref_construct_no_intermediate_fractions(monkeypatch):
    """`rank` makes no Fraction, and `rref` one per non-integral entry; the
    second matrix's rref is [[1, 0, 1/3], [0, 1, 1/3]], so that count is 2."""
    a = mat(QQ, [[Fraction(1, 2), -1, 3], [2, Fraction(-3, 4), 0], [-1, 5, Fraction(7, 3)], [1, 1, 1]])
    b = mat(QQ, [[2, 1, 1], [0, Fraction(3, 2), Fraction(1, 2)]])
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for m, want_rank, want_fractions in ((a, 3, 0), (b, 2, 2)):
        made.clear()
        assert rank(m) == want_rank
        assert made == []
        r, _ = rref(m)
        assert len(made) == sum(1 for x in r.entries if x.denominator != 1) == want_fractions


def test_floats_are_converted_exactly_in_every_field():
    m = Matrix(Field(3), 1, 3, [0.5, 2.0, 7])
    assert m.entries == (2, 2, 1)
    assert [type(x) for x in m.entries] == [int, int, int]
    assert rank(m) == 1
    q = Matrix(QQ, 1, 3, [0.5, 2.0, 7])
    assert q.entries == (Fraction(1, 2), 2, 7)
    assert [type(x) for x in q.entries] == [Fraction, int, int]


def _is_canonical_rational(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@settings(max_examples=200, deadline=None)
@given(data=rational_matrices(), rhs=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_integral_rationals_are_ints(data, rhs):
    """Every coordinate a rational routine returns is an int when it is
    integral and a Fraction otherwise; a matrix of Fraction(n) entries is
    the matrix of the ints n; pickling keeps ints ints."""
    rows, ncols = data
    a = Matrix.from_rows(QQ, rows, cols=ncols)
    x = solve(a, [Fraction(v) for v in rhs[: len(rows)]])
    coords = [
        *rref(a)[0].entries,
        *(c for v in kernel_basis(a) for c in v),
        *(c for v in cokernel_basis(a) for c in v),
        *(x or ()),
    ]
    assert all(_is_canonical_rational(c) for c in coords), coords
    assert all(_is_canonical_rational(c) for c in a.entries)

    as_fractions = Matrix.from_rows(QQ, [[Fraction(v) for v in r] for r in rows], cols=ncols)
    assert as_fractions == a and hash(as_fractions) == hash(a)
    assert [type(c) for c in as_fractions.entries] == [type(c) for c in a.entries]

    back = pickle.loads(pickle.dumps(a))
    assert back == a
    assert [type(c) for c in back.entries] == [type(c) for c in a.entries]


# --- the rank engine against the direct elimination ----------------------


@st.composite
def engine_matrices(draw):
    """Sparse, dense, wide, tall and empty matrices over Q, some rank-deficient.

    Sparse matrices are mostly zeros with a few units and non-units; dense
    ones are small integers or non-integer fractions.  Two kinds force the
    rank engine's other paths: a sparse matrix with one column that holds no
    unit over Z, which the unit phase over Z must leave to the residual, and
    a full matrix with no zero and no unit entry, whose residual is the whole
    matrix (over Z for want of a unit, mod p because it is dense from the
    start).  Some get extra rows that are integer combinations of the
    others, so their rank falls short of min(rows, cols).
    """
    kind = draw(st.sampled_from(["sparse", "dense", "wide", "tall", "empty", "no-unit", "full"]))
    sizes = {"sparse": (1, 12, 1, 12), "dense": (1, 6, 1, 6), "wide": (1, 4, 7, 14), "tall": (7, 14, 1, 4)}
    sizes.update({"no-unit": sizes["sparse"], "full": sizes["dense"]})
    if kind == "empty":
        nrows, ncols = draw(st.sampled_from([(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)]))
    else:
        lo_r, hi_r, lo_c, hi_c = sizes[kind]
        nrows, ncols = draw(st.integers(lo_r, hi_r)), draw(st.integers(lo_c, hi_c))
    if kind == "dense":
        entry = draw(st.sampled_from([st.integers(-5, 5), st.fractions(-5, 5, max_denominator=7)]))
    elif kind == "full":
        entry = st.sampled_from([2, -2, 3, -3, 4, 5, -6])
    else:
        entry = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2, -3])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if kind == "no-unit":
        j = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[j] = draw(st.sampled_from([0, 2, -3, 4])) if r[j] in (1, -1) else r[j]
        rows[draw(st.integers(0, nrows - 1))][j] = draw(st.sampled_from([2, -3, 4]))
    if rows and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(data=engine_matrices())
def test_rank_engine_matches_the_direct_elimination(data):
    """`_rank_of` equals the rank of `_echelon` over Q (Fraction entries), F2,
    F3 and F101, and so does `_rank_mod` over Z on the rows made integral;
    `_rank_lower_bound` is a lower bound, exact over F_p."""
    rows, ncols = data
    for field in (QQ, F2, Field(3), Field(101)):
        if field.char and any(Fraction(x).denominator % field.char == 0 for r in rows for x in r):
            continue
        a = Matrix.from_rows(field, rows, cols=ncols)
        want = len(_echelon(field, a.row_lists(), ncols))
        bound = min(a.rows, a.cols)
        assert _rank_of(field, _sparse_rows(a), bound) == want
        lower = _rank_lower_bound(field, _sparse_rows(a), bound)
        assert lower == want if field.char else lower <= want
        if not field.char:
            assert _rank_mod(_integer_dict_rows(_sparse_rows(a)), 0, bound) == want
        assert rank(a) == want


@st.composite
def bareiss_matrices(draw):
    """Integer matrices on which the deferred rescaling of `_bareiss_echelon`
    does its work, with the column count.

    Each row starts with a run of zeros of drawn length, in no order, so a
    row can sit out several steps whose pivots differ, and a row that sat
    out can be swapped into the pivot position or out of it.  A row's first
    nonzero entry is often not a unit and may be negative; other entries
    come from small integers or a pool that is mostly zeros.  Some matrices
    get rows that are integer combinations of the others, so their rank
    falls short, and empty shapes occur.
    """
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    entry = draw(st.sampled_from([st.integers(-7, 7), st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 5])]))
    rows = []
    for _ in range(nrows):
        lead = draw(st.integers(0, ncols))
        tail = draw(st.lists(entry, min_size=ncols - lead, max_size=ncols - lead))
        if tail and not tail[0]:
            tail[0] = draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 5]))
        rows.append([0] * lead + tail)
    if rows and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            combination = [sum(k * r[j] for k, r in zip(coeffs, rows)) for j in range(ncols)]
            rows.insert(draw(st.integers(0, len(rows))), combination)
    return rows, ncols


def _assert_deferred_bareiss_is_eager(rows, ncols):
    deferred, eager = [list(r) for r in rows], [list(r) for r in rows]
    assert _bareiss_echelon(deferred, len(rows), ncols) == bareiss_echelon(eager, len(rows), ncols)
    assert deferred == eager


@settings(max_examples=400, deadline=None)
@given(data=bareiss_matrices())
def test_deferred_bareiss_leaves_the_eager_echelon(data):
    """The same pivots, and every row the same entry for entry."""
    _assert_deferred_bareiss_is_eager(*data)


def test_a_skipped_row_is_caught_up_when_it_becomes_the_pivot_row():
    """Rows 2 and 3 sit out the steps with pivots 2 and 4.  At column 2 row 3
    is swapped into the pivot position and scaled by 4 / 1 to (0, 0, 20, 4);
    row 2, moved to index 3, sits out pivot 20 too and is scaled by 20 / 1
    to (0, 0, 0, 60) when it becomes the last pivot row.  Row 1 takes a
    negative pivot, and in the second matrix an all-zero row and a
    dependent row leave the rank short."""
    rows = [[2, 1, 0, 0], [4, 0, 1, 0], [0, 0, 0, 3], [0, 0, 5, 1]]
    eager = [list(r) for r in rows]
    assert bareiss_echelon(eager, 4, 4) == [0, 1, 2, 3]
    assert eager == [[2, 1, 0, 0], [0, 4, -2, 0], [0, 0, 20, 4], [0, 0, 0, 60]]
    _assert_deferred_bareiss_is_eager(rows, 4)
    _assert_deferred_bareiss_is_eager([[0, 0, 0, 0], [3, 1, 0, 2], [0, 0, 2, 1], [6, 2, 2, 5], [0, 0, 7, -1]], 4)
    for shape in ([], [[]], [[0, 0], [0, 0]]):
        _assert_deferred_bareiss_is_eager(shape, len(shape[0]) if shape else 0)


def _recording_bareiss(monkeypatch):
    calls = []
    original = linalg._bareiss_echelon

    def recorded(rows_, m, n):
        calls.append((m, n))
        return original(rows_, m, n)

    monkeypatch.setattr(linalg, "_bareiss_echelon", recorded)
    return calls


def test_no_unit_entry_over_q_leaves_everything_to_the_residual(monkeypatch):
    """2I has no +-1 entry, but its rank mod the residue prime is full, so no
    Bareiss runs; [[2, 3], [4, 6]] has rank 1 < 2, and with no unit pivot
    Bareiss gets the whole matrix."""
    assert _unit_phase([{0: 2}, {1: 2}], 0, 2) == (0, [{0: 2}, {1: 2}], [0, 1])
    assert _unit_phase([{0: 2, 1: 3}, {0: 4, 1: 6}], 0, 2)[0] == 0
    calls = _recording_bareiss(monkeypatch)
    assert rank(mat(QQ, [[2, 0], [0, 2]])) == 2
    assert calls == []
    assert rank(mat(QQ, [[2, 3], [4, 6]])) == 1
    assert calls == [(2, 2)]


def test_rank_lost_mod_the_residue_prime_comes_from_bareiss(monkeypatch):
    """[[1, 2], [3, 6 + q]] has determinant q, the residue prime: its rank is
    1 mod q and 2 over Q.  The unit pivot leaves the 1x1 residual [[q]],
    which Bareiss settles."""
    q = _RESIDUE_PRIME
    a = mat(QQ, [[1, 2], [3, 6 + q]])
    assert _rank_lower_bound(QQ, _sparse_rows(a), 2) == 1
    assert rank(mat(Field(q), [[1, 2], [3, 6 + q]])) == 1
    calls = _recording_bareiss(monkeypatch)
    assert rank(a) == 2
    assert calls == [(1, 1)]
    assert rank(mat(QQ, [[q, 0, 0], [0, 1, 1], [0, 0, q]])) == 3


def test_a_bound_below_min_rows_cols_ends_the_search(monkeypatch):
    """Rank 2 on a 3x3 matrix: min(rows, cols) = 3 needs the fallback over Z,
    while the bound 2 (as the identity gives an End map) is met by the
    residue-prime rank alone.  Over Z the unit pivots leave an empty
    residual, so Bareiss never runs."""
    rows = [[1, 1, 0], [0, 1, 1], [1, 2, 1]]
    a = mat(QQ, rows)
    calls = _recording_bareiss(monkeypatch)
    primes = []
    rank_mod = linalg._rank_mod
    monkeypatch.setattr(linalg, "_rank_mod", lambda rows, p, bound: primes.append(p) or rank_mod(rows, p, bound))
    assert _rank_of(QQ, _sparse_rows(a), 2) == 2
    assert primes == [_RESIDUE_PRIME]
    assert _rank_of(QQ, _sparse_rows(a), 3) == 2
    assert primes == [_RESIDUE_PRIME, _RESIDUE_PRIME, 0]
    assert calls == []
