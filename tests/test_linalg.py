"""Exact linear algebra: frozen examples plus randomized oracle comparisons."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverrep.linalg import (
    Field,
    Matrix,
    QQ,
    cokernel_basis,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve,
)

from oracles import gauss_rank, gauss_rref, rank_by_minors

F2 = Field.prime(2)
F5 = Field.prime(5)


def mat(field, rows, cols=None):
    return Matrix.from_rows(field, rows, cols=cols)


class TestField:
    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            Field.prime(6)
        with pytest.raises(ValueError):
            Field(9)

    def test_canonical_forms(self):
        assert F5.canon(7) == 2
        assert F5.canon(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
        assert QQ.canon(4) == Fraction(4)

    def test_parse_and_format_round_trip(self):
        for token in ["3", "-2", "7/4", "-9/5"]:
            assert QQ.format(QQ.parse(token)) == token
        assert F5.parse("7/4") == F5.canon(Fraction(7, 4))


class TestRank:
    def test_empty_matrix(self):
        assert rank(Matrix.zeros(QQ, 0, 0)) == 0

    def test_identity_over_f2(self):
        assert rank(Matrix.identity(F2, 2)) == 2

    def test_rank_one_rational(self):
        assert rank(mat(QQ, [[2, 4], [1, 2]])) == 1

    def test_rank_equals_transpose_rank(self):
        a = mat(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert rank(a) == rank(a.transpose()) == 2


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(Matrix.identity(QQ, 3)) == []

    def test_zero_matrix_full_kernel(self):
        assert len(kernel_basis(Matrix.zeros(QQ, 2, 3))) == 3

    def test_row_vector_kernel(self):
        (v,) = kernel_basis(mat(QQ, [[1, 1]]))
        assert v[0] == -v[1] != 0

    def test_kernel_vectors_annihilated(self):
        a = mat(F5, [[1, 2, 3], [4, 0, 1]])
        for v in kernel_basis(a):
            col = Matrix(F5, 3, 1, v)
            assert (a @ col).is_zero()


class TestCokernel:
    def test_surjective_map(self):
        assert cokernel_basis(Matrix.identity(QQ, 2)) == []

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
        assert solve(Matrix.identity(QQ, 2), [3, 4]) == (Fraction(3), Fraction(4))

    def test_underdetermined_solution_verifies(self):
        a = mat(QQ, [[1, 1]])
        x = solve(a, [2])
        assert x is not None and x[0] + x[1] == 2

    def test_inconsistent(self):
        assert solve(Matrix.zeros(QQ, 2, 2), [1, 0]) is None

    def test_length_check(self):
        with pytest.raises(ValueError):
            solve(Matrix.zeros(QQ, 2, 2), [1, 0, 0])


def test_inverse_round_trip():
    a = mat(QQ, [[1, 2], [3, 5]])
    assert a @ inverse(a) == Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        inverse(mat(QQ, [[1, 2], [2, 4]]))


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
            assert (a @ Matrix(field, a.cols, 1, v)).is_zero()
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
        b = a @ x
        got = solve(a, b.entries)
        assert got is not None
        assert a @ Matrix(field, a.cols, 1, got) == b


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
    for field in (QQ, F2, Field.prime(3), Field.prime(101)):
        try:
            want = tuple(field.canon(x) for x in xs)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                Matrix(field, 1, len(xs), xs)
            continue
        got = Matrix(field, 1, len(xs), xs).entries
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


def test_vanishing_denominator_raises_in_the_constructor():
    with pytest.raises(ZeroDivisionError):
        Matrix(Field.prime(3), 1, 2, [1, Fraction(1, 6)])
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

    b = rhs[: len(rows)]
    aug, aug_pivots = gauss_rref([row + [x] for row, x in zip(rows, b)], ncols + 1)
    x = solve(a, b)
    if ncols in aug_pivots:
        assert x is None
    else:
        expected = [Fraction(0)] * ncols
        for k, c in enumerate(aug_pivots):
            expected[c] = aug[k][ncols]
        assert x == tuple(expected)
        assert _times(rows, x) == [Fraction(v) for v in b]

    for p in (3, 101):
        if any(Fraction(v).denominator % p == 0 for row in rows for v in row):
            continue
        ap = Matrix.from_rows(Field.prime(p), rows, cols=ncols)
        want_p, want_p_pivots = gauss_rref(rows, ncols, p)
        rp, pivots_p = rref(ap)
        assert rp.entries == tuple(x for row in want_p for x in row)
        assert pivots_p == tuple(want_p_pivots)
        assert rank(ap) == len(want_p_pivots)


def test_rational_rank_and_rref_construct_no_intermediate_fractions(monkeypatch):
    a = mat(QQ, [[Fraction(1, 2), -1, 3], [2, Fraction(-3, 4), 0], [-1, 5, Fraction(7, 3)], [1, 1, 1]])
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert rank(a) == 3
    assert made == []
    r, _ = rref(a)
    assert len(made) == sum(1 for x in r.entries if x)
