"""Exact linear algebra: frozen examples and algebraic invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma.linalg import (
    SparseRationalMatrix,
    as_vector,
    image_basis,
    kernel_basis,
    quotient_basis,
    rank,
)

F = Fraction


def test_rank_identity():
    assert rank(SparseRationalMatrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(SparseRationalMatrix.zero(3, 4)) == 0


def test_rank_one_matrix():
    m = SparseRationalMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_basis_canonical():
    m = SparseRationalMatrix.from_rows([[1, 2], [2, 4]])
    assert kernel_basis(m) == [(F(-2), F(1))]


def test_image_basis_canonical():
    m = SparseRationalMatrix.from_rows([[1, 2], [2, 4]])
    assert image_basis(m) == [(F(1), F(2))]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(SparseRationalMatrix.identity(3)) == []


def test_kernel_of_zero_is_full():
    ker = kernel_basis(SparseRationalMatrix.zero(2, 3))
    assert len(ker) == 3
    assert ker[0] == (F(1), F(0), F(0))


def test_matvec_and_matmul():
    m = SparseRationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m.mul_vector([1, 0]) == (F(1), F(3))
    sq = m @ m
    assert sq == SparseRationalMatrix.from_rows([[7, 10], [15, 22]])


def test_quotient_basis_reports_dependent_input():
    with pytest.raises(ValueError, match="2 vectors span only 1"):
        quotient_basis(2, [[1, 2], [2, 4]])


def test_quotient_basis_projection():
    reps, proj = quotient_basis(3, [[1, 0, 1]])
    assert len(reps) == 2
    # a subspace vector projects to zero
    assert proj([2, 0, 2]) == (F(0), F(0))
    # coset coordinates are exact
    assert proj([0, 5, 7]) == (F(5), F(7))
    # projection constant on cosets
    assert proj([1, 5, 8]) == proj([0, 5, 7])


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SparseRationalMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        SparseRationalMatrix.from_rows([[1], [1, 2]])
    with pytest.raises(ValueError):
        quotient_basis(2, [[1, 2, 3]])


def test_no_stored_zeros():
    m = SparseRationalMatrix(2, 2, {(0, 0): 0, (0, 1): 1})
    assert (0, 0) not in m.entries
    assert m[(0, 1)] == F(1)


small_matrices = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-4, 4), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_nullity_and_exact_kernel(rows):
    m = SparseRationalMatrix.from_rows(rows)
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == m.ncols
    zero = tuple(F(0) for _ in range(m.nrows))
    for v in ker:
        assert m.mul_vector(v) == zero


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_image_dimension_matches_rank(rows):
    m = SparseRationalMatrix.from_rows(rows)
    img = image_basis(m)
    assert len(img) == rank(m)
    # every column lies in the span of the image basis
    if img:
        _, proj = quotient_basis(m.nrows, img)
        zero = tuple(F(0) for _ in range(m.nrows - len(img)))
        for col in zip(*rows):
            assert proj(col) == zero
    else:
        assert m.is_zero()


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_determinism(rows):
    m1 = SparseRationalMatrix.from_rows(rows)
    m2 = SparseRationalMatrix.from_rows(rows)
    assert kernel_basis(m1) == kernel_basis(m2)
    assert image_basis(m1) == image_basis(m2)


def test_as_vector_coerces():
    assert as_vector([1, F(1, 2)]) == (F(1), F(1, 2))


# ---------------------------------------------------------------------------
# Fraction-free rank against the Fraction reduced echelon form.

rank_entries = st.one_of(
    st.integers(-4, 4),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@st.composite
def rank_matrices(draw):
    """Sparse matrices from 0x0 up to 73 columns (the largest weight space of
    the deep rank-3 benchmark), some built as products to force low rank."""
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 20, 73]))
    if nrows and ncols and draw(st.booleans()):
        inner = draw(st.integers(1, 4))
        left = [[draw(st.integers(-3, 3)) for _ in range(inner)] for _ in range(nrows)]
        right = {
            (k, c): draw(rank_entries)
            for k in range(inner)
            for c in draw(st.sets(st.integers(0, ncols - 1), max_size=6))
        }
        entries: dict = {}
        for r in range(nrows):
            for (k, c), v in right.items():
                entries[(r, c)] = entries.get((r, c), 0) + left[r][k] * v
        return SparseRationalMatrix(nrows, ncols, entries)
    cells = st.tuples(st.integers(0, max(nrows - 1, 0)), st.integers(0, max(ncols - 1, 0)))
    entries = draw(st.dictionaries(cells, rank_entries, max_size=40)) if nrows and ncols else {}
    return SparseRationalMatrix(nrows, ncols, entries)


@given(rank_matrices())
@settings(max_examples=300, deadline=None)
def test_fraction_free_rank_matches_kernel_dimension(m):
    assert rank(m) == m.ncols - len(kernel_basis(m))


def test_fraction_free_rank_of_empty_shapes():
    for shape in [(0, 0), (0, 4), (4, 0)]:
        m = SparseRationalMatrix.zero(*shape)
        assert rank(m) == 0 == shape[1] - len(kernel_basis(m))


def test_fraction_free_rank_clears_row_denominators():
    m = SparseRationalMatrix.from_rows([[F(1, 2), F(1, 3)], [3, 2], [F(2, 7), 0]])
    assert rank(m) == 2
    assert rank(SparseRationalMatrix.from_rows([[F(1, 2), F(1, 3)], [3, 2]])) == 1
