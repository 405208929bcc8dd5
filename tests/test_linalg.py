"""Exact linear algebra: frozen examples and algebraic invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma.linalg import (
    Echelon,
    SparseRationalMatrix,
    image_basis,
    kernel_basis,
    quotient_basis,
    rank,
)

F = Fraction


def from_rows(rows) -> SparseRationalMatrix:
    """A matrix from a list of equal-length rows."""
    ncols = len(rows[0]) if rows else 0
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)}
    return SparseRationalMatrix(len(rows), ncols, entries)



def test_rank_identity():
    assert rank(SparseRationalMatrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(SparseRationalMatrix.zero(3, 4)) == 0


def test_rank_one_matrix():
    m = from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_basis_canonical():
    m = from_rows([[1, 2], [2, 4]])
    assert kernel_basis(m) == [(F(-2), F(1))]


def test_image_basis_canonical():
    m = from_rows([[1, 2], [2, 4]])
    assert image_basis(m) == [(F(1), F(2))]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(SparseRationalMatrix.identity(3)) == []


def test_kernel_of_zero_is_full():
    ker = kernel_basis(SparseRationalMatrix.zero(2, 3))
    assert len(ker) == 3
    assert ker[0] == (F(1), F(0), F(0))


def test_matvec_and_matmul():
    m = from_rows([[1, 2], [3, 4]])
    assert m @ from_rows([[1], [0]]) == from_rows([[1], [3]])
    sq = m @ m
    assert sq == from_rows([[7, 10], [15, 22]])


def test_quotient_basis_reports_dependent_input():
    with pytest.raises(ValueError, match="2 vectors span only 1"):
        quotient_basis(2, [[1, 2], [2, 4]])


def test_quotient_basis_projection():
    echelon = quotient_basis(3, [[1, 0, 1]])
    assert echelon.add([0, 1, 0], tag=0)
    assert echelon.add([0, 0, 1], tag=1)
    # a subspace vector has zero coset coordinates
    assert echelon.coordinates([2, 0, 2], 2) == (F(0), F(0))
    # coset coordinates are exact
    assert echelon.coordinates([0, 5, 7], 2) == (F(5), F(7))
    # coordinates are constant on cosets
    assert echelon.coordinates([1, 5, 8], 2) == echelon.coordinates([0, 5, 7], 2)


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SparseRationalMatrix(2, 2, {(2, 0): 1})
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
    m = from_rows(rows)
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == m.ncols
    for v in ker:
        assert not (m @ from_rows([[x] for x in v])).entries


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_image_dimension_matches_rank(rows):
    m = from_rows(rows)
    img = image_basis(m)
    assert len(img) == rank(m)
    # every column lies in the span of the image basis
    if img:
        echelon = quotient_basis(m.nrows, img)
        for col in zip(*rows):
            assert echelon.coordinates(col, 0) == ()
    else:
        assert not m.entries


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_determinism(rows):
    m1 = from_rows(rows)
    m2 = from_rows(rows)
    assert kernel_basis(m1) == kernel_basis(m2)
    assert image_basis(m1) == image_basis(m2)


# ---------------------------------------------------------------------------
# The incremental echelon against Bareiss rank and exact recombination.

tagged_families = st.integers(1, 5).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(
            st.tuples(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), st.booleans()),
            max_size=7,
        ),
        st.lists(st.integers(-3, 3), min_size=7, max_size=7),
    )
)


@given(tagged_families)
@settings(max_examples=200, deadline=None)
def test_echelon_tracks_rank_and_rebuilds_tagged_combinations(case):
    dim, family, weights = case
    echelon = Echelon(dim)
    tagged: list[list[int]] = []
    untagged: list[list[int]] = []
    for vector, with_tag in family:
        grows = rank(from_rows([*tagged, *untagged, vector])) > len(echelon)
        assert echelon.add(vector, len(tagged) if with_tag else None) == grows
        if grows:
            (tagged if with_tag else untagged).append(vector)
    assert len(echelon) == len(tagged) + len(untagged)
    # tag coordinates are exact, whatever untagged vectors are mixed in
    coeffs = tuple(F(w) for w in weights[: len(tagged)])
    extra = weights[len(tagged) : len(tagged) + len(untagged)]
    pairs = list(zip((*coeffs, *extra), (*tagged, *untagged), strict=True))
    combo = [sum((c * v[i] for c, v in pairs), F(0)) for i in range(dim)]
    assert echelon.coordinates(combo, len(tagged)) == coeffs


@given(tagged_families)
@settings(max_examples=100, deadline=None)
def test_echelon_coordinates_refuse_a_vector_outside_the_span(case):
    dim, family, _ = case
    echelon = Echelon(dim)
    for tag, (vector, _) in enumerate(family):
        echelon.add(vector, tag)
    rows = [vector for vector, _ in family]
    for i in range(dim):
        e = [int(i == j) for j in range(dim)]
        if rank(from_rows([*rows, e])) > len(echelon):
            assert echelon.coordinates(e, len(family)) is None
        else:
            assert echelon.coordinates(e, len(family)) is not None


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
    m = from_rows([[F(1, 2), F(1, 3)], [3, 2], [F(2, 7), 0]])
    assert rank(m) == 2
    assert rank(from_rows([[F(1, 2), F(1, 3)], [3, 2]])) == 1


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 4), (5, 7)])
def test_rank_of_a_matrix_without_entries_builds_no_rows(shape, monkeypatch):
    def no_rows(self):
        raise AssertionError("rows built for a matrix without entries")

    monkeypatch.setattr(SparseRationalMatrix, "rows", no_rows)
    assert rank(SparseRationalMatrix.zero(*shape)) == 0
