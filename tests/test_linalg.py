"""Exact linear algebra: frozen examples, algebraic invariants, and the integer
elimination against the ``Fraction`` reduced echelon form of the oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superverma.linalg import (
    SparseRationalMatrix,
    image_basis,
    kernel_basis,
    quotient_basis,
    rank,
)

from oracles import (
    Echelon,
    echelon_image_basis,
    echelon_kernel_basis,
    echelon_quotient_basis,
    integer_line,
    matmul,
)

F = Fraction


def from_rows(rows) -> SparseRationalMatrix:
    """A matrix from a list of equal-length rows."""
    ncols = len(rows[0]) if rows else 0
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)}
    return SparseRationalMatrix(len(rows), ncols, entries)


def from_columns(nrows: int, columns) -> SparseRationalMatrix:
    """A matrix whose columns are the sparse vectors ``columns``."""
    entries = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
    return SparseRationalMatrix(nrows, len(columns), entries)


def identity(n: int) -> SparseRationalMatrix:
    return SparseRationalMatrix(n, n, {(i, i): 1 for i in range(n)})


def test_rank_identity():
    assert rank(identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(SparseRationalMatrix(3, 4)) == 0


def test_rank_one_matrix():
    m = from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_basis_canonical():
    m = from_rows([[1, 2], [2, 4]])
    assert kernel_basis(m) == [{0: -2, 1: 1}]
    # the pivot 2 does not divide: the line of (-1/2, 1), in coprime integers
    assert kernel_basis(from_rows([[2, 1]])) == [{0: -1, 1: 2}]
    assert kernel_basis(from_rows([[F(1, 2), F(1, 3), 0]])) == [{0: -2, 1: 3}, {2: 1}]


def test_image_basis_canonical():
    m = from_rows([[1, 2], [2, 4]])
    assert image_basis(m) == [{0: 1, 1: 2}]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(identity(3)) == []


def test_kernel_of_zero_is_full():
    ker = kernel_basis(SparseRationalMatrix(2, 3))
    assert ker == [{0: 1}, {1: 1}, {2: 1}]


def test_matvec_and_matmul():
    # the product of the oracles, which the tests use to compose unit matrices
    m = from_rows([[1, 2], [3, 4]])
    assert matmul(m, from_rows([[1], [0]])) == from_rows([[1], [3]])
    assert matmul(m, m) == from_rows([[7, 10], [15, 22]])
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(m, from_rows([[1, 2, 3]]))


def test_quotient_basis_reports_dependent_input():
    with pytest.raises(ValueError, match="2 vectors span only 1"):
        quotient_basis([{0: 1, 1: 2}, {0: 2, 1: 4}], [])


def test_quotient_basis_projection():
    subspace = [{0: 1, 2: 1}]
    # a subspace vector and a multiple of a chosen candidate are refused
    chosen = quotient_basis(subspace, [{0: 2, 2: 2}, {1: 1}, {1: 3}, {2: 1}, {0: 1}])
    assert chosen == [{1: 1}, {2: 1}]
    # a candidate is chosen modulo the subspace: (1, 5, 8) = (0, 5, 7) + (1, 0, 1)
    assert quotient_basis(subspace, [{1: 5, 2: 7}, {0: 1, 1: 5, 2: 8}]) == [{1: 5, 2: 7}]
    assert quotient_basis([], [{}, {0: F(1, 2)}]) == [{0: F(1, 2)}]


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SparseRationalMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        SparseRationalMatrix(-1, 2)


def test_no_stored_zeros():
    m = SparseRationalMatrix(2, 2, {(0, 0): 0, (0, 1): 1})
    assert (0, 0) not in m.entries
    assert m.entries.get((0, 1), 0) == F(1)


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
        assert not matmul(m, from_columns(m.ncols, [v])).entries


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_image_dimension_matches_rank(rows):
    m = from_rows(rows)
    img = image_basis(m)
    assert len(img) == rank(m)
    # every column lies in the span of the image basis
    columns = [{r: v for r, v in enumerate(col) if v} for col in zip(*rows)]
    assert quotient_basis(img, columns) == []


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_determinism(rows):
    m1 = from_rows(rows)
    m2 = from_rows(rows)
    assert kernel_basis(m1) == kernel_basis(m2)
    assert image_basis(m1) == image_basis(m2)


# ---------------------------------------------------------------------------
# The ``Fraction`` echelon of the oracles against Bareiss rank and exact
# recombination: the other side of the tests below must be sound itself.

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


def test_echelon_canonical_forms():
    m = from_rows([[1, 2], [2, 4]])
    assert echelon_kernel_basis(m) == [(F(-2), F(1))]
    assert echelon_image_basis(m) == [(F(1), F(2))]
    echelon = echelon_quotient_basis(3, [[1, 0, 1]])
    assert echelon.add([0, 1, 0], tag=0)
    assert echelon.add([0, 0, 1], tag=1)
    assert echelon.coordinates([2, 0, 2], 2) == (F(0), F(0))
    assert echelon.coordinates([1, 5, 8], 2) == (F(5), F(7))
    with pytest.raises(ValueError, match="2 vectors span only 1"):
        echelon_quotient_basis(2, [[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# The integer elimination against the ``Fraction`` echelon.

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


def _pivot_not_dividing() -> SparseRationalMatrix:
    return from_rows([[2, 1, 0], [0, 3, 1]])


@given(rank_matrices())
@example(_pivot_not_dividing())
@settings(max_examples=300, deadline=None)
def test_kernel_basis_is_the_oracle_line_in_integers(m):
    """Each kernel vector is the reduced-echelon null vector of the oracle,
    in the same order, scaled to coprime ``int`` entries with a positive
    free entry."""
    got = kernel_basis(m)
    assert all(type(v) is int for vector in got for v in vector.values())
    assert got == [integer_line(v) for v in echelon_kernel_basis(m)]


@given(rank_matrices())
@settings(max_examples=200, deadline=None)
def test_image_basis_spans_the_oracle_image(m):
    got = image_basis(m)
    assert len(got) == rank(m)
    want = [integer_line(v) for v in echelon_image_basis(m)]
    # each basis spans the other's vectors
    assert quotient_basis(got, want) == [] and quotient_basis(want, got) == []


quotient_cases = st.integers(1, 6).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), max_size=4),
        st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), max_size=7),
    )
)


def _sparse(vector) -> dict:
    return {c: x for c, x in enumerate(vector) if x}


@given(quotient_cases)
@example((3, [[1, 0, 1]], [[2, 0, 2], [0, 1, 0], [0, 2, 0], [1, 1, 1], [0, 0, 1]]))
@settings(max_examples=200, deadline=None)
def test_quotient_basis_picks_the_oracle_tagged_vectors(case):
    """The candidates chosen are those that the oracle's echelon, started
    from the subspace, accepts with tags, in order."""
    dim, family, candidates = case
    # an independent subspace: the oracle's basis of the span of ``family``
    spanned = echelon_image_basis(from_columns(dim, [_sparse(v) for v in family]))
    subspace = [integer_line(v) for v in spanned]
    echelon = echelon_quotient_basis(dim, subspace)
    want = []
    for vector in candidates:
        if echelon.add(vector, tag=len(want)):
            want.append(_sparse(vector))
    assert quotient_basis(subspace, [_sparse(v) for v in candidates]) == want


@given(rank_matrices())
@settings(max_examples=300, deadline=None)
def test_fraction_free_rank_matches_kernel_dimension(m):
    assert rank(m) == m.ncols - len(echelon_kernel_basis(m)) == m.ncols - len(kernel_basis(m))


def test_fraction_free_rank_of_empty_shapes():
    for shape in [(0, 0), (0, 4), (4, 0)]:
        m = SparseRationalMatrix(*shape)
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
    assert rank(SparseRationalMatrix(*shape)) == 0
