"""Exact sparse linear algebra over the integers.

There are no floats and no tolerances anywhere in the package.  Matrices are
sparse maps ``(row, col) -> int | Fraction`` with no stored zeros, and the
module layer produces integer ones.  A row (or, for the column questions, a
column) with ``Fraction`` entries is scaled by the least common multiple of
its denominators first, which keeps every answer below, so the elimination
runs on integers only.  Results are deterministic and the functions are
pure, so they are safe to share between threads.

There is one elimination: ``_bareiss`` runs fraction-free Bareiss elimination
on sparse integer rows and keeps each ``(column, pivot, row)`` it
eliminates, a row echelon form of the input.  Every question reads it:

* ``rank`` counts its pivots;
* ``kernel_basis`` back-substitutes over the integers, one vector per free
  column in increasing column order: the reduced-echelon null vector with
  free coordinate 1, scaled to coprime integers with a positive free entry;
* ``image_basis`` returns the echelon rows of the columns, pivot first;
* ``quotient_basis`` eliminates the columns ``[subspace | candidates]``: the
  pivot columns among the candidates are, in order, the candidates that
  raise the rank of the subspace and the candidates chosen before them.

Vectors are sparse maps ``coordinate -> int`` with no stored zeros.

Worked example (the rank-1 matrix [[1, 2], [2, 4]])::

    >>> m = SparseRationalMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    >>> rank(m)
    1
    >>> kernel_basis(m)
    [{0: -2, 1: 1}]
    >>> image_basis(m)
    [{0: 1, 1: 2}]
    >>> quotient_basis(image_basis(m), [{0: 2, 1: 4}, {1: 1}, {0: 1}])
    [{1: 1}]
"""

from __future__ import annotations

from math import gcd, lcm
from numbers import Rational
from typing import Sequence


class SparseRationalMatrix:
    """An immutable sparse matrix over Q.

    Entries are stored in a dict keyed by ``(row, col)``, as ``int`` or
    ``fractions.Fraction``; zeros are never stored.  Shape is explicit so zero
    rows/columns are representable.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        entries: dict[tuple[int, int], Rational] | None = None,
    ):
        if nrows < 0 or ncols < 0:
            raise ValueError(f"invalid shape ({nrows}, {ncols})")
        self.nrows = nrows
        self.ncols = ncols
        clean: dict[tuple[int, int], Rational] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r}, {c}) outside shape ({nrows}, {ncols})")
            if v:
                clean[(r, c)] = v
        self.entries = clean

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"

    def rows(self) -> list[dict[int, Rational]]:
        out: list[dict[int, Rational]] = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out


def _integer_rows(rows) -> list[dict[int, int]]:
    """The nonzero ``rows``, each with fractional entries scaled by the least
    common multiple of its denominators."""
    out = []
    for row in rows:
        if not row:
            continue
        if not all(type(v) is int for v in row.values()):
            scale = lcm(*(v.denominator for v in row.values()))
            row = {c: int(v * scale) for c, v in row.items()}
        out.append(row)
    return out


def _bareiss(rows: list[dict[int, int]]) -> list[tuple[int, int, dict[int, int]]]:
    """Row echelon form of nonzero sparse integer rows, by Bareiss
    elimination: each step's ``(column, pivot, rest of the pivot row)``, in
    increasing column order.

    Columns are pivoted left to right.  After each step every remaining
    entry is a minor of the input (Sylvester's identity), so the division by
    the previous pivot is exact and entries grow only as minors do.  The
    rows are consumed.
    """
    previous = 1
    steps = []
    while rows:
        col = min(min(row) for row in rows)
        pick = min(
            (i for i, row in enumerate(rows) if col in row),
            key=lambda i: abs(rows[i][col]),
        )
        pivot_row = rows.pop(pick)
        pivot = pivot_row.pop(col)
        remaining = []
        for row in rows:
            factor = row.pop(col, 0)
            if factor:
                new = {c: pivot * v for c, v in row.items()}
                for c, v in pivot_row.items():
                    new[c] = new.get(c, 0) - factor * v
                row = {c: v // previous for c, v in new.items() if v}
            elif pivot != previous:
                row = {c: pivot * v // previous for c, v in row.items()}
            if row:
                remaining.append(row)
        rows = remaining
        previous = pivot
        steps.append((col, pivot, pivot_row))
    return steps


def rank(m: SparseRationalMatrix) -> int:
    """Exact rank of the matrix: the pivots of its Bareiss elimination.  A
    matrix with no entries has rank 0 and builds no rows."""
    if not m.entries:
        return 0
    return len(_bareiss(_integer_rows(m.rows())))


def kernel_basis(m: SparseRationalMatrix) -> list[dict[int, int]]:
    """Canonical basis of the right null space of ``m``.

    One vector per free column, ordered by column index: the reduced-echelon
    null vector with that free coordinate 1 and the other free coordinates
    0, scaled to coprime integers with a positive free entry.  It is solved
    from the echelon rows bottom up; where a pivot does not divide, the
    whole vector is scaled up so every entry stays an integer.
    """
    steps = _bareiss(_integer_rows(m.rows())) if m.entries else []
    pivots = {col for col, _pivot, _row in steps}
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        vector = {free: 1}
        # pivot columns right of ``free`` solve to zero
        for col, pivot, row in reversed(steps):
            if col > free:
                continue
            total = sum(v * vector[c] for c, v in row.items() if c in vector)
            if total:
                common = gcd(total, pivot)
                up = pivot // common
                if up != 1:
                    vector = {c: up * v for c, v in vector.items()}
                vector[col] = -total // common
        content = gcd(*vector.values())
        if vector[free] < 0:
            content = -content
        basis.append({c: vector[c] // content for c in sorted(vector)})
    return basis


def image_basis(m: SparseRationalMatrix) -> list[dict[int, int]]:
    """Basis of the column space of ``m``: the echelon rows of its columns,
    each with its pivot, in increasing order of the leading row index."""
    columns: list[dict] = [{} for _ in range(m.ncols)]
    for (r, c), v in m.entries.items():
        columns[c][r] = v
    return [{lead: pivot, **row} for lead, pivot, row in _bareiss(_integer_rows(columns))]


def quotient_basis(
    subspace: Sequence[dict[int, int]], candidates: Sequence[dict[int, int]]
) -> list[dict[int, int]]:
    """The ``candidates`` that, in order, raise the rank of ``subspace`` and
    the candidates chosen before them: representatives of independent
    cosets modulo ``span(subspace)``.

    They are the pivot columns among the candidates of one elimination of
    the matrix whose columns are the subspace vectors, then the candidates.
    The subspace vectors must be linearly independent; a dependent family is
    reported (with both dimensions) rather than silently reduced.
    """
    coordinates: dict[int, dict[int, int]] = {}
    for j, vector in enumerate((*subspace, *candidates)):
        for r, v in vector.items():
            coordinates.setdefault(r, {})[j] = v
    pivots = [col for col, _pivot, _row in _bareiss(_integer_rows(coordinates.values()))]
    spanned = sum(col < len(subspace) for col in pivots)
    if spanned != len(subspace):
        raise ValueError(
            f"dependent subspace: {len(subspace)} vectors span only {spanned} dimensions"
        )
    return [candidates[col - len(subspace)] for col in pivots[spanned:]]
