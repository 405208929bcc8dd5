"""Exact sparse linear algebra over the rationals.

There are no floats and no tolerances anywhere in the package.  Matrices are
sparse maps ``(row, col) -> int | Fraction`` with no stored zeros; the module
layer produces integer matrices, and entries stay plain ``int`` until a
routine has to divide.  Results are deterministic.  The functions are pure,
so they are safe to share between threads; an ``Echelon`` is mutable and
belongs to the caller that builds it.

There is one elimination per question asked:

* ``rank`` is fraction-free: it clears the denominators of each row and runs
  Bareiss elimination on integers, so integer input builds no ``Fraction``.
* ``Echelon`` is the one reduced row echelon form, over ``Fraction``.  It
  grows one vector at a time, and a vector added with a tag leaves its tag
  in every row it enters.  ``kernel_basis`` and ``image_basis`` read their
  canonical bases off an echelon; ``quotient_basis`` starts one from a
  subspace, to which coset representatives are then added with tags, and
  ``Echelon.coordinates`` gives a vector's coset coefficients over them.

Ranks and cosets come from different eliminations, so the homology layer
can check one against the other.  The canonical forms:

* ``kernel_basis`` returns the reduced-echelon null-space basis, one vector
  per free column in increasing column order, with the free coordinate 1.
* ``image_basis`` returns the reduced column echelon basis of the column
  space, each vector scaled so its leading entry is 1.

Worked example (the rank-1 matrix [[1, 2], [2, 4]])::

    >>> m = SparseRationalMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    >>> rank(m)
    1
    >>> kernel_basis(m)
    [(Fraction(-2, 1), Fraction(1, 1))]
    >>> image_basis(m)
    [(Fraction(1, 1), Fraction(2, 1))]
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SparseRationalMatrix:
    """An immutable sparse matrix over Q.

    Entries are stored in a dict keyed by ``(row, col)``, as ``int`` or
    ``Fraction``; zeros are never stored.  Shape is explicit so zero
    rows/columns are representable.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        entries: dict[tuple[int, int], int | Fraction] | None = None,
    ):
        if nrows < 0 or ncols < 0:
            raise ValueError(f"invalid shape ({nrows}, {ncols})")
        self.nrows = nrows
        self.ncols = ncols
        clean: dict[tuple[int, int], int | Fraction] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r}, {c}) outside shape ({nrows}, {ncols})")
            if v:
                clean[(r, c)] = v if isinstance(v, (int, Fraction)) else Fraction(v)
        self.entries = clean

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "SparseRationalMatrix":
        return cls(nrows, ncols, {})

    @classmethod
    def identity(cls, n: int) -> "SparseRationalMatrix":
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.entries.get(key, _ZERO)

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

    def rows(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "SparseRationalMatrix":
        return SparseRationalMatrix(
            self.ncols, self.nrows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        by_row: dict[int, dict[int, Fraction]] = {}
        for (r, k), v in other.entries.items():
            by_row.setdefault(r, {})[k] = v
        acc: dict[tuple[int, int], Fraction] = {}
        for (r, c), a in self.entries.items():
            row = by_row.get(c)
            if not row:
                continue
            for k, b in row.items():
                key = (r, k)
                acc[key] = acc.get(key, _ZERO) + a * b
        return SparseRationalMatrix(self.nrows, other.ncols, acc)

    def __add__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            acc[key] = acc.get(key, _ZERO) + v
        return SparseRationalMatrix(self.nrows, self.ncols, acc)

    def __sub__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        return self + other.scale(-1)

    def scale(self, a: int | Fraction) -> "SparseRationalMatrix":
        fa = Fraction(a)
        return SparseRationalMatrix(
            self.nrows, self.ncols, {k: fa * v for k, v in self.entries.items()}
        )


def rank(m: SparseRationalMatrix) -> int:
    """Exact rank of the matrix, by fraction-free elimination.

    A row with fractional entries is first scaled by the least common
    multiple of its denominators, which keeps the rank; Bareiss elimination
    then runs on integers only.
    """
    rows = []
    for row in m.rows():
        if not row:
            continue
        if not all(type(v) is int for v in row.values()):
            scale = lcm(*(v.denominator for v in row.values()))
            row = {c: int(v * scale) for c, v in row.items()}
        rows.append(row)
    return _bareiss_rank(rows)


def _bareiss_rank(rows: list[dict[int, int]]) -> int:
    """Rank of nonzero sparse integer rows, by Bareiss elimination.

    Columns are pivoted left to right.  After each step every remaining
    entry is a minor of the input (Sylvester's identity), so the division by
    the previous pivot is exact and entries grow only as minors do.
    """
    previous = 1
    count = 0
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
        count += 1
    return count


class Echelon:
    """The reduced row echelon form of a family of vectors, grown one at a time.

    ``rows`` maps each pivot column to its row: leading entry 1 and zero in
    every other pivot column.  That form is unique for the span, whatever the
    order the vectors came in.  A vector added with a ``tag`` also carries a 1
    in the extra column ``dim + tag``, so each row records which tagged
    vectors it combines; ``coordinates`` reads those columns back.

    A vector is a dense sequence of length ``dim`` or a sparse map
    ``column -> value``.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, dict[int, Fraction]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _residue(self, vector, tag: int | None) -> dict[int, Fraction]:
        """``vector`` (with its tag column) minus its projection on the rows."""
        if isinstance(vector, dict):
            items = vector.items()
        elif len(vector) != self.dim:
            raise ValueError(f"vector length {len(vector)} != dim {self.dim}")
        else:
            items = enumerate(vector)
        residue = {c: Fraction(x) for c, x in items if x}
        if tag is not None:
            residue[self.dim + tag] = _ONE
        # each row is zero in the other pivot columns, so one pass in any
        # order clears every pivot column of the residue
        for col, row in self.rows.items():
            factor = residue.get(col)
            if factor:
                _subtract(residue, factor, row)
        return residue

    def add(self, vector, tag: int | None = None) -> bool:
        """Insert ``vector`` if it is independent of the rows; say whether it was."""
        residue = self._residue(vector, tag)
        col = min((c for c in residue if c < self.dim), default=None)
        if col is None:
            return False
        lead = residue[col]
        if lead != _ONE:
            residue = {c: v / lead for c, v in residue.items()}
        for row in self.rows.values():
            factor = row.get(col)
            if factor:
                _subtract(row, factor, residue)
        self.rows[col] = residue
        return True

    def coordinates(self, vector, count: int) -> Vector | None:
        """Coefficients of ``vector`` over the tagged vectors ``0..count-1``,
        modulo the untagged ones; None when ``vector`` is outside the span."""
        residue = self._residue(vector, None)
        if any(c < self.dim for c in residue):
            return None
        return tuple(-residue.get(self.dim + t, _ZERO) for t in range(count))


def _subtract(target: dict[int, Fraction], factor: Fraction, row: dict[int, Fraction]) -> None:
    """``target -= factor * row`` in place, storing no zeros."""
    for c, v in row.items():
        nv = target.get(c, _ZERO) - factor * v
        if nv:
            target[c] = nv
        else:
            del target[c]


def kernel_basis(m: SparseRationalMatrix) -> list[Vector]:
    """Canonical basis of the right null space of ``m``.

    One vector per free column, ordered by column index; the free coordinate
    is 1 and pivot coordinates carry the negated echelon entries, so the
    result is a reduced-echelon basis.  ``m @ v = 0`` holds exactly for each.
    """
    echelon = Echelon(m.ncols)
    for row in m.rows():
        echelon.add(row)
    basis: list[Vector] = []
    for free in range(m.ncols):
        if free in echelon.rows:
            continue
        v = [_ZERO] * m.ncols
        v[free] = _ONE
        for pc, row in echelon.rows.items():
            coef = row.get(free)
            if coef:
                v[pc] = -coef
        basis.append(tuple(v))
    return basis


def image_basis(m: SparseRationalMatrix) -> list[Vector]:
    """Canonical basis of the column space of ``m``.

    Computed as the reduced column echelon form: each basis vector has
    leading entry 1 at a distinct row, ordered by that row index.
    """
    echelon = Echelon(m.nrows)
    for column in m.transpose().rows():
        echelon.add(column)
    basis = []
    for lead in sorted(echelon.rows):
        v = [_ZERO] * m.nrows
        for c, val in echelon.rows[lead].items():
            v[c] = val
        basis.append(tuple(v))
    return basis


def quotient_basis(ambient_dim: int, subspace: Sequence[Sequence[int | Fraction]]) -> Echelon:
    """The echelon form of ``span(subspace)``, on which a quotient is built.

    Vectors added afterwards with tags 0, 1, ... and accepted by ``add`` are
    independent modulo the subspace, so they represent distinct cosets of
    ``Q^ambient_dim / span(subspace)``; ``coordinates`` then gives a vector's
    coefficients over them modulo the subspace.  The subspace vectors must be
    linearly independent; a dependent family is reported (with both
    dimensions) rather than silently reduced.
    """
    echelon = Echelon(ambient_dim)
    for v in subspace:
        echelon.add(v)
    if len(echelon) != len(subspace):
        raise ValueError(
            f"dependent subspace: {len(subspace)} vectors span only {len(echelon)} dimensions"
        )
    return echelon
