"""Exact sparse linear algebra over the rationals.

There are no floats and no tolerances anywhere in the package.  Matrices are
sparse maps ``(row, col) -> int | Fraction`` with no stored zeros; the module
layer produces integer matrices, and entries stay plain ``int`` until a
routine has to divide.  Every routine is a pure function of its inputs, so
results are deterministic and safe to share between threads.

* ``rank`` is fraction-free: it clears the denominators of each row and runs
  Bareiss elimination on integers, so integer input builds no ``Fraction``.
* ``kernel_basis``, ``image_basis`` and ``quotient_basis`` divide, so they
  run a reduced row echelon form over ``Fraction`` and return ``Fraction``
  vectors in canonical form.

The canonical forms used throughout:

* ``kernel_basis`` returns the reduced-echelon null-space basis, one vector
  per free column in increasing column order, with the free coordinate 1.
* ``image_basis`` returns the reduced column echelon basis of the column
  space, each vector scaled so its leading entry is 1.

Worked example (the rank-1 matrix [[1, 2], [2, 4]])::

    >>> m = SparseRationalMatrix.from_rows([[1, 2], [2, 4]])
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
from typing import Callable, Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_vector(values: Iterable[int | Fraction]) -> Vector:
    """Coerce an iterable of numbers to a tuple of Fractions."""
    return tuple(Fraction(v) for v in values)


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
    def from_rows(cls, rows: Sequence[Sequence[int | Fraction]]) -> "SparseRationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries: dict[tuple[int, int], Fraction] = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                fv = Fraction(v)
                if fv:
                    entries[(r, c)] = fv
        return cls(nrows, ncols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int | Fraction]], nrows: int | None = None) -> "SparseRationalMatrix":
        ncols = len(columns)
        if nrows is None:
            if not columns:
                raise ValueError("cannot infer row count from zero columns")
            nrows = len(columns[0])
        entries: dict[tuple[int, int], Fraction] = {}
        for c, col in enumerate(columns):
            if len(col) != nrows:
                raise ValueError("ragged columns")
            for r, v in enumerate(col):
                fv = Fraction(v)
                if fv:
                    entries[(r, c)] = fv
        return cls(nrows, ncols, entries)

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

    def is_zero(self) -> bool:
        return not self.entries

    def rows(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "SparseRationalMatrix":
        return SparseRationalMatrix(
            self.ncols, self.nrows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def mul_vector(self, v: Sequence[int | Fraction]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != column count {self.ncols}")
        out = [_ZERO] * self.nrows
        for (r, c), a in self.entries.items():
            x = v[c]
            if x:
                out[r] += a * x
        return tuple(out)

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


def _reduced_row_echelon(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of a list of sparse rows.

    Returns a map ``pivot column -> normalized row`` (leading entry 1, other
    pivot columns eliminated).  Pivot choice within a column prefers entries
    with the smallest denominator, then smallest |numerator|, then smallest
    row index, which keeps intermediate fractions from blowing up.
    """
    work = [{c: Fraction(v) for c, v in r.items()} for r in rows if r]
    pivots: dict[int, dict[int, Fraction]] = {}
    while True:
        lead_cols = [min(r) for r in work]
        if not lead_cols:
            break
        col = min(lead_cols)
        candidates = [i for i, lc in enumerate(lead_cols) if lc == col]
        best = min(
            candidates,
            key=lambda i: (work[i][col].denominator, abs(work[i][col].numerator), i),
        )
        prow = work.pop(best)
        lead = prow[col]
        if lead != _ONE:
            prow = {c: v / lead for c, v in prow.items()}
        # eliminate this column from previously found pivot rows
        for other in pivots.values():
            f = other.get(col)
            if f:
                for c, v in prow.items():
                    nv = other.get(c, _ZERO) - f * v
                    if nv:
                        other[c] = nv
                    else:
                        other.pop(c, None)
        pivots[col] = prow
        # eliminate from remaining work rows
        nxt = []
        for r in work:
            f = r.get(col)
            if f:
                for c, v in prow.items():
                    nv = r.get(c, _ZERO) - f * v
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
            if r:
                nxt.append(r)
        work = nxt
    return pivots


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


def kernel_basis(m: SparseRationalMatrix) -> list[Vector]:
    """Canonical basis of the right null space of ``m``.

    One vector per free column, ordered by column index; the free coordinate
    is 1 and pivot coordinates carry the negated echelon entries, so the
    result is a reduced-echelon basis.  ``m @ v = 0`` holds exactly for each.
    """
    pivots = _reduced_row_echelon(m.rows())
    basis: list[Vector] = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [_ZERO] * m.ncols
        v[free] = _ONE
        for pc, row in pivots.items():
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
    pivots = _reduced_row_echelon(m.transpose().rows())
    basis = []
    for lead in sorted(pivots):
        row = pivots[lead]
        v = [_ZERO] * m.nrows
        for c, val in row.items():
            v[c] = val
        basis.append(tuple(v))
    return basis


def quotient_basis(
    ambient_dim: int, subspace: Sequence[Sequence[int | Fraction]]
) -> tuple[list[Vector], Callable[[Sequence[int | Fraction]], Vector]]:
    """Coset representatives and projection for ``Q^ambient_dim / span(subspace)``.

    The given subspace vectors must be linearly independent; a dependent
    family is reported (with both dimensions) rather than silently reduced.
    Returns ``(reps, projection)`` where ``reps`` are standard basis vectors
    at the non-pivot coordinates and ``projection`` maps an ambient vector to
    its coordinates over ``reps`` modulo the subspace.  ``projection(v)`` is
    the zero tuple exactly when ``v`` lies in the span.
    """
    vectors = [as_vector(v) for v in subspace]
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(f"subspace vector length {len(v)} != ambient dim {ambient_dim}")
    rows = [{i: x for i, x in enumerate(v) if x} for v in vectors]
    pivots = _reduced_row_echelon(rows)
    if len(pivots) != len(vectors):
        raise ValueError(
            f"dependent subspace: {len(vectors)} vectors span only {len(pivots)} dimensions"
        )
    free = [i for i in range(ambient_dim) if i not in pivots]
    reps: list[Vector] = []
    for f in free:
        e = [_ZERO] * ambient_dim
        e[f] = _ONE
        reps.append(tuple(e))

    def projection(v: Sequence[int | Fraction]) -> Vector:
        if len(v) != ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient dim {ambient_dim}")
        residue = {i: Fraction(x) for i, x in enumerate(v) if x}
        for pc in sorted(pivots):
            f = residue.get(pc)
            if f:
                for c, val in pivots[pc].items():
                    nv = residue.get(c, _ZERO) - f * val
                    if nv:
                        residue[c] = nv
                    else:
                        residue.pop(c, None)
        assert all(i not in pivots for i in residue)
        return tuple(residue.get(f, _ZERO) for f in free)

    return reps, projection
