"""Independent oracles the tests compare the library against.

They recompute by brute force what the library obtains another way, or
transform its inputs for a metamorphic check, so they live with the tests and
nothing in ``superverma`` depends on them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from superverma.borels import (
    Label,
    conjugate_partition,
    height_functional,
    normalize_label,
    odd_positive_roots,
    padded,
    positive_roots,
    simple_roots,
)
from superverma.homology import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    Certificate,
    DSResult,
    _shrink_unit,
    _target_lowering_units,
    lift_unit,
    surviving_indices,
)
from superverma.linalg import SparseRationalMatrix, image_basis, kernel_basis, rank
from superverma.modules import Affine, PBWLayout, Realization
from superverma.superalgebra import (
    Root,
    Unit,
    Weight,
    bracket,
    is_cartan,
    is_odd_root,
    root_weight,
    unit_parity,
)
from superverma.weights import add_weights, par, pr_alpha, sub_weights, verma_character


def bilinear_form(n: int, x, y):
    """The invariant form: +1 on each eps coordinate, -1 on each delta."""
    if len(x) != 2 * n or len(y) != 2 * n:
        raise ValueError("rank mismatch")
    return sum(x[t] * y[t] for t in range(n)) - sum(
        x[t] * y[t] for t in range(n, 2 * n)
    )


def verma_weight_multiplicity(
    n: int, label: Label, top: Weight, weight: Weight
) -> int:
    """Exact weight multiplicity in the untruncated Verma with the given
    actual highest weight: counts expressions of top - weight as a sum of
    positive roots, even ones with arbitrary multiplicity, odd ones at most
    once."""
    label = normalize_label(label, n)
    heights = height_functional(n, label)
    pos = sorted(positive_roots(n, label))
    diff = sub_weights(top, weight)

    def xi(vec):
        return sum(h * v for h, v in zip(heights, vec))

    memo: dict[tuple[int, Weight], int] = {}

    def count(idx: int, rem: Weight) -> int:
        if all(v == 0 for v in rem):
            return 1
        if idx == len(pos) or xi(rem) < 0:
            return 0
        key = (idx, rem)
        if key in memo:
            return memo[key]
        root = pos[idx]
        rw = root_weight(n, root)
        total = count(idx + 1, rem)
        if is_odd_root(n, root):
            total += count(idx + 1, sub_weights(rem, rw))
        else:
            nxt = sub_weights(rem, rw)
            while xi(nxt) >= 0:
                total += count(idx + 1, nxt)
                nxt = sub_weights(nxt, rw)
        memo[key] = total
        return total

    if xi(diff) < 0:
        return 0
    return count(0, diff)


def raw_parity(layout: PBWLayout, bvec) -> int:
    """Parity of a basis vector before the anchor's parity shift: its levi
    state's, plus one for each odd PBW factor."""
    exps, state = bvec
    odd = sum(e for e, unit in zip(exps, layout.units) if is_odd_root(layout.n, unit))
    return (layout.levi.states[state][1] + odd) % 2


def vector_parity(r: Realization, bvec) -> int:
    """The parity of one basis vector of ``r``, from its own PBW exponents
    and levi state, independently of the parity of its weight space."""
    return raw_parity(r.layout, bvec) ^ (r.datum.parity_shift % 2)


# ---------------------------------------------------------------------------
# The numbered tables of a layout, recomputed on weight tuples one basis
# vector at a time.


def tuple_offset(layout: PBWLayout, bvec) -> Weight:
    """Weight of a basis vector minus the anchor: its levi state's offset
    plus each PBW exponent times its root."""
    exps, state = bvec
    w = list(sub_weights(layout.levi.states[state][0], layout.levi.hw))
    for e, unit in zip(exps, layout.units, strict=True):
        if e:
            rw = root_weight(layout.n, unit)
            for t in range(len(w)):
                w[t] += e * rw[t]
    return tuple(w)


def tuple_cost(layout: PBWLayout, offset: Weight) -> int:
    """Height-depth of a weight offset below the anchor."""
    return -sum(h * v for h, v in zip(layout.heights, offset, strict=True))


def tuple_shift(layout: PBWLayout, unit: Unit, offset: Weight) -> Weight:
    """The offset a unit moves ``offset`` to."""
    return add_weights(offset, root_weight(layout.n, unit))


def brute_force_basis(layout: PBWLayout) -> dict:
    """Every basis vector of height-depth at most ``layout.depth``, mapped to
    its offset: each levi state with every choice of PBW exponents in each
    unit's range (odd units 0 or 1), kept where the total cost fits."""
    costs = [tuple_cost(layout, root_weight(layout.n, unit)) for unit in layout.units]
    ranges = [
        range(2 if is_odd_root(layout.n, unit) else layout.depth // cost + 1)
        for unit, cost in zip(layout.units, costs, strict=True)
    ]
    found = {}
    for state, (weight, _parity) in enumerate(layout.levi.states):
        budget = layout.depth - tuple_cost(layout, sub_weights(weight, layout.levi.hw))
        for exps in product(*ranges):
            if sum(map(mul, exps, costs)) <= budget:
                found[exps, state] = tuple_offset(layout, (exps, state))
    return found


def power_peeling_act(layout: PBWLayout, unit: Unit, bvec, memo: dict) -> dict:
    """Action of a matrix unit on a basis vector, straightened by peeling
    the whole leading power ``F_p^a`` of the vector at once:

        u F^a b'' = (-1)^{a|u||F|} F^a (u b'')
                    + sum_s (-1)^{s|u||F|} F^s [u, F] F^{a-1-s} b''.

    Coefficients are ``int`` or :class:`Affine`, as the layout's; every
    action is kept in ``memo`` by ``(unit, vector)``.  The levi module and
    the offsets are the layout's own."""
    found = memo.get((unit, bvec))
    if found is not None:
        return found
    n = layout.n

    def add_into(total: dict, vec: dict, scalar) -> None:
        for bv, c in vec.items():
            val = total.get(bv, 0) + scalar * c
            if val:
                total[bv] = val
            else:
                total.pop(bv, None)

    def prepend_power(f_unit: Unit, power: int, vec: dict) -> dict:
        for _ in range(power):
            nxt: dict = {}
            for bv, c in vec.items():
                add_into(nxt, power_peeling_act(layout, f_unit, bv, memo), c)
            vec = nxt
        return vec

    exps, state = bvec
    if is_cartan(unit):
        i = unit[0] - 1
        result = {bvec: Affine(tuple_offset(layout, bvec)[i], ((i, 1),))}
    elif not any(exps) or (unit in layout.units and layout.units.index(unit) <= _first(exps)):
        if unit not in layout.units:
            result = {}
            if unit in layout.levi_roots:
                for s2, coef in layout.levi.unit_terms(unit, state):
                    add_into(result, {(exps, s2): coef}, 1)
        else:
            position = layout.units.index(unit)
            if is_odd_root(n, unit) and exps[position] == 1:
                result = {}
            else:
                new = list(exps)
                new[position] += 1
                result = {(tuple(new), state): 1}
    else:
        p = _first(exps)
        a = exps[p]
        f_unit = layout.units[p]
        odd_pair = unit_parity(n, unit) * is_odd_root(n, f_unit)
        rest = list(exps)
        rest[p] = 0
        result = {}
        lead = power_peeling_act(layout, unit, (tuple(rest), state), memo)
        add_into(result, prepend_power(f_unit, a, lead), (-1) ** (odd_pair * a))
        commutator = bracket(n, unit, f_unit)
        for s in range(a if commutator else 0):
            mid = list(exps)
            mid[p] = a - 1 - s
            inner: dict = {}
            for c_unit, c_coef in commutator:
                add_into(inner, power_peeling_act(layout, c_unit, (tuple(mid), state), memo), c_coef)
            add_into(result, prepend_power(f_unit, s, inner), (-1) ** (odd_pair * s))
    memo[unit, bvec] = result
    return result


def _first(exps) -> int:
    """The position of the first nonzero exponent."""
    return next(i for i, e in enumerate(exps) if e)


def singular_vectors(r: Realization, b: Label, mu: Weight) -> list:
    """Joint kernel of the raising actions of all b-simple roots at mu,
    split by parity: a list of (parity, vector dict)."""
    n = r.datum.n
    matrices = [r.unit_matrix(alpha, mu) for alpha in simple_roots(n, normalize_label(b, n))]
    basis = r.weight_spaces.get(mu, [])
    out = []
    for parity in (0, 1):
        cols = [i for i, bv in enumerate(basis) if vector_parity(r, bv) == parity]
        if not cols:
            continue
        entries: dict[tuple[int, int], int] = {}
        row_base = 0
        for m in matrices:
            for (row, c), v in m.entries.items():
                if c in cols:
                    entries[(row_base + row, cols.index(c))] = v
            row_base += m.nrows
        stacked = SparseRationalMatrix(row_base, len(cols), entries)
        for kvec in kernel_basis(stacked):
            out.append((parity, {basis[cols[i]]: v for i, v in kvec.items()}))
    return out


def _column_submatrix(m: SparseRationalMatrix, cols: list[int]) -> SparseRationalMatrix:
    pos = {c: k for k, c in enumerate(cols)}
    entries = {(r, pos[c]): v for (r, c), v in m.entries.items() if c in pos}
    return SparseRationalMatrix(m.nrows, len(cols), entries)


def parity_split_classes(r: Realization, alpha: Root, weight: Weight) -> tuple:
    """``(kernels, images)`` of ``e_alpha`` at ``weight``, each a pair of
    lists indexed by parity, from one elimination per parity block: the
    kernel of the outgoing matrix on the columns of parity ``p``, scattered
    back to the whole weight space, and the image of the incoming matrix on
    the source columns of parity ``1 - p``."""
    basis = r.weight_spaces[weight]
    src = sub_weights(weight, root_weight(r.datum.n, alpha))
    src_basis = r.weight_spaces.get(src, [])
    out_m, in_m = r.unit_matrix(alpha, weight), r.unit_matrix(alpha, src)
    kernels: tuple[list, list] = ([], [])
    images: tuple[list, list] = ([], [])
    for p in (0, 1):
        cols = [k for k, bv in enumerate(basis) if vector_parity(r, bv) == p]
        for vec in kernel_basis(_column_submatrix(out_m, cols)):
            kernels[p].append({cols[c]: val for c, val in vec.items()})
        src_cols = [k for k, bv in enumerate(src_basis) if vector_parity(r, bv) == 1 - p]
        images[p].extend(image_basis(_column_submatrix(in_m, src_cols)))
    return kernels, images


# ---------------------------------------------------------------------------
# Exact linear algebra over ``Fraction``: the reduced row echelon form, grown
# one vector at a time, and the canonical bases read off it.  The library
# answers the same questions on one integer Bareiss elimination.

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def echelon_kernel_basis(m: SparseRationalMatrix) -> list[Vector]:
    """The reduced-echelon basis of the right null space of ``m``: one
    vector per free column, ordered by column index, with the free
    coordinate 1 and the negated echelon entries at the pivot coordinates."""
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


def echelon_image_basis(m: SparseRationalMatrix) -> list[Vector]:
    """The reduced column echelon basis of the column space of ``m``: each
    vector with leading entry 1 at a distinct row, ordered by that row."""
    echelon = Echelon(m.nrows)
    columns: list[dict] = [{} for _ in range(m.ncols)]
    for (r, c), v in m.entries.items():
        columns[c][r] = v
    for column in columns:
        echelon.add(column)
    basis = []
    for lead in sorted(echelon.rows):
        v = [_ZERO] * m.nrows
        for c, val in echelon.rows[lead].items():
            v[c] = val
        basis.append(tuple(v))
    return basis


def echelon_quotient_basis(ambient_dim: int, subspace) -> Echelon:
    """The echelon form of ``span(subspace)``, on which a quotient is built:
    vectors added afterwards with tags 0, 1, ... and accepted by ``add``
    represent independent cosets, and ``coordinates`` gives a vector's
    coefficients over them modulo the subspace.  A dependent subspace
    family is reported with both dimensions."""
    echelon = Echelon(ambient_dim)
    for v in subspace:
        echelon.add(v)
    if len(echelon) != len(subspace):
        raise ValueError(
            f"dependent subspace: {len(subspace)} vectors span only {len(echelon)} dimensions"
        )
    return echelon


def integer_line(vector) -> dict[int, int]:
    """The sparse integer vector on the line of a dense rational ``vector``:
    coprime entries, the last nonzero one positive."""
    nonzero = {c: Fraction(v) for c, v in enumerate(vector) if v}
    scale = lcm(*(v.denominator for v in nonzero.values()))
    ints = {c: int(v * scale) for c, v in nonzero.items()}
    content = gcd(*ints.values())
    if ints[max(ints)] < 0:
        content = -content
    return {c: v // content for c, v in ints.items()}


def matmul(a: SparseRationalMatrix, b: SparseRationalMatrix) -> SparseRationalMatrix:
    """The matrix product ``a @ b``."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    by_row: dict[int, dict[int, int]] = {}
    for (r, k), v in b.entries.items():
        by_row.setdefault(r, {})[k] = v
    acc: dict[tuple[int, int], int] = {}
    for (r, c), x in a.entries.items():
        for k, y in by_row.get(c, {}).items():
            acc[r, k] = acc.get((r, k), 0) + x * y
    return SparseRationalMatrix(a.nrows, b.ncols, acc)


# ---------------------------------------------------------------------------
# The homology table at every weight, with no slice and no memo.


def full_ds_table(r: Realization, alpha: Root) -> dict[Weight, tuple[int, int]]:
    """``(even, odd)`` homology dimensions of ``e_alpha`` at every weight of
    the valid region, each from the ranks of the two integer unit matrices
    at that weight: the every-offset path, blind to the homotopy that puts
    every nonzero cell on the slice ``(mu, alpha) = 0``."""
    n = r.datum.n
    rw = root_weight(n, alpha)
    valid = r.depth - abs(r.datum.xi(rw))
    table = {}
    for w, basis in r.weight_spaces.items():
        if r.datum.depth_of(w) > valid:
            continue
        out_m, in_m = r.unit_matrix(alpha, w), r.unit_matrix(alpha, sub_weights(w, rw))
        dim = len(basis) - rank(out_m) - rank(in_m)
        assert dim >= 0, (w, dim)
        table[w] = (0, dim) if r.space_parity(w) else (dim, 0)
    return table


# ---------------------------------------------------------------------------
# The maps a doubled-Verma certificate may read, listed ahead of any run.


def certified_maps(
    layout: PBWLayout, alpha: Root, target_label: Label, valid_depth: int
) -> list[tuple[Unit, Weight]]:
    """Every map ``(unit, offset)`` inside the truncation region that
    certification may apply: the lifted raising units at the two anchor
    slots, and the lifted lowering units between offsets of the valid
    region."""
    n = layout.n
    rw = root_weight(n, alpha)
    top = (0,) * (2 * n)
    maps = [
        (lift_unit(n, alpha, beta), off)
        for beta in simple_roots(n - 1, target_label)
        for off in (top, sub_weights(top, rw))
    ]
    for r in sorted(positive_roots(n - 1, target_label)):
        unit = lift_unit(n, alpha, (r[1], r[0]))
        step = root_weight(n, unit)
        maps += [
            (unit, off)
            for off in layout.spaces
            if max(layout.cost(off), layout.cost(add_weights(off, step))) <= valid_depth
        ]
    return [(u, off) for u, off in maps if layout.map_entries(u, off) is not None]


def certificate_forms(
    layout: PBWLayout, alpha: Root, target_label: Label, valid_depth: int
) -> tuple:
    """The distinct ``Affine.terms`` of the entries of the
    :func:`certified_maps`, sorted: every form a certification run can read."""
    terms = set()
    for unit, off in certified_maps(layout, alpha, target_label, valid_depth):
        _nrows, _ncols, entries = layout.map_entries(unit, off)
        terms.update(v.terms for v in entries.values() if type(v) is not int)
    return tuple(sorted(terms))


# ---------------------------------------------------------------------------
# Homology classes over ``Fraction`` cosets, and the doubled-Verma certificate
# on them: the census, then the singular step and the freeness probe reduced
# to class coordinates, with one ``Echelon`` span per weight.


class CosetClasses:
    """The kernel and image of ``e_alpha`` at one weight as reduced-echelon
    bases, and the kernel vectors that, in order, are independent modulo
    the image, each tagged in one ``Echelon``, so that a cycle reduces to
    its coordinates over those classes."""

    def __init__(self, basis, out_m: SparseRationalMatrix, in_m: SparseRationalMatrix):
        self.basis = basis
        self.kernel = echelon_kernel_basis(out_m)
        self.image = echelon_image_basis(in_m)
        self._echelon = echelon_quotient_basis(len(basis), self.image)
        self.reps: list[Vector] = []
        for k in self.kernel:
            if self._echelon.add(k, tag=len(self.reps)):
                self.reps.append(k)
        if len(self.reps) != len(self.kernel) - len(self.image):
            raise AssertionError("image not inside the kernel")

    def reduce(self, expansion: dict) -> Vector:
        """Class coordinates over the representatives of a cycle given as
        basis-vector terms."""
        index = {bv: k for k, bv in enumerate(self.basis)}
        vector = {index[bv]: c for bv, c in expansion.items()}
        coeffs = self._echelon.coordinates(vector, len(self.reps))
        if coeffs is None:
            raise AssertionError("vector is not a homology class")
        return coeffs

    def expansion(self, coeffs) -> dict:
        """The cycle with class coordinates ``coeffs``, as basis-vector terms."""
        full = [_ZERO] * len(self.basis)
        for c, rep in zip(coeffs, self.reps, strict=True):
            if c:
                full = [a + c * b for a, b in zip(full, rep, strict=True)]
        return {bv: c for bv, c in zip(self.basis, full, strict=True) if c}


def coset_classes(result: DSResult):
    """``weight -> CosetClasses`` of ``result`` at that weight, or None off the
    module support, from the unit matrices of ``e_alpha`` out of and into it
    at the source's anchor, built once per weight."""
    m = result.source
    rw = root_weight(m.datum.n, result.alpha)
    memo: dict = {}

    def classes_at(weight: Weight) -> CosetClasses | None:
        if weight not in memo:
            basis = m.weight_spaces.get(weight)
            memo[weight] = basis and CosetClasses(
                basis,
                m.unit_matrix(result.alpha, weight),
                m.unit_matrix(result.alpha, sub_weights(weight, rw)),
            )
        return memo[weight] or None

    return classes_at


def _slot(alpha: Root, anchor: Weight, weight: Weight) -> int | None:
    """How far the two alpha coordinates moved; None if not a clean slot."""
    r1, r2 = alpha
    s = weight[r1 - 1] - anchor[r1 - 1]
    if s in (0, -1) and weight[r2 - 1] - anchor[r2 - 1] == -s:
        return s
    return None


def _lift_weight(n, alpha, anchor, nu, slot, emb) -> Weight:
    r1, r2 = alpha
    out = [0] * (2 * n)
    out[r1 - 1] = anchor[r1 - 1] + slot
    out[r2 - 1] = anchor[r2 - 1] - slot
    for v, t in zip(nu, emb, strict=True):
        out[t - 1] = v
    return tuple(out)


def coset_certify_verma_iso(
    result: DSResult, target_label: Label, target_tuple, reads: set
) -> Certificate:
    """The checks of ``homology.certify_verma_iso`` on class coordinates
    over ``Fraction`` cosets: a moved class is reduced by its
    ``CosetClasses`` and a weight's generated span is grown one class at a
    time.  The library asks the same questions as integer ranks modulo the
    boundaries."""
    m = result.source
    n = m.datum.n
    alpha = result.alpha
    anchor = m.datum.hw
    rw = root_weight(n, alpha)
    classes_at = coset_classes(result)
    target_n = n - 1
    target_pos = simple_roots(target_n, target_label)
    lowering_units = _target_lowering_units(n, alpha, target_n, target_label)
    margin = abs(m.datum.xi(rw))
    budget = result.valid_depth + margin
    heights_t = height_functional(target_n, target_label)

    ratio = 1
    for unit in lowering_units:
        amb_cost = m.datum.root_cost(unit)
        small = _shrink_unit(n, alpha, unit)
        t_cost = -sum(
            h * v
            for h, v in zip(heights_t, root_weight(target_n, small), strict=True)
        )
        ratio = max(ratio, (t_cost + amb_cost - 1) // amb_cost)
    target_char = verma_character(
        target_n, target_label, tuple(target_tuple), budget * ratio
    )

    # 1. census over every valid weight (module support plus expected lifts).
    candidates = set(result.dim_table)
    emb = surviving_indices(n, alpha)
    for nu in target_char.table:
        for s in (0, -1):
            mu = _lift_weight(n, alpha, anchor, nu, s, emb)
            if result.in_valid_region(mu):
                candidates.add(mu)
    checked = 0
    for mu in sorted(candidates):
        s = _slot(alpha, anchor, mu)
        expected_total = 0
        if s is not None:
            nu = pr_alpha(n, mu, alpha)
            if not target_char.contains(nu):
                return Certificate(
                    INCONCLUSIVE,
                    checked,
                    {"reason": "target character shallower than the valid region"},
                )
            expected_total = sum(target_char.dims(nu))
        e, o = result.dims(mu)
        expected = (expected_total, 0) if par(n, mu) == 0 else (0, expected_total)
        if (e, o) != expected:
            return Certificate(
                REFUTED,
                checked,
                {
                    "weight": list(mu),
                    "dims": [e, o],
                    "expected": list(expected),
                },
            )
        checked += 1

    # 2. singular classes on the two anchor slots.  Every raising unit is
    # the opposite of a lowering unit, which costs depth, so its target lies
    # above ``mu`` and inside the valid region.
    singular: dict[int, Weight] = {}
    for s in (0, -1):
        mu = add_weights(anchor, tuple(c * s for c in rw))
        if not result.in_valid_region(mu):
            return Certificate(
                INCONCLUSIVE,
                checked,
                {"reason": f"anchor slot {s} outside the valid region"},
            )
        if sum(result.dims(mu)) != 1:
            return Certificate(
                REFUTED,
                checked,
                {"weight": list(mu), "dims": list(result.dims(mu)), "expected_total": 1},
            )
        singular[s] = mu
        rep = classes_at(mu).expansion((1,))
        for beta in target_pos:
            unit = lift_unit(n, alpha, beta)
            moved = m.act_unit(unit, rep, reads)
            if not moved:
                continue
            if any(classes_at(add_weights(mu, root_weight(n, unit))).reduce(moved)):
                return Certificate(
                    REFUTED,
                    checked,
                    {
                        "weight": list(mu),
                        "raising": list(unit),
                        "reason": "anchor class is not singular",
                    },
                )

    # 3. freeness probe from each anchor class.
    for s, mu0 in singular.items():
        start = (_ONE,)
        spans = {mu0: Echelon(1)}
        spans[mu0].add(start)
        queue = [(mu0, start)]
        while queue:
            w, coords = queue.pop()
            expansion = classes_at(w).expansion(coords)
            for unit in lowering_units:
                w2 = add_weights(w, root_weight(n, unit))
                if not result.in_valid_region(w2):
                    continue
                moved = m.act_unit(unit, expansion, reads)
                if not moved:
                    continue
                coords2 = classes_at(w2).reduce(moved)
                if not any(coords2):
                    continue
                if spans.setdefault(w2, Echelon(len(coords2))).add(coords2):
                    queue.append((w2, coords2))
        for mu in sorted(candidates):
            if _slot(alpha, anchor, mu) != s:
                continue
            nu = pr_alpha(n, mu, alpha)
            expected = sum(target_char.dims(nu))
            got = len(spans[mu]) if mu in spans else 0
            if got != expected:
                return Certificate(
                    REFUTED,
                    checked,
                    {
                        "weight": list(mu),
                        "slot": s,
                        "generated": got,
                        "expected": expected,
                        "reason": "lowering units do not generate a free module",
                    },
                )
    return Certificate(
        CERTIFIED,
        checked,
        {"singular_weights": [list(singular[0]), list(singular[-1])]},
    )


# ---------------------------------------------------------------------------
# Rational linear combinations of matrix units, bracketed in Fraction
# arithmetic: the independent side of the library's integer check of the
# super-Jacobi identity.


class Element:
    """A finite rational linear combination of matrix units."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Unit, int | Fraction] | None = None):
        self.n = n
        self.terms: dict[Unit, Fraction] = {}
        for u, c in (terms or {}).items():
            fc = Fraction(c)
            if fc:
                self.terms[u] = fc

    @classmethod
    def unit(cls, n: int, u: Unit) -> "Element":
        return cls(n, {u: 1})

    def __add__(self, other: "Element") -> "Element":
        acc = dict(self.terms)
        for u, c in other.terms.items():
            acc[u] = acc.get(u, Fraction(0)) + c
        return Element(self.n, acc)

    def scale(self, a: int | Fraction) -> "Element":
        return Element(self.n, {u: Fraction(a) * c for u, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*e{u[0]},{u[1]}" for u, c in sorted(self.terms.items()))


def bracket_elements(x: Element, y: Element) -> Element:
    """Bilinear extension of the unit supercommutator."""
    if x.n != y.n:
        raise ValueError("rank mismatch")
    acc: dict[Unit, Fraction] = {}
    for u, a in x.terms.items():
        for v, b in y.terms.items():
            for w, c in bracket(x.n, u, v):
                acc[w] = acc.get(w, Fraction(0)) + a * b * c
    return Element(x.n, acc)


# ---------------------------------------------------------------------------
# The contracting homotopy over ``Fraction``: the unscaled side of the
# library's integer homotopy on the abelian radical.


def fraction_homotopy(h_image: dict, degree: int) -> dict:
    """Degree-normalized homotopy: s = D^{-1} h, zero on constants."""
    if degree == 0:
        return {}
    return {k: Fraction(v, degree) for k, v in h_image.items()}


# ---------------------------------------------------------------------------
# The two involutions of gl(n|n) that preserve the standard even Borel: the
# flip ``at`` and the block reversal ``c``.  Each sends e_ij to
# +/- e_{w(j), w(i)} for an index permutation w, so it maps a Verma module of
# a Borel to one of the image Borel and a weight mu to -w(mu).


def _sign_for_twist(n: int, unit: Unit) -> int:
    """Sign used by both involutions: + on the lower-left odd block."""
    i, j = unit
    return 1 if (i > n >= j) else -1


def _flip(n: int, t: int) -> int:
    """The index reversal of the flip: eps_i and delta_{n+1-i} switch roles."""
    return 2 * n + 1 - t


def _w0_even(n: int, t: int) -> int:
    """Longest element of the even Weyl group S_n x S_n on indices."""
    return n + 1 - t if t <= n else 3 * n + 1 - t


INDEX_MAPS = {"at": _flip, "c": _w0_even}


def automorphism_at(n: int, unit: Unit) -> tuple[int, Unit]:
    """The flip automorphism e_ij -> +/- e_{2n+1-j, 2n+1-i}.

    Exchanges the even and odd blocks; on Borel labels it acts by
    transposing the partition.  Returns (sign, image unit).
    """
    i, j = unit
    return _sign_for_twist(n, unit), (_flip(n, j), _flip(n, i))


def automorphism_c(n: int, unit: Unit) -> tuple[int, Unit]:
    """The block-reversal automorphism e_ij -> +/- e_{w0(j), w0(i)}.

    Here w0 reverses each block separately; on Borel labels it acts by
    complementing the partition inside the n x n box.  Returns (sign, image
    unit).
    """
    i, j = unit
    return _sign_for_twist(n, unit), (_w0_even(n, j), _w0_even(n, i))


def map_root_at(n: int, root: Root) -> Root:
    """Action of the flip automorphism on roots."""
    p, q = root
    return (_flip(n, q), _flip(n, p))


def map_root_c(n: int, root: Root) -> Root:
    """Action of the block-reversal automorphism on roots: alpha -> -w0(alpha)."""
    p, q = root
    return (_w0_even(n, q), _w0_even(n, p))


def map_weight(n: int, kind: str, weight: Weight) -> Weight:
    """Action of an involution on weights: mu -> -w(mu)."""
    w = INDEX_MAPS[kind]
    out = [0] * (2 * n)
    for k, v in enumerate(weight, start=1):
        out[w(n, k) - 1] = -v
    return tuple(out)


def apply_automorphism(kind: str, x: Element) -> Element:
    """Apply one of the involutions ('at' or 'c') to an element."""
    fn = automorphism_at if kind == "at" else automorphism_c
    acc: dict[Unit, Fraction] = {}
    for u, c in x.terms.items():
        s, v = fn(x.n, u)
        acc[v] = acc.get(v, Fraction(0)) + s * c
    return Element(x.n, acc)


def label_from_odd_positive_roots(n: int, odd_roots) -> Label:
    """Recover a label from its set of positive odd roots.

    beta_i is the number of q with delta_q - eps_{n+1-i} positive.
    """
    beta = tuple(
        sum(1 for q in range(1, n + 1) if (n + q, n + 1 - i) in odd_roots)
        for i in range(1, n + 1)
    )
    label = normalize_label(beta, n)
    if odd_positive_roots(n, label) != frozenset(odd_roots):
        raise ValueError("root set is not the odd positive system of any Borel")
    return label


def complement_label(n: int, label: Label) -> Label:
    """Action of the block-reversal automorphism on labels: box complement."""
    beta = padded(label, n)
    return normalize_label(tuple(n - beta[n - i] for i in range(1, n + 1)), n)


def antitranspose_label(n: int, label: Label) -> Label:
    """Action of the flip automorphism on labels: conjugate partition."""
    return normalize_label(conjugate_partition(label, n), n)


def mapped_label(n: int, label: Label, kind: str) -> Label:
    """Label whose positive system is the automorphism image, from the roots."""
    fn = map_root_c if kind == "c" else map_root_at
    image = {fn(n, r) for r in odd_positive_roots(n, label)}
    return label_from_odd_positive_roots(n, image)


# ---------------------------------------------------------------------------
# Reports serialized the direct way: the other side of the framed writer of
# ``ScenarioReport.to_json``.


def report_json(report, timing: bool = False) -> str:
    """The report as one document of plain dicts, a dict per case, passed
    whole to ``json.dumps(sort_keys=True)``."""
    doc = {
        "scenario": report.scenario,
        "params": report.params,
        "cases": [
            {"key": c.key, "verdict": c.verdict, "detail": c.detail} for c in report.cases
        ],
        "wall_time_ms": report.wall_time_ms if timing else None,
    }
    return json.dumps(doc, sort_keys=True)
