"""Truncated induced modules over gl(n|n) with exact PBW straightening.

A module here is an induction ``U(g) ⊗_{U(p)} L`` presented on the PBW basis
``f_1^{a_1} ··· f_k^{a_k} ⊗ x``: the ``f_i`` run, in increasing order, over
the root vectors outside the inducing subalgebra ``p`` and ``x`` over a
basis of a finite or truncated ``p``-module ``L``.

The Levi module ``L`` is a :class:`TensorLevi` whose factors are
:class:`RealizationFactor` objects, smaller realizations embedded on blocks
of coordinates.  With no factors it is the one-dimensional ``k_λ`` of
Verma-type inductions.  The anchored (bg) modules induce from the degree-zero
Levi gl(1|1)^n of the principal good grading; their datum takes the roots of
nonnegative good degree, and each diagonal factor is a rank-1 Verma or
simple module realized at depth 2.

Everything is graded by weight and truncated by a per-datum height
functional: every weight of height-depth at most ``depth`` gets a complete
weight space, and generator actions are computed by PBW straightening.
Actions and matrices that leave the region raise
:class:`TruncationOverflow` — results are never silently dropped.

The work is split in two.  A :class:`PBWLayout` depends on the shape of the
induction (rank, inducing and levi roots, heights, depth, levi module) but
not on the anchor weight ``hw``.  It numbers the basis once, by weight
offset from the anchor, in a walk that stops where no unit left fits the
budget, keeps the cost and parity of each offset and, per unit, the
offset it moves each offset to, and holds the one straightening memo, whose
coefficients are integers affine in ``hw``: a plain ``int`` when constant
(almost always), otherwise an :class:`Affine`.  Straightening peels one PBW
factor per step.
Every weight space has one parity (here always that of its weight), and the
layout refuses a shape where it would not.  Its matrices and slices read
those tables, so weights are formed only where they leave the layout.  A
:class:`Realization` is a thin view of a layout at one anchor; it evaluates
weight spaces, parities, actions and integer unit matrices there.  Views of
one shared layout, such as the Verma modules of one Borel over a grid of
tuples, straighten once.  Matrices and actions can name the linear forms in
``hw`` that they evaluate, so a caller can tell at which anchors a
computation reads the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import product
from operator import add, mul

from .borels import (
    Label,
    b_outer,
    height_functional,
    hypercube_label,
    normalize_label,
    positive_roots,
    star,
)
from .linalg import SparseRationalMatrix
from .superalgebra import (
    Root,
    Unit,
    Weight,
    all_roots,
    bracket,
    good_degree,
    is_cartan,
    is_odd_root,
    root_of,
    root_weight,
    unit_parity,
)
from .weights import (
    Character,
    add_weights,
    from_tuple,
    par,
    sub_weights,
)

Vector = dict  # basis vector -> int or Fraction


class TruncationOverflow(RuntimeError):
    """An action left the truncation region of a realization."""

    def __init__(self, weight: Weight, needed: int, depth: int):
        super().__init__(
            f"action target at weight {weight} needs depth {needed} "
            f"but the realization is truncated at {depth}"
        )
        self.weight = weight
        self.needed = needed
        self.depth = depth


@dataclass(frozen=True)
class InductionDatum:
    """An induction problem: inducing subalgebra, anchor, truncation.

    ``inducing_roots`` are the roots of the inducing subalgebra (the Cartan
    is always included implicitly); ``levi_roots`` marks the subset acting
    through a genuine module rather than by zero.  The PBW order,
    :attr:`complement_order`, is derived from them: the roots outside the
    inducing subalgebra, in increasing order.  ``hw`` anchors the truncation
    region and, for one-dimensional inductions, is the inflated weight.
    ``heights`` define the truncation functional.
    """

    n: int
    inducing_roots: frozenset[Root]
    hw: Weight
    parity_shift: int
    heights: tuple[int, ...]
    levi_roots: frozenset[Root] = field(default_factory=frozenset)

    def __post_init__(self):
        _complement, forms = _validate_shape(self.shape)
        if len(self.hw) != 2 * self.n:
            raise ValueError("weight or height vector has wrong rank")
        # the anchor weight kills every Cartan bracket of non-levi opposite
        # pairs, so it spans a one-dimensional module for the non-levi part
        for r, opposite, form in forms:
            if sum(coef * self.hw[i] for i, coef in form):
                raise ValueError(
                    f"anchor weight does not vanish on the Cartan bracket of "
                    f"{r} and {opposite}"
                )

    @property
    def shape(self) -> tuple:
        """Everything but the anchor: what a :class:`PBWLayout` depends on."""
        return (
            self.n,
            self.inducing_roots,
            self.levi_roots,
            self.heights,
        )

    @property
    def complement_order(self) -> tuple[Root, ...]:
        """The PBW order: the roots outside the inducing subalgebra, in
        increasing order."""
        return _validate_shape(self.shape)[0]

    def xi(self, vec) -> int:
        return sum(h * v for h, v in zip(self.heights, vec, strict=True))

    def root_cost(self, root: Root) -> int:
        return -self.xi(root_weight(self.n, root))

    @cached_property
    def _xi_hw(self) -> int:
        return self.xi(self.hw)

    def depth_of(self, weight: Weight) -> int:
        """Height-depth of ``weight`` below the anchor, ``xi(hw - weight)``."""
        if len(weight) != len(self.heights):
            raise ValueError("weight vector has wrong rank")
        return self._xi_hw - sum(map(mul, self.heights, weight))


@lru_cache(maxsize=None)
def _validate_shape(shape: tuple) -> tuple:
    """Check everything of a datum but its anchor, once per shape.

    Returns the PBW order, the roots outside the inducing subalgebra in
    increasing order, and the Cartan brackets the anchor must kill, as
    ``(root, opposite, form)`` with ``form`` the ``(index, coefficient)``
    pairs of the bracket.  A rejected shape is not cached, so it is rejected
    again on every datum.
    """
    n, inducing, levi_roots, heights = shape
    every = set(all_roots(n))
    if not inducing <= every:
        raise ValueError("inducing roots must be roots")
    if not levi_roots <= inducing:
        raise ValueError("levi roots must be inducing roots")
    complement = tuple(sorted(every - inducing))
    if len(heights) != 2 * n:
        raise ValueError("weight or height vector has wrong rank")
    # the inducing subalgebra is closed under the bracket
    for r1 in inducing:
        for r2 in inducing:
            for unit, _coef in bracket(n, r1, r2):
                if not is_cartan(unit) and root_of(n, unit) not in inducing:
                    raise ValueError(f"inducing set not closed: [{r1}, {r2}] leaves it")
    # every complement root must cost at least one unit of depth
    for r in complement:
        if -sum(h * v for h, v in zip(heights, root_weight(n, r))) < 1:
            raise ValueError(f"complement root {r} has nonpositive depth cost")
    forms = []
    for r in sorted(inducing):
        opposite = (r[1], r[0])
        if opposite not in inducing or (r in levi_roots and opposite in levi_roots):
            continue
        form = tuple(
            (unit[0] - 1, coef) for unit, coef in bracket(n, r, opposite) if is_cartan(unit)
        )
        forms.append((r, opposite, form))
    return complement, tuple(forms)


# ---------------------------------------------------------------------------
# Levi modules: what sits in the right tensor slot of the induction.


class RealizationFactor:
    """A truncated realization of gl(m|m) embedded as a Levi block.

    ``coord_map`` sends local storage coordinates 1..2m to ambient storage
    coordinates; units and weights translate along it.  The states are the
    realization's basis vectors, numbered once by weight, and each unit acts
    through the realization's straightening memo.
    """

    def __init__(self, realization: "Realization", n: int, coord_map: tuple[int, ...]):
        m = realization.datum.n
        if len(coord_map) != 2 * m:
            raise ValueError("coordinate map has wrong length")
        self.realization = realization
        self.n = n
        self.coord_map = coord_map
        self._to_local = {amb: loc + 1 for loc, amb in enumerate(coord_map)}
        self.hw = self._lift_weight(realization.datum.hw)
        self.states = []
        self._vectors = []
        for w in sorted(realization.weight_spaces):
            state = (self._lift_weight(w), realization.space_parity(w))
            for bvec in realization.weight_spaces[w]:
                self._vectors.append(bvec)
                self.states.append(state)
        self._index = {bvec: i for i, bvec in enumerate(self._vectors)}
        self.roots = frozenset(
            (coord_map[p - 1], coord_map[q - 1]) for p, q in all_roots(m)
        )

    def _lift_weight(self, w: Weight) -> Weight:
        out = [0] * (2 * self.n)
        for loc, amb in enumerate(self.coord_map):
            out[amb - 1] = w[loc]
        return tuple(out)

    def unit_terms(self, unit: Unit, state: int):
        """The ``(state, coefficient)`` terms of the unit on one state, in
        increasing state order, each coefficient nonzero.  A nonzero term
        beyond the factor's truncation raises :class:`TruncationOverflow`;
        terms that are all zero give no terms, even where the target weight
        lies beyond the truncation."""
        local_unit = (self._to_local[unit[0]], self._to_local[unit[1]])
        image = self.realization.act_unit(local_unit, {self._vectors[state]: 1})
        return sorted((self._index[bvec], c) for bvec, c in image.items())


class TensorLevi:
    """Outer tensor product of factors covering disjoint coordinate blocks.

    With no factors it is the one-dimensional module k_hw: its one state
    sits at the anchor and every root vector acts by zero.  Each root acts
    through the one factor that owns it, found in a table made once; the
    terms name distinct states, each with a nonzero coefficient.
    """

    def __init__(self, n: int, factors):
        self.n = n
        self.factors = list(factors)
        self._owners = {r: j for j, f in enumerate(self.factors) for r in f.roots}
        self.roots = frozenset(self._owners)
        zero = (0,) * (2 * n)
        self.hw = reduce(add_weights, (f.hw for f in self.factors), zero)
        self._keys = list(product(*(range(len(f.states)) for f in self.factors)))
        self.states = []
        for key in self._keys:
            picked = [f.states[s] for f, s in zip(self.factors, key)]
            weight = reduce(add_weights, (w for w, _ in picked), zero)
            self.states.append((weight, sum(p for _, p in picked) % 2))
        self._index = {k: i for i, k in enumerate(self._keys)}

    def unit_terms(self, unit: Unit, state: int):
        key = self._keys[state]
        owner = self._owners.get(root_of(self.n, unit))
        if owner is None:
            return []
        sign = 1
        if unit_parity(self.n, unit) == 1:
            passed = sum(
                self.factors[j].states[key[j]][1] for j in range(owner)
            )
            if passed % 2 == 1:
                sign = -1
        out = []
        for s2, coef in self.factors[owner].unit_terms(unit, key[owner]):
            new_key = key[:owner] + (s2,) + key[owner + 1 :]
            out.append((self._index[new_key], sign * coef))
        return out


# ---------------------------------------------------------------------------
# Straightened coefficients.


class Affine:
    """A non-constant integer affine function ``const + sum(c * hw[i])``.

    Straightened coefficients are affine in the anchor weight ``hw``: a
    Cartan unit acts by a weight coordinate, and every straightening path
    evaluates at most one Cartan unit.  Constant coefficients stay plain
    ``int``, and arithmetic returns an ``int`` as soon as the ``hw`` terms
    cancel.  A product of two non-constant functions is refused, never
    truncated.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: int, terms: tuple[tuple[int, int], ...]):
        self.const = const
        self.terms = terms  # sorted (coordinate index, nonzero coefficient)

    def at(self, hw: Weight) -> int:
        value = self.const
        for i, c in self.terms:
            value += c * hw[i]
        return value

    def __add__(self, other):
        if type(other) is int:
            return Affine(self.const + other, self.terms) if other else self
        if type(other) is not Affine:
            return NotImplemented
        merged = dict(self.terms)
        for i, c in other.terms:
            merged[i] = merged.get(i, 0) + c
        terms = tuple(sorted((i, c) for i, c in merged.items() if c))
        const = self.const + other.const
        return Affine(const, terms) if terms else const

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not int:
            if type(other) is Affine:
                raise TypeError("product of two anchor-dependent coefficients")
            return NotImplemented
        if other == 1:
            return self
        if not other:
            return 0
        return Affine(self.const * other, tuple((i, c * other) for i, c in self.terms))

    __rmul__ = __mul__


def _at(coef, hw: Weight) -> int:
    return coef if type(coef) is int else coef.at(hw)


def form_values(forms, hw: Weight) -> tuple[int, ...]:
    """The value at ``hw`` of each linear form, given as ``Affine.terms``."""
    return tuple(sum(c * hw[i] for i, c in terms) for terms in forms)


def level_form(n: int, unit: Unit) -> tuple[tuple[int, int], ...]:
    """The level ``-(hw, root)`` of a unit's root as a linear form in the
    anchor ``hw``, given as ``Affine.terms``: the invariant form is ``+1`` on
    each eps coordinate and ``-1`` on each delta."""
    return tuple((i, -c if i < n else c) for i, c in enumerate(root_weight(n, unit)) if c)


# ---------------------------------------------------------------------------
# The realization engine: an anchor-free layout and its views.


class PBWLayout:
    """The anchor-free part of a truncated induction: basis and straightening.

    A layout depends on the shape of a datum (rank, inducing and levi roots,
    heights), the depth and the levi module, never on the anchor weight
    ``hw``.  Basis vectors are pairs ``(exponents, levi_state)``:
    exponents align with the PBW order (odd-root exponents are 0 or 1), the
    levi state indexes the levi module's basis.  Construction numbers every
    basis vector of height-depth at most ``depth`` in one walk that carries
    the vector's weight offset from the anchor, its cost and its raw parity,
    so every offset of height-depth at most ``depth`` has a complete basis.
    The walk files a vector as soon as the budget left is below the least
    cost of the units still to come, and moves the two coordinates a root
    changes in one offset list.
    ``numbered`` maps each basis vector to its offset, ``spaces`` lists the
    offsets in increasing order, ``costs`` maps each to its height-depth and
    ``parities`` to the one raw parity of its basis vectors; construction
    raises ``ValueError`` if a weight space holds both.
    :meth:`shift` tables, per unit, the offset each offset moves to, made
    the first time the unit is applied and filled as it is read;
    :meth:`valid_offsets` and :meth:`slice_of` list offsets by depth and
    level once, and :meth:`margin` gives each unit's height once.  Matrices
    and the region check of an action read these tables, so no offset of a
    numbered vector is recomputed.  Actions are straightened on demand and
    memoized with coefficients affine in ``hw``, so every entry of a map is
    ``const + form(hw)`` for one linear form, and :meth:`matrix_at` can name
    the forms it evaluates.  Everything derived from some maps is therefore
    the same at every anchor where the forms of their entries take the same
    values.  :meth:`act` peels one PBW factor per step, so each action is
    read from memoized actions on vectors one factor shorter.  ``targets``
    (the target Verma totals by label and depth, the target depths by root
    and label) is a memo that :mod:`superverma.homology` owns and the layout
    never reads.  A :class:`Realization` evaluates everything at one anchor.
    """

    def __init__(self, datum: InductionDatum, depth: int, levi=None):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        n = datum.n
        self.key = (datum.shape, depth, levi)
        self.n = n
        self.depth = depth
        self.levi = levi if levi is not None else TensorLevi(n, ())
        if self.levi.roots != datum.levi_roots:
            raise ValueError("levi module and datum disagree on levi roots")
        self.heights = datum.heights
        self.levi_roots = datum.levi_roots
        self.units: tuple[Unit, ...] = datum.complement_order
        self._position = {u: i for i, u in enumerate(self.units)}
        self._roots = [root_weight(n, r) for r in self.units]
        self._odd = [is_odd_root(n, r) for r in self.units]
        self._root_costs = [datum.root_cost(r) for r in self.units]
        self.spaces: dict[Weight, list] = {}
        self.parities: dict[Weight, int] = {}
        self.costs: dict[Weight, int] = {}
        self.numbered: dict = {}
        self._state_offsets = []
        for weight, _parity in self.levi.states:
            off = sub_weights(weight, self.levi.hw)
            if self.cost(off) < 0:
                raise ValueError(
                    "levi state above the anchor weight: heights misaligned"
                )
            self._state_offsets.append(off)
        self._act_memo: dict = {}
        self._shifts: dict = {}
        self._valid: dict = {}
        self._slices: dict = {}
        self._margins: dict = {}
        self.targets: dict = {}
        self._enumerate()
        self.positions = {
            off: {bv: i for i, bv in enumerate(basis)}
            for off, basis in self.spaces.items()
        }

    def _enumerate(self):
        """Number every basis vector of height-depth at most ``depth``: the
        walk carries the offset, cost and raw parity of the exponents so far,
        and files each vector under its offset once ``floor[i]``, the least
        cost of the units from position ``i`` on, exceeds the budget left.
        Offsets are then put in increasing order, each basis sorted."""
        k = len(self.units)
        depth = self.depth
        unit_costs, odds = self._root_costs, self._odd
        floor = [depth + 1] * (k + 1)
        for i in range(k - 1, -1, -1):
            floor[i] = min(floor[i + 1], unit_costs[i])
        exps = [0] * k
        spaces, parities, costs, numbered = self.spaces, self.parities, self.costs, self.numbered

        def walk(i: int, coords: list, spent: int, parity: int, levi_state: int):
            if depth - spent < floor[i]:
                off = tuple(coords)
                bvec = (tuple(exps), levi_state)
                numbered[bvec] = off
                basis = spaces.get(off)
                if basis is None:
                    spaces[off] = [bvec]
                    parities[off] = parity
                    costs[off] = spent
                    return
                if parities[off] != parity:
                    raise ValueError(f"the weight space at offset {off} holds both parities")
                basis.append(bvec)
                return
            cost, odd = unit_costs[i], odds[i]
            p, q = self.units[i]
            top = (depth - spent) // cost
            if odd:
                top = min(top, 1)
            walk(i + 1, coords, spent, parity, levi_state)
            for e in range(1, top + 1):
                exps[i] = e
                coords[p - 1] += 1
                coords[q - 1] -= 1
                walk(i + 1, coords, spent + e * cost, parity ^ (e & odd), levi_state)
            exps[i] = 0
            coords[p - 1] -= top
            coords[q - 1] += top

        for state, off in enumerate(self._state_offsets):
            spent = self.cost(off)
            # a levi state beyond the depth holds no vector of the region
            if spent <= depth:
                walk(0, list(off), spent, self.levi.states[state][1], state)
        self.spaces = {off: sorted(spaces[off]) for off in sorted(spaces)}

    # -- basic queries ------------------------------------------------

    def cost(self, offset: Weight) -> int:
        """Height-depth of a weight ``offset`` below the anchor: read from
        the table of the layout's offsets, computed for any other."""
        known = self.costs.get(offset)
        if known is not None:
            return known
        return -sum(h * v for h, v in zip(self.heights, offset, strict=True))

    def offset(self, bvec) -> Weight:
        """Weight of a basis vector minus the anchor: numbered by the walk,
        computed only for a vector beyond the truncation."""
        known = self.numbered.get(bvec)
        if known is not None:
            return known
        exps, state = bvec
        return reduce(
            add_weights,
            (tuple(e * v for v in rw) for e, rw in zip(exps, self._roots) if e),
            self._state_offsets[state],
        )

    def shift(self, unit: Unit) -> dict[Weight, Weight]:
        """The table ``off -> off + root`` of the unit, made the first time
        the unit is applied and filled as offsets are looked up in it."""
        table = self._shifts.get(unit)
        if table is None:
            table = self._shifts[unit] = _Shift(root_weight(self.n, unit))
        return table

    def valid_offsets(self, max_depth: int) -> tuple:
        """The offsets of height-depth at most ``max_depth``, in order."""
        found = self._valid.get(max_depth)
        if found is None:
            costs = self.costs
            found = tuple(off for off in self.spaces if costs[off] <= max_depth)
            self._valid[max_depth] = found
        return found

    def margin(self, unit: Unit) -> int:
        """``|xi(root)|``: the height-depth that the unit's root moves an
        offset by, computed once per unit."""
        found = self._margins.get(unit)
        if found is None:
            root = root_weight(self.n, unit)
            found = abs(sum(h * v for h, v in zip(self.heights, root, strict=True)))
            self._margins[unit] = found
        return found

    @cached_property
    def parities_follow_deltas(self) -> bool:
        """Whether the raw parity of every offset is the parity of its delta
        sum, ``sum(offset[n:]) % 2``, as on every Verma layout; checked once
        per layout."""
        n = self.n
        return all(p == sum(off[n:]) % 2 for off, p in self.parities.items())

    # -- straightening ------------------------------------------------

    def act(self, unit: Unit, bvec) -> dict:
        """Action of a matrix unit on a basis vector (no truncation), with
        ``int`` or :class:`Affine` coefficients; memoized in one dict per
        unit, do not mutate.  A vector ``F_p b'``, with ``p`` its first
        nonzero exponent, is straightened one factor at a time:
        ``u F_p b' = (-1)^{|u||F_p|} F_p (u b') + [u, F_p] b'``."""
        memo = self._act_memo.get(unit)
        if memo is None:
            memo = self._act_memo[unit] = {}
        hit = memo.get(bvec)
        if hit is not None:
            return hit
        n = self.n
        if is_cartan(unit):
            i = unit[0] - 1
            # hw[i] + offset
            result = memo[bvec] = {bvec: Affine(self.offset(bvec)[i], ((i, 1),))}
            return result
        exps, state = bvec
        first = next((i for i, e in enumerate(exps) if e), None)
        position = self._position.get(unit)
        if first is None or (position is not None and position <= first):
            # vacuum zone, or a complement unit that lands in PBW position
            if position is None:
                # an inducing non-levi root vector kills the vacuum
                terms = self.levi.unit_terms(unit, state) if unit in self.levi_roots else ()
                result = {(exps, s2): c for s2, c in terms}
            elif self._odd[position] and exps[position] == 1:
                result = {}
            else:
                new = list(exps)
                new[position] += 1
                result = {(tuple(new), state): 1}
            memo[bvec] = result
            return result
        # peel the first factor F_p off the vector F_p b'
        p = first
        f_unit = self.units[p]
        sign = -1 if self._odd[p] and unit_parity(n, unit) else 1
        shorter = list(exps)
        shorter[p] -= 1
        rest = (tuple(shorter), state)
        total: dict = {}
        for bv, c in self.act(unit, rest).items():
            c = sign * c
            for bv2, c2 in self.act(f_unit, bv).items():
                val = total.get(bv2, 0) + c * c2
                if val:
                    total[bv2] = val
                else:
                    total.pop(bv2, None)
        for c_unit, c_coef in bracket(n, unit, f_unit):
            for bv, c in self.act(c_unit, rest).items():
                val = total.get(bv, 0) + c_coef * c
                if val:
                    total[bv] = val
                else:
                    total.pop(bv, None)
        memo[bvec] = total
        return total

    # -- matrices -----------------------------------------------------

    def map_entries(self, unit: Unit, offset: Weight):
        """``(nrows, ncols, entries)`` of the unit's map from the weight space
        at ``offset`` to the one at ``offset + root``, with ``int`` and
        ``Affine`` entries; ``None`` when either space leaves the truncation
        region.  Rows and columns follow the canonical bases.  A target
        inside the region that holds no basis vector gets the zero map
        unstraightened: the walk numbers every vector of the region, so
        nothing can land there."""
        target = self.shift(unit)[offset]
        if max(self.cost(offset), self.cost(target)) > self.depth:
            return None
        cols = self.spaces.get(offset, ())
        rows = self.positions.get(target)
        if rows is None:
            return 0, len(cols), {}
        entries: dict = {}
        for c, bvec in enumerate(cols):
            for bv, value in self.act(unit, bvec).items():
                entries[(rows[bv], c)] = value
        return len(rows), len(cols), entries

    def matrix_at(self, unit: Unit, offset: Weight, hw: Weight, reads: set | None = None):
        """The same map as an integer matrix at the anchor ``hw``; the
        ``Affine.terms`` of its anchor-dependent entries are added to
        ``reads`` when it is given.  A map from or to a space beyond the
        truncation raises :class:`TruncationOverflow` there, source first."""
        found = self.map_entries(unit, offset)
        if found is None:
            if self.cost(offset) <= self.depth:
                offset = add_weights(offset, root_weight(self.n, unit))
            raise TruncationOverflow(add_weights(hw, offset), self.cost(offset), self.depth)
        nrows, ncols, entries = found
        if reads is not None:
            reads.update(v.terms for v in entries.values() if type(v) is not int)
        evaluated = {k: _at(v, hw) for k, v in entries.items()}
        return SparseRationalMatrix(nrows, ncols, evaluated)

    def slice_of(self, unit: Unit, max_depth: int, level: int) -> tuple:
        """The offsets of the slice ``(offset, root) = level`` up to
        height-depth ``max_depth``, in order.  The offsets of every level are
        grouped in one pass per ``(unit, max_depth)``: with ``root = eps_p -
        eps_q``, the form is ``sign(p) offset[p] - sign(q) offset[q]``, the
        sign ``-1`` on the delta lines."""
        key = (unit, max_depth)
        levels = self._slices.get(key)
        if levels is None:
            n = self.n
            p, q = unit[0] - 1, unit[1] - 1
            sp, sq = (1 if p < n else -1), (1 if q < n else -1)
            grouped: dict = {}
            for off in self.valid_offsets(max_depth):
                grouped.setdefault(sp * off[p] - sq * off[q], []).append(off)
            levels = self._slices[key] = {lv: tuple(offs) for lv, offs in grouped.items()}
        return levels.get(level, ())


class _Shift(dict):
    """``off -> off + root`` for one root, each entry made when first read."""

    __slots__ = ("root",)

    def __init__(self, root: Weight):
        super().__init__()
        self.root = root

    def __missing__(self, off: Weight) -> Weight:
        target = self[off] = tuple(map(add, off, self.root))
        return target


class Realization:
    """A truncated induced module: a :class:`PBWLayout` seen at the anchor
    ``datum.hw``.

    Weights, parities, actions and unit matrices are the layout's, evaluated
    at this anchor and parity shift; matrices come out with ``int`` entries.
    Every memo lives on the layout, so views sharing one layout (pass
    ``layout``, built for the same datum shape, depth and levi module)
    straighten each action once.  The view itself caches only its
    translated ``weight_spaces``.  Every weight with
    ``datum.depth_of(weight) <= depth`` has a complete basis.
    """

    def __init__(
        self, datum: InductionDatum, depth: int, levi=None, layout: PBWLayout | None = None
    ):
        if layout is None:
            layout = PBWLayout(datum, depth, levi)
        elif layout.key != (datum.shape, depth, levi):
            raise ValueError("layout was built for another datum shape, depth or levi module")
        if levi is not None and tuple(levi.hw) != tuple(datum.hw):
            raise ValueError("datum anchor differs from the levi module's top weight")
        self.datum = datum
        self.depth = depth
        self.layout = layout
        self.levi = layout.levi
        self._hw = datum.hw
        self._shift = datum.parity_shift % 2

    @cached_property
    def weight_spaces(self) -> dict[Weight, list]:
        hw = self._hw
        return {add_weights(hw, off): basis for off, basis in self.layout.spaces.items()}

    # -- basic queries ------------------------------------------------

    def _offset(self, weight: Weight) -> Weight:
        return sub_weights(weight, self._hw)

    def vector_weight(self, bvec) -> Weight:
        return add_weights(self._hw, self.layout.offset(bvec))

    def space_parity(self, weight: Weight) -> int:
        """The parity of every vector of the weight space at ``weight``."""
        return self.layout.parities[self._offset(weight)] ^ self._shift

    def monomial(self, unit_exponents: dict[Unit, int], levi_state: int = 0):
        """Basis vector with the given exponents keyed by complement unit."""
        units = self.layout.units
        exps = [0] * len(units)
        for unit, e in unit_exponents.items():
            if unit not in units:
                raise ValueError(f"{unit} is not a complement unit")
            i = units.index(unit)
            if is_odd_root(self.datum.n, unit) and e not in (0, 1):
                raise ValueError(f"odd factor {unit} admits exponents 0 and 1 only")
            if e < 0:
                raise ValueError("negative exponent")
            exps[i] = e
        return (tuple(exps), levi_state)

    # -- action -------------------------------------------------------

    def act_unit_on_basis(self, unit: Unit, bvec) -> dict:
        """Exact action of a matrix unit on a basis vector (no truncation)."""
        hw = self._hw
        out = {}
        for bv, c in self.layout.act(unit, bvec).items():
            value = _at(c, hw)
            if value:
                out[bv] = value
        return out

    def act_unit(self, unit: Unit, vec: dict, reads: set | None = None) -> dict:
        """Action of a matrix unit on a module vector (dict of basis terms);
        the ``Affine.terms`` of the anchor-dependent coefficients it evaluates
        are added to ``reads`` when it is given.  A term beyond the truncation,
        where the layout numbers no vector, raises :class:`TruncationOverflow`."""
        layout = self.layout
        numbered = layout.numbered
        hw = self._hw
        out: dict = {}
        for bvec, coef in vec.items():
            if not coef:
                continue
            terms = layout.act(unit, bvec)
            if reads is not None:
                reads.update(c.terms for c in terms.values() if type(c) is not int)
            for bv, c in terms.items():
                value = _at(c, hw)
                if not value:
                    continue
                if bv not in numbered:
                    needed = layout.cost(layout.offset(bv))
                    raise TruncationOverflow(self.vector_weight(bv), needed, self.depth)
                val = out.get(bv, 0) + coef * value
                if val:
                    out[bv] = val
                else:
                    out.pop(bv, None)
        return out

    def unit_matrix(self, unit: Unit, source: Weight) -> SparseRationalMatrix:
        """Integer matrix of the unit from the weight space at ``source`` to
        the one at ``source + root``.  Shapes follow the canonical bases."""
        return self.layout.matrix_at(unit, self._offset(source), self._hw)

    def level(self, unit: Unit) -> int:
        """The offset level ``-(hw, root)`` of the slice where the
        weight ``mu = hw + offset`` has ``(mu, root) = 0``."""
        (value,) = form_values((level_form(self.datum.n, unit),), self._hw)
        return value

    # -- derived structure --------------------------------------------

    def census(self) -> Character:
        table: dict[Weight, tuple[int, int]] = {}
        for w, basis in self.weight_spaces.items():
            table[w] = (0, len(basis)) if self.space_parity(w) else (len(basis), 0)
        return Character(
            self.datum.n, self.datum.hw, self.datum.heights, self.depth, table
        )


# ---------------------------------------------------------------------------
# Datum constructors.


def verma_datum(n: int, label: Label, t) -> InductionDatum:
    """Verma induction from a Borel: inducing roots are the positives."""
    label = normalize_label(label, n)
    pos = positive_roots(n, label)
    hw = from_tuple(n, t, label)
    return InductionDatum(
        n=n,
        inducing_roots=pos,
        hw=hw,
        parity_shift=par(n, hw),
        heights=height_functional(n, label),
    )


def bg_datum(n: int, t) -> InductionDatum:
    """Enlarged-Borel induction: the outer-staircase Borel plus the lowering
    odd root of every matched diagonal pair."""
    base = b_outer(n)
    pos = set(positive_roots(n, base))
    for k in range(1, n + 1):
        if t[k - 1] == t[n + k - 1]:
            pos.add((n + k, k))
    hw = from_tuple(n, t, base)
    return InductionDatum(
        n=n,
        inducing_roots=frozenset(pos),
        hw=hw,
        parity_shift=par(n, hw),
        heights=height_functional(n, base),
    )


def union_borel_datum(n: int, labels, hw: Weight) -> InductionDatum:
    """One-dimensional induction from the span of several Borels' positives.

    Validation rejects the datum unless the union is bracket-closed and the
    weight kills the Cartan brackets of its opposite pairs.
    """
    pos: set[Root] = set()
    for label in labels:
        pos |= positive_roots(n, normalize_label(label, n))
    return InductionDatum(
        n=n,
        inducing_roots=frozenset(pos),
        hw=hw,
        parity_shift=par(n, hw),
        heights=height_functional(n, normalize_label(labels[0], n)),
    )


# A rank-1 factor is realized to depth 2: its states lie at most one step
# below its top, so every unit map out of them stays inside the region.
_FACTOR_DEPTH = 2


def _factor_label(kind: str) -> Label:
    """The rank-1 Borel of a diagonal factor kind."""
    if kind not in ("verma_eps", "verma_delta", "simple"):
        raise ValueError(f"unknown gl(1|1) factor kind {kind!r}")
    return (1,) if kind == "verma_delta" else ()


def bg_module_levi(n: int, specs) -> TensorLevi:
    """Tensor of diagonal gl(1|1) factors, one spec ``(kind, a, b)`` per
    coordinate pair (k, n+k), in rank-1 tuple coordinates:

    * ``verma_eps``: the Verma module lowering along delta_k - eps_k;
    * ``verma_delta``: the Verma module lowering along eps_k - delta_k;
    * ``simple``: the simple head, one-dimensional when ``a == b``; a typical
      simple is its Verma module, so ``a != b`` falls back to ``verma_eps``.
    """
    if len(specs) != n:
        raise ValueError(f"need {n} factor specs")
    factors = []
    for k, (kind, a, b) in enumerate(specs, start=1):
        if kind == "simple" and a == b:
            local = Realization(gl11_simple_datum(a), _FACTOR_DEPTH)
        else:
            local = verma_realization(1, _factor_label(kind), (a, b), _FACTOR_DEPTH)
        factors.append(RealizationFactor(local, n, (k, n + k)))
    return TensorLevi(n, factors)


def bg_module_datum(n: int, specs) -> InductionDatum:
    """Parabolic induction datum for the diagonal-Levi parabolic.

    The inducing roots are those of nonnegative principal good degree and
    the levi roots those of degree zero, the diagonal gl(1|1)^n.  The
    truncation functional follows the hypercube Borel matching the factor
    lowering directions, so every factor's internal lowering has positive
    cost.  The factors carry the parities of their own weights, so the
    datum has no parity shift.
    """
    roots = all_roots(n)
    inducing = frozenset(r for r in roots if good_degree(n, r) >= 0)
    tops = [from_tuple(1, (a, b), _factor_label(kind)) for kind, a, b in specs]
    gamma = tuple(int(kind == "verma_delta") for kind, _a, _b in specs)
    return InductionDatum(
        n=n,
        inducing_roots=inducing,
        hw=tuple(top[0] for top in tops) + tuple(top[1] for top in tops),
        parity_shift=0,
        heights=height_functional(n, hypercube_label(n, gamma)),
        levi_roots=frozenset(r for r in roots if good_degree(n, r) == 0),
    )


def bg_module(n: int, specs, depth: int) -> Realization:
    """Induced module from the diagonal-Levi parabolic with factor specs."""
    levi = bg_module_levi(n, specs)
    return Realization(bg_module_datum(n, specs), depth, levi)


def bg_realization(n: int, t, depth: int) -> Realization:
    """The enlarged-Borel module of a tuple, as a one-dimensional induction."""
    return Realization(bg_datum(n, t), depth)


def verma_realization(
    n: int, label: Label, t, depth: int, layout: PBWLayout | None = None
) -> Realization:
    """The Verma module of a tuple; pass ``layout`` to share one between
    tuples of the same Borel and depth."""
    return Realization(verma_datum(n, label, t), depth, layout=layout)


def parabolic_IJ_levi(
    n: int, label1: Label, label2: Label, t, depth: int
) -> TensorLevi:
    """Levi module M^{label1}(t_I) ⊠ M^{label2}(t_J) for the first-pair
    parabolic, with both factors realized to the ambient depth."""
    t_i = (t[0], t[n])
    t_j = t[1:n] + t[n + 1 :]
    factor1 = RealizationFactor(
        Realization(verma_datum(1, normalize_label(label1, 1), t_i), depth),
        n,
        (1, n + 1),
    )
    factor2 = RealizationFactor(
        Realization(verma_datum(n - 1, normalize_label(label2, n - 1), t_j), depth),
        n,
        tuple(range(2, n + 1)) + tuple(range(n + 2, 2 * n + 1)),
    )
    return TensorLevi(n, [factor1, factor2])


def parabolic_IJ_datum(n: int, label1: Label, label2: Label, levi: TensorLevi) -> InductionDatum:
    """Datum for the parabolic with Levi gl(1|1) x gl(n-1|n-1) on the first
    coordinate pair, truncated by the star-product Borel's functional."""
    i_coords = {1, n + 1}
    j_coords = {c for c in range(1, 2 * n + 1) if c not in i_coords}
    u_roots = {(p, q) for p in i_coords for q in j_coords}
    levi_roots = frozenset(
        (p, q)
        for p in range(1, 2 * n + 1)
        for q in range(1, 2 * n + 1)
        if p != q
        and (
            (p in i_coords and q in i_coords)
            or (p in j_coords and q in j_coords)
        )
    )
    inducing = frozenset(u_roots) | levi_roots
    hw = levi.hw
    joined = star(1, normalize_label(label1, 1), n - 1, normalize_label(label2, n - 1))
    return InductionDatum(
        n=n,
        inducing_roots=inducing,
        hw=hw,
        parity_shift=0,
        heights=height_functional(n, joined),
        levi_roots=levi_roots,
    )


def parabolic_IJ_realization(
    n: int, label1: Label, label2: Label, t, depth: int
) -> Realization:
    levi = parabolic_IJ_levi(n, label1, label2, t, depth)
    return Realization(parabolic_IJ_datum(n, label1, label2, levi), depth, levi)


def gl11_simple_datum(a: int) -> InductionDatum:
    """The one-dimensional rank-1 module with matching tuple (a | a):
    everything induces, nothing lowers."""
    hw = from_tuple(1, (a, a), ())
    return InductionDatum(
        n=1,
        inducing_roots=frozenset({(1, 2), (2, 1)}),
        hw=hw,
        parity_shift=par(1, hw),
        heights=height_functional(1, ()),
    )
