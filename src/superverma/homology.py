"""Rank-one homology of square-zero odd actions on truncated modules.

An odd root vector ``x = e_alpha`` with ``[x, x] = 0`` squares to zero on
every module, so ``ker x / im x`` is defined weight space by weight space.
On a truncated realization the homology at a weight ``mu`` is trustworthy
exactly when both maps into and out of ``mu`` are complete, i.e. when
``mu`` sits at least ``|xi(alpha)|`` above the truncation boundary.

With ``alpha = (i, n+j)`` and ``y = e_(n+j, i)``, the supercommutator
``xy + yx = e_ii + e_(n+j, n+j)`` acts on the weight ``mu`` by the invariant
form ``(mu, alpha)``.  Where that value is not zero, every kernel vector
``z`` is ``x(yz) / (mu, alpha)``, so the homology there is zero by homotopy
(Duflo--Serganova).  Ranks are therefore taken only on the slice
``(mu, alpha) = 0``, each map once, kept with its rank in the result that
the classes and certificates read; every other cell of the valid region is
``(0, 0)`` without a matrix built.  A result belongs to one realization:
nothing is shared between anchors here, and the forms in the anchor that a
run and its certificates read are kept so that a caller can tell at which
other anchors the same run would read the same numbers.

The homology carries an action of the centralizer subalgebra spanned by
the units avoiding both index lines of ``alpha`` -- a copy of the general
linear superalgebra one size down.  This module computes:

* ``ds_homology``        -- per-weight homology dimensions, from ranks; the
                            result's ``classes_at`` gives a weight's integer
                            kernel and image bases and class representatives;
* ``induced_action``     -- images of the class representatives under a
                            centralizer unit, checked to induce a map on
                            homology;
* ``certify_verma_iso``  -- certificate that the homology is a double Verma
                            (census, then ranks modulo im e_alpha);
* ``certify_zero``       -- certificate that the homology vanishes;
* ``contraction_check``  -- the explicit contracting-homotopy identities on
                            the symmetric algebra of the abelian radical,
                            in integers: through degree ``d`` the homotopy
                            ``D^{-1} h`` is scaled by ``lcm(1..d)``;
* ``ses_supercharacter_check`` -- six-term exactness constraints for the
                            homology of a short exact sequence.

All verdicts are relative to the truncation: ``CERTIFIED-TO-DEPTH`` means
every check passed on the complete region, ``REFUTED`` means an exact
mismatch was found (sound absolutely), ``INCONCLUSIVE`` means the region
was too shallow to decide.  The module holds no ``Fraction``: ranks and
classes come from the fraction-free elimination of ``linalg``, and the
contraction identities are checked in integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import lcm
from operator import add

from .borels import (
    Label,
    coordinate_positions,
    height_functional,
    label_of_sequence,
    positive_roots,
    sequence_of,
    simple_roots,
)
from .linalg import SparseRationalMatrix, image_basis, kernel_basis, quotient_basis, rank
from .modules import Realization, bg_module, bg_module_datum
from .superalgebra import Root, Unit, bracket, is_cartan, is_odd_root, root_weight, unit_parity
from .weights import (
    Character,
    Weight,
    add_weights,
    canonical_odd_pair,
    from_tuple,
    par,
    pr_alpha,
    sub_weights,
    verma_character,
)

CERTIFIED = "CERTIFIED-TO-DEPTH"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"


class WeightClasses:
    """Homology data of one weight space, in offsets from the anchor: the
    kernel (cycles) and image (boundaries) bases of the whole unit matrices,
    and the class representatives: the kernel vectors that, in order, are
    independent modulo the image.

    Everything is anchor-free and parity-free: sparse integer vectors over
    the layout's basis at ``offset``.
    """

    def __init__(self, realization: Realization, offset: Weight, out_m, in_m):
        self.offset = offset
        self.basis = realization.layout.spaces[offset]
        self.kernel = kernel_basis(out_m)
        self.image = image_basis(in_m)
        self.reps = quotient_basis(self.image, self.kernel)
        if len(self.reps) != len(self.kernel) - len(self.image):
            raise AssertionError(f"homology at offset {offset}: image not inside the kernel")


@dataclass(eq=False)
class DSResult:
    """Homology of one odd root action, valid on a stated depth region.

    In offsets from the anchor it holds the class count at every offset of
    the valid region, in order (``cells``), each map of ``e_alpha`` its run
    ranked, as ``(matrix, rank)`` by source offset (``maps``), and the
    classes built so far by offset.
    ``reads`` holds the ``Affine.terms`` of every anchor-dependent
    coefficient that the run and the certificates made from the result
    evaluated.  The counts hold no parity: :attr:`dim_table` translates them
    to the source's anchor and places each at the source's parity there.
    """

    source: Realization
    alpha: Root
    valid_depth: int
    cells: dict[Weight, int] = field(repr=False)
    maps: dict[Weight, tuple[SparseRationalMatrix, int]] = field(repr=False)
    reads: set = field(repr=False)
    classes: dict[Weight, WeightClasses] = field(default_factory=dict, repr=False)

    @cached_property
    def dim_table(self) -> dict[Weight, tuple[int, int]]:
        """The counts translated to the source's anchor and placed at its
        parities."""
        hw = self.source.datum.hw
        return {
            tuple(map(add, hw, off)): self._place(off, count)
            for off, count in self.cells.items()
        }

    def _place(self, offset: Weight, count: int) -> tuple[int, int]:
        """``(even, odd)`` of ``count`` classes at ``offset``, at the source's
        parity there: the raw parity of the layout flipped by the shift."""
        m = self.source
        parity = m.layout.parities[offset] ^ m.datum.parity_shift % 2
        return (0, count) if parity else (count, 0)

    @property
    def n(self) -> int:
        return self.source.datum.n

    def in_valid_region(self, weight: Weight) -> bool:
        return self.source.datum.depth_of(weight) <= self.valid_depth

    def dims(self, weight: Weight) -> tuple[int, int]:
        return self.dim_table.get(weight, (0, 0))

    def support(self) -> list[Weight]:
        return sorted(w for w, d in self.dim_table.items() if d != (0, 0))

    def classes_at(self, weight: Weight) -> WeightClasses | None:
        """The kernels, images and classes at ``weight``, or None off the
        module support, built once per offset from the maps of ``e_alpha``
        out of and into it, with the rank census checked against the class
        census.  A map the homology run ranked is read from ``maps``, any
        other is built at the source's anchor; off the slice ``(weight,
        alpha) = 0`` the census check confirms the zero by homotopy."""
        if not self.in_valid_region(weight):
            raise ValueError(f"weight {weight} is outside the valid region")
        m = self.source
        hw = m.datum.hw
        offset = sub_weights(weight, hw)
        classes = self.classes.get(offset)
        if classes is None:
            if not m.layout.spaces.get(offset):
                return None
            pair = [
                self.maps[s][0] if s in self.maps else m.unit_matrix(self.alpha, add_weights(hw, s))
                for s in (offset, _lowered(m.layout, self.alpha)[offset])
            ]
            classes = self.classes[offset] = WeightClasses(m, offset, *pair)
            count = self.cells[offset]
            if len(classes.reps) != count:
                raise AssertionError(
                    f"rank census {count} and class census {len(classes.reps)} "
                    f"disagree at offset {offset}"
                )
        return classes

    def to_json(self) -> str:
        datum = self.source.datum
        doc = {
            "alpha": list(self.alpha),
            "valid_region": {
                "top": list(datum.hw),
                "heights": list(datum.heights),
                "depth": self.valid_depth,
            },
            "classes": [
                {"weight": list(w), "even": e, "odd": o}
                for w, (e, o) in sorted(self.dim_table.items())
                if (e, o) != (0, 0)
            ],
        }
        return json.dumps(doc, sort_keys=True)


def ds_homology(m: Realization, alpha: Root) -> DSResult:
    """Kernel-mod-image dimensions of ``e_alpha`` on every trustworthy weight.

    ``alpha`` must be an odd root, so its root vector squares to zero.  The
    valid region keeps a margin of ``|xi(alpha)|`` above the truncation
    boundary so that both the outgoing and the incoming map at each counted
    weight are complete.  The table lists a cell for every offset of the
    valid region: on the slice ``(mu, alpha) = 0`` it comes from the ranks
    of the maps of ``e_alpha`` at the anchor, and everywhere else it is
    ``(0, 0)``, zero by homotopy.  Each map around the slice is built and
    ranked once, kept in the result with its rank, and the ``Affine`` forms
    of the entries it evaluated go into the result's ``reads``: in offsets
    from the anchor the counts are a function of those maps.
    """
    n = m.datum.n
    if not is_odd_root(n, alpha):
        raise ValueError(f"{alpha} is not an odd root")
    if bracket(n, alpha, alpha):
        raise AssertionError(f"root vector of {alpha} does not square to zero")
    layout = m.layout
    valid_depth = m.depth - layout.margin(alpha)
    hw = m.datum.hw
    offsets = layout.slice_of(alpha, valid_depth, m.level(alpha))
    # off the slice every count is zero by homotopy
    cells = dict.fromkeys(layout.valid_offsets(valid_depth), 0)
    # the map into ``off`` is the map out of ``off - alpha``, which lies on
    # the same level as (alpha, alpha) = 0; each map is built and ranked once
    down = _lowered(layout, alpha)
    reads: set = set()
    maps = {}
    for s in {s for off in offsets for s in (off, down[off])}:
        matrix = layout.matrix_at(alpha, s, hw, reads)
        maps[s] = (matrix, rank(matrix))
    for off in offsets:
        # the kernel of the outgoing map modulo the image of the incoming
        count = len(layout.spaces[off]) - maps[off][1] - maps[down[off]][1]
        if count < 0:
            raise AssertionError(f"negative homology dimension at {add_weights(hw, off)}: {count}")
        cells[off] = count
    return DSResult(m, alpha, valid_depth, cells, maps, reads)


def _lowered(layout, alpha: Root) -> dict[Weight, Weight]:
    """``off -> off - alpha`` on the offsets of the layout: the shift of the
    opposite unit."""
    return layout.shift((alpha[1], alpha[0]))


def parity_cancels(m: Realization) -> bool:
    """Whether the anchor parity cancels from the census of
    :func:`certify_verma_iso` on the layout of ``m``: every offset's raw
    parity is the parity of its delta sum (checked once per layout), and the
    parity shift of ``m`` is ``par(n, hw)``.  Then each count and the target
    total it is compared with sit at one parity, whatever the anchor's, so a
    verdict other than ``REFUTED``, of the census or of :func:`certify_zero`,
    reads no parity and holds at anchors of either parity."""
    datum = m.datum
    return m.layout.parities_follow_deltas and datum.parity_shift % 2 == par(datum.n, datum.hw)


def unfixed_read(result: DSResult, form) -> tuple | None:
    """A form of ``result.reads``, read by the homology run or by a
    certificate made from it, that is not a rational multiple of the linear
    ``form`` (both as ``Affine.terms``); None when there is none.  Then every
    form they read takes one value at all anchors where ``form`` takes one
    value, so at each of those anchors the same run and certificates read
    the numbers that the anchor of ``result`` read."""
    indices = [i for i, _c in form]
    _i, lead = form[0]
    for read in result.reads:
        if [i for i, _c in read] != indices or any(
            c * lead != d * read[0][1] for (_i, c), (_j, d) in zip(read, form)
        ):
            return read
    return None


# ---------------------------------------------------------------------------
# The centralizer action on homology.


def surviving_indices(n: int, alpha: Root) -> tuple[int, ...]:
    """Ambient indices of the rank-(n-1) subalgebra centralizing e_alpha."""
    i, j = canonical_odd_pair(n, alpha)
    return tuple(t for t in range(1, 2 * n + 1) if t not in (i, j))


def lift_unit(n: int, alpha: Root, small: Unit) -> Unit:
    """Embed a unit of the rank-(n-1) subalgebra into ambient indices."""
    emb = surviving_indices(n, alpha)
    return (emb[small[0] - 1], emb[small[1] - 1])


def ds_borel_label(n: int, label: Label, alpha: Root) -> Label:
    """Label of the Borel the centralizer inherits: delete the two letters
    of the odd root from the epsilon/delta sequence."""
    i, j = canonical_odd_pair(n, alpha)
    positions = coordinate_positions(n, label)
    drop = {positions[i - 1], positions[j - 1]}
    seq = sequence_of(n, label)
    kept = "".join(ch for p, ch in enumerate(seq, start=1) if p not in drop)
    return label_of_sequence(n - 1, kept)


def induced_action(result: DSResult, g: Unit) -> dict[Weight, list[dict]]:
    """Images of the class representatives under a centralizer unit, per
    source weight.

    Keys are source weights ``mu`` with a basis whose translate by the root
    of ``g`` also lies in the valid region; each value lists the images of
    the representatives at ``mu``, in order, as expansions over the basis
    at the translate.  That the unit induces a map on homology is asserted:
    it must commute with the differential, keep every image a cycle and
    send the boundaries at ``mu`` into the boundaries at the translate,
    by ranks.
    """
    m = result.source
    n = m.datum.n
    i, j = canonical_odd_pair(n, result.alpha)
    if g[0] in (i, j) or g[1] in (i, j):
        raise ValueError(f"unit {g} touches the index lines of {result.alpha}")
    if bracket(n, g, result.alpha):
        raise AssertionError(f"unit {g} does not centralize e_{result.alpha}")
    rwg = root_weight(n, g)
    images: dict[Weight, list[dict]] = {}
    for mu in sorted(result.dim_table):
        tgt = add_weights(mu, rwg)
        if not result.in_valid_region(tgt):
            continue
        wc = result.classes_at(mu)
        if wc is None:
            continue
        moved = [m.act_unit(g, _expansion(wc, rep)) for rep in wc.reps]
        for vec in moved:
            _assert_in_kernel(m, result.alpha, vec)
        boundaries = [m.act_unit(g, _expansion(wc, vec)) for vec in wc.image]
        if not _in_boundaries(m, result.classes_at(tgt), boundaries):
            raise AssertionError(f"unit {g} does not preserve the image at {tgt}")
        images[mu] = moved
    return images


def _expansion(wc: WeightClasses, vector: dict) -> dict:
    """A sparse vector over the basis of ``wc`` as basis-vector terms."""
    basis = wc.basis
    return {basis[i]: c for i, c in vector.items()}


def _in_boundaries(m: Realization, wc: WeightClasses | None, vectors) -> bool:
    """Whether the expansions ``vectors`` at the weight of ``wc`` are all
    boundaries there: ``rank [B | vectors] = rank B``."""
    vectors = [vec for vec in vectors if vec]
    if not vectors or wc is None:
        return not vectors
    index = m.layout.positions[wc.offset]
    columns = [{index[bv]: c for bv, c in vec.items()} for vec in vectors]
    return not quotient_basis(wc.image, columns)


def _assert_in_kernel(m: Realization, alpha: Root, expansion: dict) -> None:
    if m.act_unit(alpha, expansion):
        raise AssertionError("moved class left the kernel of the differential")


# ---------------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True)
class Certificate:
    verdict: str
    checked_weights: int
    detail: dict

    @property
    def ok(self) -> bool:
        return self.verdict == CERTIFIED


def certify_zero(result: DSResult) -> Certificate:
    """Certificate that the homology vanishes on the valid region; a
    refutation names the least weight with nonzero homology."""
    if result.valid_depth < 0:
        return Certificate(INCONCLUSIVE, 0, {"reason": "valid region is empty"})
    checked = len(result.cells)
    first = next(((off, count) for off, count in result.cells.items() if count), None)
    if first is None:
        return Certificate(CERTIFIED, checked, {})
    off, count = first
    weight = list(map(add, result.source.datum.hw, off))
    dims = list(result._place(off, count))
    return Certificate(REFUTED, checked, {"weight": weight, "dims": dims})


def certify_verma_iso(result: DSResult, target_label: Label, target_tuple) -> Certificate:
    """Certificate that the homology is a double Verma one size down.

    Checks, on the whole valid region:

    1. census -- each weight holds exactly the target Verma dimension at the
       weight's own parity, on the two translation slots of the anchor, and
       nothing anywhere else;
    2. singular classes -- each anchor slot holds one class ``v``, and every
       raising unit ``u`` of the inherited Borel has ``rank [B | uv] = rank B``
       for the boundaries ``B = im e_alpha``;
    3. freeness -- at every weight, the images of ``v`` under the PBW
       monomials in the lowering units add the target Verma dimension to
       ``rank B``.

    In offsets from the anchor, these checks read the counts and maps of
    ``result``, the parity shift that places its counts, the parity of the
    anchor, the target character (which does not depend on the target
    tuple) and the values at the anchor of the coefficients of the raising
    and lowering maps they apply.  The forms of those coefficients go into
    ``result.reads``, beside those of the homology run, so
    :func:`unfixed_read` sees every form the verdict read.  Weights are
    formed only for a ``detail`` and for the classes of the two anchor slots.
    """
    m = result.source
    n = m.datum.n
    alpha = result.alpha
    anchor = m.datum.hw
    target_hw = from_tuple(n - 1, tuple(target_tuple), target_label)
    if target_hw != pr_alpha(n, anchor, alpha):
        raise ValueError(
            f"target highest weight {target_hw} is not the projected anchor "
            f"{pr_alpha(n, anchor, alpha)}"
        )
    target_n = n - 1
    lowering_units = _target_lowering_units(n, alpha, target_n, target_label)
    for unit in lowering_units:
        if m.datum.root_cost(unit) <= 0:
            raise ValueError(
                f"the lowering unit {unit} of target Borel {target_label} "
                f"does not lower the module"
            )
    if result.valid_depth < 0:
        return Certificate(INCONCLUSIVE, 0, {"reason": "valid region is empty"})
    target_label = tuple(target_label)
    layout = m.layout
    cells = result.cells
    reads = result.reads
    valid = result.valid_depth
    depth_t = _target_depth(m, alpha, target_label, lowering_units)
    totals = _target_totals(layout, target_label, depth_t, target_tuple)
    heights_t = height_functional(target_n, target_label)
    # the slot of an offset is how far it moved along alpha; the target sees
    # the other coordinates
    r1, r2 = alpha[0] - 1, alpha[1] - 1
    kept = [t - 1 for t in surviving_indices(n, alpha)]
    heights = layout.heights
    along = heights[r1] - heights[r2]

    # 1. census over every offset of the valid region: the module's, and the
    # lifts of the target's to the two slots, which need a basis there.
    lifts = set()
    for nu in totals:
        cost = -sum(heights[t] * v for t, v in zip(kept, nu))
        for s in (0, -1):
            if cost - s * along <= valid:
                off = [0] * (2 * n)
                off[r1], off[r2] = s, -s
                for t, v in zip(kept, nu):
                    off[t] = v
                lifts.add(tuple(off))
    anchor_parity = par(n, anchor)
    slots: dict[int, list] = {0: [], -1: []}
    checked = 0
    for off in sorted(lifts.union(cells)):
        s = off[r1]
        expected_total = 0
        if s in (0, -1) and off[r2] == -s:
            nu = tuple(off[t] for t in kept)
            expected_total = totals.get(nu)
            if expected_total is None:
                if -sum(h * v for h, v in zip(heights_t, nu)) > depth_t:
                    return Certificate(
                        INCONCLUSIVE,
                        checked,
                        {"reason": "target character shallower than the valid region"},
                    )
                expected_total = 0
            slots[s].append((off, expected_total))
        count = cells.get(off, 0)
        if count or expected_total:
            dims = result._place(off, count) if count else (0, 0)
            odd = (anchor_parity + sum(off[n:])) % 2
            expected = (0, expected_total) if odd else (expected_total, 0)
            if dims != expected:
                return Certificate(
                    REFUTED,
                    checked,
                    {
                        "weight": list(map(add, anchor, off)),
                        "dims": list(dims),
                        "expected": list(expected),
                    },
                )
        checked += 1

    # Steps 2 and 3 are ranks modulo the boundaries ``B = im e_alpha``.  On
    # the slice ``B`` and its rank are the result's, whose forms are in
    # ``reads`` already, so only the raising and lowering units add to them;
    # an offset the result does not hold raises ``KeyError``.
    down = _lowered(layout, alpha)

    def added(off: Weight, vectors) -> int:
        """The dimension of the span of the cycles ``vectors`` modulo ``B``."""
        incoming, boundary_rank = result.maps[down[off]]
        index = layout.positions[off]
        entries = dict(incoming.entries)
        for col, vec in enumerate(vectors, start=incoming.ncols):
            _assert_in_kernel(m, alpha, vec)
            entries.update(((index[bv], col), c) for bv, c in vec.items())
        stacked = SparseRationalMatrix(incoming.nrows, incoming.ncols + len(vectors), entries)
        return rank(stacked) - boundary_rank

    # 2. singular classes on the two anchor slots.  The census passed, so a
    # slot inside the valid region holds exactly one class: the target's top
    # has multiplicity one.  Every raising unit is the opposite of a lowering
    # unit, which costs depth, so its target lies above the slot and inside
    # the valid region.
    singular: dict[int, tuple[Weight, dict]] = {}
    for s in (0, -1):
        off = tuple(s * c for c in root_weight(n, alpha))
        if layout.cost(off) > valid:
            return Certificate(
                INCONCLUSIVE,
                checked,
                {"reason": f"anchor slot {s} outside the valid region"},
            )
        # through the public entry, so a span around it sees every class
        # built; the class is integer, so its actions and the stacked ranks
        # stay in ``int``
        wc = result.classes_at(tuple(map(add, anchor, off)))
        rep = _expansion(wc, wc.reps[0])
        singular[s] = (off, rep)
        for beta in simple_roots(target_n, target_label):
            unit = lift_unit(n, alpha, beta)
            moved = m.act_unit(unit, rep, reads)
            if moved and added(layout.shift(unit)[off], [moved]):
                return Certificate(
                    REFUTED,
                    checked,
                    {
                        "weight": list(map(add, anchor, off)),
                        "raising": list(unit),
                        "reason": "anchor class is not singular",
                    },
                )

    # 3. freeness from each anchor class ``v``: PBW monomials in the lowering
    # units span ``U(n^-) v`` and lifted units preserve ``B``, so their images
    # at an offset add to ``B`` the dimension ``v`` generates there.  Each
    # monomial is its first unit applied to one that starts no later.
    lowering = [(unit, layout.shift(unit)) for unit in lowering_units]
    costs = layout.costs
    for s, (off0, rep) in singular.items():
        images = {off0: [rep]}
        monomials = [(len(lowering), off0, rep)]
        while monomials:
            first, w, vec = monomials.pop()
            for k, (unit, shift) in enumerate(lowering[: first + 1]):
                w2 = shift[w]
                # an offset with no basis holds no image
                if costs.get(w2, valid + 1) > valid:
                    continue
                moved = m.act_unit(unit, vec, reads)
                if moved:
                    images.setdefault(w2, []).append(moved)
                    monomials.append((k, w2, moved))
        for off, expected in slots[s]:
            got = added(off, images[off]) if off in images else 0
            if got != expected:
                return Certificate(
                    REFUTED,
                    checked,
                    {
                        "weight": list(map(add, anchor, off)),
                        "slot": s,
                        "generated": got,
                        "expected": expected,
                        "reason": "lowering units do not generate a free module",
                    },
                )
    return Certificate(
        CERTIFIED,
        checked,
        {"singular_weights": [list(map(add, anchor, singular[s][0])) for s in (0, -1)]},
    )


def _target_depth(m: Realization, alpha: Root, target_label: Label, lowering_units) -> int:
    """The depth of the target character that covers the valid region: a
    lowering unit costs the target at most ``ratio`` times what it costs the
    module.  It does not depend on the anchor, so it is kept on the layout
    per root and label, beside the target totals."""
    key = (alpha, target_label)
    depth = m.layout.targets.get(key)
    if depth is None:
        n = m.datum.n
        heights_t = height_functional(n - 1, target_label)
        ratio = 1
        for unit in lowering_units:
            amb_cost = m.datum.root_cost(unit)
            small = _shrink_unit(n, alpha, unit)
            t_cost = -sum(h * v for h, v in zip(heights_t, root_weight(n - 1, small), strict=True))
            ratio = max(ratio, (t_cost + amb_cost - 1) // amb_cost)
        depth = m.layout.targets[key] = m.depth * ratio
    return depth


def _target_totals(layout, target_label: Label, depth: int, target_tuple) -> dict[Weight, int]:
    """The totals of the target Verma character to ``depth``, in offsets from
    its top.  They do not depend on the target tuple, so they are kept on the
    layout per label and depth."""
    key = (target_label, depth)
    totals = layout.targets.get(key)
    if totals is None:
        char = verma_character(layout.n - 1, target_label, tuple(target_tuple), depth)
        totals = {sub_weights(w, char.top): e + o for w, (e, o) in char.table.items()}
        layout.targets[key] = totals
    return totals


def _shrink_unit(n: int, alpha: Root, unit: Unit) -> Unit:
    emb = surviving_indices(n, alpha)
    back = {t: k + 1 for k, t in enumerate(emb)}
    return (back[unit[0]], back[unit[1]])


def _target_lowering_units(n, alpha, target_n, target_label) -> list[Unit]:
    return [
        lift_unit(n, alpha, (r[1], r[0]))
        for r in sorted(positive_roots(target_n, target_label))
    ]


def induced_bracket_check(result: DSResult, pairs) -> dict:
    """Verify that the induced centralizer action closes under the
    superbracket.

    For each unit pair ``(g1, g2)`` and each weight ``mu`` where both units
    act on homology at every step (a Cartan unit acts everywhere, by the
    weight coordinate; any other unit where the module has a basis), every
    class ``v`` at ``mu`` must have ``g1(g2 v) -+ g2(g1 v) - [g1, g2] v``
    among the boundaries ``B`` at ``mu + root(g1) + root(g2)``:
    ``rank [B | ...] = rank B``.  The inner actions are the induced ones.
    Returns a report with the number of ``(pair, mu)`` comparisons, counted
    only where ``mu`` holds a class, and any failures.
    """
    m = result.source
    n = m.datum.n
    actions: dict[Unit, dict[Weight, list[dict]]] = {}

    def act_of(u: Unit) -> dict[Weight, list[dict]]:
        if u not in actions:
            actions[u] = induced_action(result, u)
        return actions[u]

    def acts(u: Unit, mu: Weight) -> bool:
        return is_cartan(u) or mu in act_of(u)

    checked = 0
    failures = []
    for g1, g2 in pairs:
        sign = -1 if unit_parity(n, g1) and unit_parity(n, g2) else 1
        rw1 = root_weight(n, g1)
        rw2 = root_weight(n, g2)
        terms = bracket(n, g1, g2)
        for mu in sorted(result.dim_table):
            up1, up2 = add_weights(mu, rw1), add_weights(mu, rw2)
            top = add_weights(up1, rw2)
            if not all(result.in_valid_region(w) for w in (up1, up2, top)):
                continue
            if not (acts(g1, mu) and acts(g2, mu) and acts(g1, up2) and acts(g2, up1)):
                continue
            wc = result.classes_at(mu)
            if wc is None or not wc.reps:
                continue
            checked += 1
            defects = []
            for k in range(len(wc.reps)):
                defect = m.act_unit(g1, act_of(g2)[mu][k])
                parts = [(m.act_unit(g2, act_of(g1)[mu][k]), -sign)]
                parts += [(act_of(unit)[mu][k], -coef) for unit, coef in terms]
                for vec, coef in parts:
                    for bv, c in vec.items():
                        defect[bv] = defect.get(bv, 0) + coef * c
                defects.append({bv: c for bv, c in defect.items() if c})
            if not _in_boundaries(m, result.classes_at(top), defects):
                failures.append({"pair": [list(g1), list(g2)], "weight": list(mu)})
    return {"checked": checked, "ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# Tensor-factor expectation.


def gl11_ds_table(kind: str, a: int, b: int) -> dict[Weight, tuple[int, int]]:
    """Closed rank-one homology table of the three gl(1|1) factor kinds.

    Weights are ambient pairs (eps coefficient, delta coefficient); the
    parity at each weight follows the weight-parity convention.
    """
    if kind == "simple":
        if a != b:
            raise ValueError("simple factors require a matched pair")
        w = (a, -a)
        return {w: ((1, 0) if a % 2 == 0 else (0, 1))}
    if kind == "verma_eps":
        if a != b:
            return {}
        top = (a, -a)
        low = (a - 1, -(a - 1))
        return {
            top: (1, 0) if a % 2 == 0 else (0, 1),
            low: (0, 1) if a % 2 == 0 else (1, 0),
        }
    if kind == "verma_delta":
        return {}
    raise ValueError(f"unknown factor kind {kind!r}")


def ds_tensor_factor(n: int, specs, depth: int) -> Character:
    """Expected homology census of a degree-zero induced module: the closed
    rank-one table of the first diagonal factor, tensored with the census of
    the same construction one size down."""
    kind, a, b = specs[0]
    first = gl11_ds_table(kind, a, b)
    datum = bg_module_datum(n, specs)
    heights = datum.heights
    margin = abs(sum(h * v for h, v in zip(heights, root_weight(n, (1, n + 1)), strict=True)))
    valid = depth - margin
    rest = bg_module(n - 1, specs[1:], depth).census()
    table: dict[Weight, tuple[int, int]] = {}
    top = datum.hw
    for (w1, wn1), (e1, o1) in first.items():
        for nu, (er, orr) in rest.table.items():
            mu = (w1, *nu[: n - 1], wn1, *nu[n - 1 :])
            if datum.depth_of(mu) > valid:
                continue
            total = (e1 + o1) * (er + orr)
            cur = table.get(mu, (0, 0))
            if par(n, mu) == 0:
                table[mu] = (cur[0] + total, cur[1])
            else:
                table[mu] = (cur[0], cur[1] + total)
    return Character(n, top, heights, valid, table)


# ---------------------------------------------------------------------------
# Six-term constraints for short exact sequences.


def projected_ds_census(result: DSResult) -> tuple[dict, set]:
    """Homology dimensions summed over the two deleted coordinates.

    The maps of the six-term homology sequence commute with the centralizer
    but the connecting homomorphisms shift the two index lines of alpha, so
    six-term bookkeeping only makes sense after projecting those away.
    Returns ``(dims, incomplete)`` where ``dims`` maps projected weights to
    (even, odd) totals and ``incomplete`` is the set of projected weights
    with at least one module-support lift outside the valid region.
    """
    n = result.n
    alpha = result.alpha
    dims: dict[tuple, list[int]] = {}
    incomplete: set = set()
    for mu in result.source.weight_spaces:
        nu = pr_alpha(n, mu, alpha)
        if result.source.datum.depth_of(mu) > result.valid_depth:
            incomplete.add(nu)
            continue
        e, o = result.dims(mu)
        if e or o:
            cur = dims.setdefault(nu, [0, 0])
            cur[0] += e
            cur[1] += o
    return {nu: (d[0], d[1]) for nu, d in dims.items()}, incomplete


def ses_supercharacter_check(
    sub: DSResult, mid: DSResult, quot: DSResult
) -> dict:
    """Census constraints the six-term homology sequence must satisfy.

    Requires the source censuses to be exact per weight and parity on their
    common complete region; then, at projected-weight granularity on the
    common complete region of the three homology results, checks
    supercharacter additivity and computes the per-weight slack dimension
    (the error module of middle exactness).
    """
    cs = sub.source.census()
    cm = mid.source.census()
    cq = quot.source.census()
    for w in cm.common_complete_support(cs, cq):
        se, so = cs.dims(w)
        me, mo = cm.dims(w)
        qe, qo = cq.dims(w)
        if (se + qe, so + qo) != (me, mo):
            raise ValueError(
                f"source censuses are not exact at {w}: "
                f"{(se, so)} + {(qe, qo)} != {(me, mo)}"
            )
    parts = [projected_ds_census(r) for r in (sub, mid, quot)]
    excluded = parts[0][1] | parts[1][1] | parts[2][1]
    common = sorted(
        nu
        for nu in set(parts[0][0]) | set(parts[1][0]) | set(parts[2][0])
        if nu not in excluded
    )
    failures = []
    slack: dict[tuple, int] = {}
    for nu in common:
        se, so = parts[0][0].get(nu, (0, 0))
        me, mo = parts[1][0].get(nu, (0, 0))
        qe, qo = parts[2][0].get(nu, (0, 0))
        if (se - so) + (qe - qo) != (me - mo):
            failures.append({"weight": list(nu), "kind": "supercharacter"})
            continue
        excess = (se + so) + (qe + qo) - (me + mo)
        if excess < 0 or excess % 2:
            failures.append({"weight": list(nu), "kind": "slack", "excess": excess})
            continue
        if excess:
            slack[nu] = excess // 2
    return {
        "ok": not failures,
        "weights_checked": len(common),
        "failures": failures,
        "slack": [[list(nu), k] for nu, k in sorted(slack.items())],
    }


# ---------------------------------------------------------------------------
# The contracting homotopy on the abelian radical.


class ContractionComplex:
    """Supercommutative algebra on the abelian radical of the index-split
    parabolic, with the explicit square-zero derivation and its homotopy.

    Generators are the units ``(i, 1)`` and ``(i, n+1)`` for every index
    ``i`` outside ``{1, n+1}``, in that block order; monomials are exponent
    tuples (odd generators at most once).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need rank at least 2")
        self.n = n
        inner = [*range(2, n + 1), *range(n + 2, 2 * n + 1)]
        self.units: tuple[Unit, ...] = tuple(
            [(i, 1) for i in inner] + [(i, n + 1) for i in inner]
        )
        m = len(inner)
        self._m = m
        row_parity = [0 if i <= n else 1 for i in inner]
        self.parities: tuple[int, ...] = tuple(
            row_parity + [(p + 1) % 2 for p in row_parity]
        )
        sign = [1 if p else -1 for p in row_parity]
        self._delta_images = {k: [(m + k, sign[k])] for k in range(m)}
        self._h_images = {m + k: [(k, sign[k])] for k in range(m)}

    def degree(self, mono) -> int:
        return sum(mono)

    def delta(self, mono) -> dict:
        """The square-zero odd derivation (bracket with the distinguished
        odd unit, transported to the symmetric algebra)."""
        return _derive(self.parities, self._delta_images, mono)

    def h(self, mono) -> dict:
        """The odd superderivation pairing with delta to the degree map."""
        return _derive(self.parities, self._h_images, mono)

    def monomials(self, max_degree: int):
        """Exponent tuples of degree at most ``max_degree`` in lexicographic
        order: the walk gives each position at most the degree left, and an
        odd generator at most once."""
        tops = [1 if p else max_degree for p in self.parities]
        k = len(tops)

        def walk(i: int, prefix: tuple, left: int):
            if i == k:
                yield prefix
                return
            for e in range(min(tops[i], left) + 1):
                yield from walk(i + 1, (*prefix, e), left - e)

        yield from walk(0, (), max_degree)

    def check(self, max_degree: int) -> dict:
        # the composites reach each monomial's images many times: compute
        # every delta, h and s image once per check, and expand on them; s is
        # the homotopy scaled by lcm(1..max_degree), so it stays integral
        scale = lcm(*range(1, max_degree + 1))
        delta, h = cache(self.delta), cache(self.h)
        s = cache(lambda mono: _homotopy(h(mono), self.degree(mono), scale))
        failures = []
        count = 0
        for mono in self.monomials(max_degree):
            count += 1
            deg = self.degree(mono)
            lhs = _combine(delta, h, mono)
            if lhs != ({mono: deg} if deg else {}):
                failures.append({"identity": "delta*h + h*delta = D", "monomial": mono})
                continue
            lhs = _combine(delta, s, mono)
            expected = {mono: scale} if deg else {}
            if lhs != expected:
                failures.append(
                    {"identity": "delta*s + s*delta = id - pi", "monomial": mono}
                )
        return {
            "n": self.n,
            "max_degree": max_degree,
            "monomials": count,
            "ok": not failures,
            "failures": failures,
        }


def _derive(parities, images, mono) -> dict:
    out: dict[tuple, int] = {}
    prefix = 0
    for j, a in enumerate(mono):
        if a:
            img = images.get(j)
            if img is not None:
                for y, c in img:
                    coeff = a * c
                    if prefix:
                        coeff = -coeff
                    base = list(mono)
                    base[j] -= 1
                    if parities[y]:
                        if y > j:
                            crossed = sum(base[t] * parities[t] for t in range(j + 1, y))
                        else:
                            crossed = base[j] * parities[j] + sum(
                                base[t] * parities[t] for t in range(y + 1, j)
                            )
                        if crossed % 2:
                            coeff = -coeff
                        if base[y]:
                            continue
                    base[y] += 1
                    key = tuple(base)
                    new = out.get(key, 0) + coeff
                    if new:
                        out[key] = new
                    else:
                        out.pop(key, None)
            prefix = (prefix + a * parities[j]) % 2
    return out


def _homotopy(h_image: dict, degree: int, scale: int) -> dict:
    """Scaled degree-normalized homotopy: ``scale * D^{-1} h``, zero on
    constants.  ``h`` keeps the degree, so this is exact exactly when
    ``degree`` divides ``scale``; anything else is refused, never floored."""
    if degree == 0:
        return {}
    if scale % degree:
        raise AssertionError(f"degree {degree} does not divide the scale {scale}")
    factor = scale // degree
    return {k: v * factor for k, v in h_image.items()}


def _combine(first, second, mono) -> dict:
    """first(second(mono)) + second(first(mono)) on monomial expansions."""
    out: dict = {}
    for f, g in ((first, second), (second, first)):
        for key, c in g(mono).items():
            for key2, c2 in f(key).items():
                new = out.get(key2, 0) + c * c2
                if new:
                    out[key2] = new
                else:
                    out.pop(key2, None)
    return out


def contraction_check(n: int, max_degree: int) -> dict:
    """Verify the contracting-homotopy identities degree by degree."""
    return ContractionComplex(n).check(max_degree)
