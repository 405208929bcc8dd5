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
``(mu, alpha) = 0``, each map once, kept with its rank in the record that
the cosets and certificates read; every other cell of the valid region is
``(0, 0)`` without a matrix built.

The homology carries an action of the centralizer subalgebra spanned by
the units avoiding both index lines of ``alpha`` -- a copy of the general
linear superalgebra one size down.  This module computes:

* ``ds_homology``        -- per-weight coset representatives and dimensions;
* ``induced_action``     -- matrices of centralizer units on the homology;
* ``certify_verma_iso``  -- certificate that the homology is a double Verma
                            (census, then ranks modulo im e_alpha);
* ``certify_zero``       -- certificate that the homology vanishes;
* ``contraction_check``  -- the explicit contracting-homotopy identities on
                            the symmetric algebra of the abelian radical;
* ``ses_supercharacter_check`` -- six-term exactness constraints for the
                            homology of a short exact sequence.

All verdicts are relative to the truncation: ``CERTIFIED-TO-DEPTH`` means
every check passed on the complete region, ``REFUTED`` means an exact
mismatch was found (sound absolutely), ``INCONCLUSIVE`` means the region
was too shallow to decide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, product
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
from .modules import Realization, bg_module, bg_module_datum, form_values
from .superalgebra import Root, Unit, bracket, is_odd_root, root_weight
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

Vector = tuple[Fraction, ...]

CERTIFIED = "CERTIFIED-TO-DEPTH"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

_ZERO = Fraction(0)


class WeightClasses:
    """Homology data of one weight space, in offsets from the anchor: the
    kernel and image bases of the whole unit matrices and chosen cosets.

    Everything is anchor-free and parity-free: coordinate vectors over the
    layout's basis at ``offset`` and the echelon.  Views of one homology
    record share one object per offset of the slice.
    """

    def __init__(self, realization: Realization, offset: Weight, out_m, in_m):
        self.offset = offset
        self.basis = realization.layout.spaces[offset]
        self.kernel: list[Vector] = kernel_basis(out_m)
        self.image: list[Vector] = image_basis(in_m)
        # the image goes in untagged, so every representative accepted below
        # is independent modulo the image; tags count the representatives
        self._echelon = quotient_basis(len(self.basis), self.image)
        self.reps: list[Vector] = []
        want = len(self.kernel) - len(self.image)
        for k in self.kernel:
            if len(self.reps) == want:
                break
            if self._echelon.add(k, tag=len(self.reps)):
                self.reps.append(k)
        if len(self.reps) != want:
            raise AssertionError(f"homology at offset {offset}: image not inside the kernel")

    def coordinates(self, vector) -> Vector | None:
        """Class coordinates over the chosen cosets, or None outside the kernel."""
        return self._echelon.coordinates(vector, len(self.reps))

    def reduce(self, vector) -> Vector:
        """Class coordinates of a kernel vector over the chosen cosets."""
        coeffs = self.coordinates(vector)
        if coeffs is None:
            raise AssertionError(f"vector at offset {self.offset} is not a homology class")
        return coeffs


@dataclass(eq=False)
class _Homology:
    """The rank-one homology of ``alpha`` on one layout, in offsets from the
    anchor: the class count at every offset of the valid region, in order,
    its least nonzero ``(offset, count)``, each map of ``e_alpha`` its run
    ranked as ``(matrix, rank)`` by source offset, the forms that run read,
    the cosets by slice offset, and the doubled-Verma certificates by
    ``(target label, parity shift, anchor parity)``, each a list of
    ``(anchor, forms read, certificate)``.  The counts hold no parity, so
    views of either parity shift read one record.
    """

    cells: dict[Weight, int]
    first_nonzero: tuple | None
    maps: dict[Weight, tuple[SparseRationalMatrix, int]]
    reads: tuple
    classes: dict[Weight, WeightClasses] = field(default_factory=dict)
    certificates: dict[tuple, list] = field(default_factory=dict)


@dataclass
class DSResult:
    """Homology of one odd root action, valid on a stated depth region.

    Its class counts over the valid region, its cosets on the slice and its
    doubled-Verma certificates, all in offsets from the anchor, are one
    record on the source's layout, shared by every view of the same root
    and level at which the forms the record's run read take the same
    values; a view translates them by its own anchor and places each count
    at its own parity there.
    """

    source: Realization
    alpha: Root
    valid_depth: int
    _record: _Homology = field(repr=False)

    @cached_property
    def dim_table(self) -> dict[Weight, tuple[int, int]]:
        """The record's counts translated to the source's anchor and placed
        at its parities."""
        hw = self.source.datum.hw
        return {
            tuple(map(add, hw, off)): self._place(off, count)
            for off, count in self._record.cells.items()
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

    def total(self, weight: Weight) -> int:
        e, o = self.dims(weight)
        return e + o

    def support(self) -> list[Weight]:
        return sorted(w for w, d in self.dim_table.items() if d != (0, 0))

    def classes_at(self, weight: Weight) -> WeightClasses | None:
        """The kernels, images and cosets at ``weight``, or None off the
        module support, with the rank census checked against the coset
        census.  On the slice ``(weight, alpha) = 0`` they come from the two
        maps the record holds and are built once per record offset.  Off it
        the record does not fix the maps, so they are built from the source's
        own matrices on every call, and the census check confirms the zero
        by homotopy."""
        if not self.in_valid_region(weight):
            raise ValueError(f"weight {weight} is outside the valid region")
        m = self.source
        offset = sub_weights(weight, m.datum.hw)
        classes = self._record.classes.get(offset)
        if classes is None:
            layout = m.layout
            if not layout.spaces.get(offset):
                return None
            maps = self._record.maps
            src = _lowered(layout, self.alpha)[offset]
            if offset in maps:
                pair = maps[offset][0], maps[src][0]
            else:
                pair = (
                    m.unit_matrix(self.alpha, weight),
                    m.unit_matrix(self.alpha, tuple(map(add, m.datum.hw, src))),
                )
            classes = WeightClasses(m, offset, *pair)
            count = self._record.cells[offset]
            if len(classes.reps) != count:
                raise AssertionError(
                    f"rank census {count} and coset census {len(classes.reps)} "
                    f"disagree at offset {offset}"
                )
            if offset in maps:
                self._record.classes[offset] = classes
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
    ``(0, 0)``, zero by homotopy.  In offsets from the anchor the counts are
    a function of the maps around the slice.  A cold run builds and ranks
    each of them once into its record, kept on the layout under ``(alpha,
    level)`` with the anchor and the ``Affine`` forms of the entries it
    evaluated; every anchor of that level where those forms agree recalls
    it (:func:`_recall`) and places the counts at its own parities.  An
    empty slice leaves every count zero, so its anchors share one record
    under ``(alpha,)``.
    """
    n = m.datum.n
    if not is_odd_root(n, alpha):
        raise ValueError(f"{alpha} is not an odd root")
    if bracket(n, alpha, alpha):
        raise AssertionError(f"root vector of {alpha} does not square to zero")
    margin = abs(m.datum.xi(root_weight(n, alpha)))
    valid_depth = m.depth - margin
    hw = m.datum.hw
    layout = m.layout
    level = m.level(alpha)
    offsets = layout.slice_of(alpha, valid_depth, level)
    made = layout.homology.setdefault((alpha, level) if offsets else (alpha,), [])
    hit = _recall(made, hw)
    if hit is not None:
        return DSResult(m, alpha, valid_depth, hit[2])
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
    first = next(((off, count) for off, count in cells.items() if count), None)
    record = _Homology(cells, first, maps, tuple(sorted(reads)))
    made.append((hw, record.reads, record))
    return DSResult(m, alpha, valid_depth, record)


def _lowered(layout, alpha: Root) -> dict[Weight, Weight]:
    """``off -> off - alpha`` on the offsets of the layout: the shift of the
    opposite unit."""
    return layout.shift((alpha[1], alpha[0]))


def _recall(made: list, anchor: Weight) -> tuple | None:
    """The first ``(anchor made at, forms read, value)`` of ``made`` whose
    forms take at ``anchor`` the values they took where it was made."""
    for entry in made:
        made_at, forms, _value = entry
        if form_values(forms, made_at) == form_values(forms, anchor):
            return entry
    return None


def unfixed_read(result: DSResult, form) -> tuple | None:
    """The first form read by the record of ``result``, or by a certificate
    kept in it, that is not a rational multiple of the linear ``form`` (both
    as ``Affine.terms``); None when there is none.  Then every form they read
    takes one value at all anchors where ``form`` takes one value, so
    :func:`_recall` serves the record and its certificates at each of those
    anchors, with the numbers the anchor of ``result`` read."""
    record = result._record
    indices = [i for i, _c in form]
    _i, lead = form[0]
    kept = (forms for made in record.certificates.values() for _at, forms, _cert in made)
    for read in chain(record.reads, *kept):
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


def induced_action(result: DSResult, g: Unit) -> dict[Weight, SparseRationalMatrix]:
    """Matrices of a centralizer unit on homology classes, per source weight.

    Keys are source weights ``mu`` whose translate also lies in the valid
    region; the matrix sends class coordinates at ``mu`` to class
    coordinates at ``mu + root(g)``.  Well-definedness is asserted:
    the unit must commute with the differential, map kernels into kernels
    and images into images.
    """
    m = result.source
    n = m.datum.n
    i, j = canonical_odd_pair(n, result.alpha)
    if g[0] in (i, j) or g[1] in (i, j):
        raise ValueError(f"unit {g} touches the index lines of {result.alpha}")
    if bracket(n, g, result.alpha):
        raise AssertionError(f"unit {g} does not centralize e_{result.alpha}")
    rwg = root_weight(n, g)
    matrices: dict[Weight, SparseRationalMatrix] = {}
    for mu in sorted(result.dim_table):
        tgt = add_weights(mu, rwg)
        if not result.in_valid_region(tgt):
            continue
        wc = result.classes_at(mu)
        if wc is None:
            continue
        tgt_wc = result.classes_at(tgt)
        tgt_dim = 0 if tgt_wc is None else len(tgt_wc.reps)
        columns = []
        for vec in wc.reps:
            moved = _act_on_vector(m, g, wc.basis, vec)
            if tgt_wc is None:
                if moved:
                    raise AssertionError(
                        f"class at {mu} moved by {g} into an empty weight space"
                    )
                columns.append(())
                continue
            _assert_in_kernel(m, result.alpha, moved)
            full = _as_coordinates(m, moved, tgt_wc)
            columns.append(tgt_wc.reduce(full))
        _assert_image_stability(m, result, g, mu, tgt, wc, tgt_wc)
        entries = {}
        for c, col in enumerate(columns):
            for r, val in enumerate(col):
                if val:
                    entries[(r, c)] = val
        matrices[mu] = SparseRationalMatrix(tgt_dim, len(wc.reps), entries)
    return matrices


def _act_on_vector(m: Realization, unit: Unit, basis, vec) -> dict:
    expansion = {bv: c for bv, c in zip(basis, vec, strict=True) if c}
    return m.act_unit(unit, expansion)


def _as_coordinates(m: Realization, expansion: dict, wc: WeightClasses) -> Vector:
    index = m.layout.positions[wc.offset]
    out = [_ZERO] * len(index)
    for bv, c in expansion.items():
        out[index[bv]] = c
    return tuple(out)


def _assert_in_kernel(m: Realization, alpha: Root, expansion: dict) -> None:
    if m.act_unit(alpha, expansion):
        raise AssertionError("moved class left the kernel of the differential")


def _assert_image_stability(m, result, g, mu, tgt, wc, tgt_wc) -> None:
    for vec in wc.image:
        out = _act_on_vector(m, g, wc.basis, vec)
        if not out:
            continue
        if tgt_wc is None:
            raise AssertionError(f"image at {mu} moved by {g} into an empty space")
        coords = tgt_wc.coordinates(_as_coordinates(m, out, tgt_wc))
        if coords is None or any(coords):
            raise AssertionError(f"unit {g} does not preserve the image at {tgt}")


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
    checked = len(result._record.cells)
    first = result._record.first_nonzero
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

    In offsets from the anchor, these checks read the source's homology
    record, the parity shift that places its counts, the parity of the
    anchor, the target character (which does not depend on the target
    tuple) and the values at the anchor of the coefficients of the raising
    and lowering maps they apply.  Given the record, the shift, the parity
    and the target label, the checks are deterministic, so an anchor at
    which every linear form they read takes the same value runs the same
    branches on the same numbers.  Each certificate is therefore kept in the
    record with the anchor it was made at and the forms its run read, and
    recalled by the rule the record itself follows (:func:`_recall`), with
    every weight in its ``detail`` translated to the caller's anchor.
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
    for unit in _target_lowering_units(n, alpha, n - 1, target_label):
        if m.datum.root_cost(unit) <= 0:
            raise ValueError(
                f"the lowering unit {unit} of target Borel {target_label} "
                f"does not lower the module"
            )
    if result.valid_depth < 0:
        return Certificate(INCONCLUSIVE, 0, {"reason": "valid region is empty"})
    target_label = tuple(target_label)
    key = (target_label, m.datum.parity_shift % 2, par(n, anchor))
    made = result._record.certificates.setdefault(key, [])
    hit = _recall(made, anchor)
    if hit is not None:
        made_at, _forms, cert = hit
        return _translated(cert, sub_weights(anchor, made_at))
    reads: set = set()
    cert = _certify_verma_iso(result, target_label, target_tuple, reads)
    made.append((anchor, tuple(sorted(reads)), cert))
    return cert


def _translated(cert: Certificate, delta: Weight) -> Certificate:
    """The certificate with every weight of its detail moved by ``delta``."""
    detail = dict(cert.detail)
    if "weight" in detail:
        detail["weight"] = list(map(add, detail["weight"], delta))
    if "singular_weights" in detail:
        detail["singular_weights"] = [
            list(map(add, w, delta)) for w in detail["singular_weights"]
        ]
    return Certificate(cert.verdict, cert.checked_weights, detail)


def _certify_verma_iso(
    result: DSResult, target_label: Label, target_tuple, reads: set
) -> Certificate:
    """The checks of :func:`certify_verma_iso` on a nonempty valid region,
    in offsets from the anchor; the forms of the coefficients they evaluate
    are added to ``reads``.  Weights are formed only for a ``detail`` and
    for the cosets of the two anchor slots."""
    m = result.source
    n = m.datum.n
    alpha = result.alpha
    anchor = m.datum.hw
    layout = m.layout
    record = result._record
    cells = record.cells
    valid = result.valid_depth
    target_n = n - 1
    lowering_units = _target_lowering_units(n, alpha, target_n, target_label)
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
    # the slice ``B`` and its rank are the record's, recalled only where
    # their forms agree, so only the raising and lowering units add to
    # ``reads``; an offset the record does not hold raises ``KeyError``.
    down = _lowered(layout, alpha)

    def added(off: Weight, vectors) -> int:
        """The dimension of the span of the cycles ``vectors`` modulo ``B``."""
        incoming, boundary_rank = record.maps[down[off]]
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
        # through the public entry, so a span around it sees every coset
        wc = result.classes_at(tuple(map(add, anchor, off)))
        rep = {bv: c for bv, c in zip(wc.basis, wc.reps[0], strict=True) if c}
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
    module."""
    n = m.datum.n
    heights_t = height_functional(n - 1, target_label)
    ratio = 1
    for unit in lowering_units:
        amb_cost = m.datum.root_cost(unit)
        small = _shrink_unit(n, alpha, unit)
        t_cost = -sum(h * v for h, v in zip(heights_t, root_weight(n - 1, small), strict=True))
        ratio = max(ratio, (t_cost + amb_cost - 1) // amb_cost)
    return m.depth * ratio


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
    """Verify the induced centralizer matrices close under the superbracket.

    For each unit pair the supercommutator of the induced matrices must
    equal the induced matrix of the bracket, weight space by weight space
    (Cartan units act on a class by its weight coordinate).  Returns a
    report with the number of comparisons and any failures.
    """
    from .superalgebra import is_cartan, unit_parity

    m = result.source
    n = m.datum.n
    actions: dict[Unit, dict[Weight, SparseRationalMatrix]] = {}

    def act_of(u: Unit) -> dict[Weight, SparseRationalMatrix]:
        if u not in actions:
            actions[u] = induced_action(result, u)
        return actions[u]

    def matrix_at(u: Unit, mu: Weight) -> SparseRationalMatrix | None:
        if is_cartan(u):
            d = result.total(mu)
            return SparseRationalMatrix.identity(d).scale(mu[u[0] - 1])
        return act_of(u).get(mu)

    checked = 0
    failures = []
    for g1, g2 in pairs:
        sign = -1 if unit_parity(n, g1) and unit_parity(n, g2) else 1
        rw1 = root_weight(n, g1)
        rw2 = root_weight(n, g2)
        terms = bracket(n, g1, g2)
        for mu in sorted(result.dim_table):
            stops = [
                add_weights(mu, rw1),
                add_weights(mu, rw2),
                add_weights(add_weights(mu, rw1), rw2),
            ]
            if not all(result.in_valid_region(w) for w in stops):
                continue
            a2 = matrix_at(g2, mu)
            a1 = matrix_at(g1, mu)
            b1 = matrix_at(g1, add_weights(mu, rw2))
            b2 = matrix_at(g2, add_weights(mu, rw1))
            if a1 is None or a2 is None or b1 is None or b2 is None:
                continue
            lhs = (b1 @ a2) - (b2 @ a1).scale(sign)
            d_src = result.total(mu)
            d_tgt = lhs.nrows
            rhs = SparseRationalMatrix.zero(d_tgt, d_src)
            for unit, coef in terms:
                piece = matrix_at(unit, mu)
                if piece is None:
                    piece = SparseRationalMatrix.zero(d_tgt, d_src)
                rhs = rhs + piece.scale(coef)
            checked += 1
            if lhs != rhs:
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
        ranges = [
            range(2) if p else range(max_degree + 1) for p in self.parities
        ]
        for exps in product(*ranges):
            if sum(exps) <= max_degree:
                yield exps

    def check(self, max_degree: int) -> dict:
        # the composites reach each monomial's images many times: compute
        # every delta, h and s image once per check, and expand on them
        delta, h = cache(self.delta), cache(self.h)
        s = cache(lambda mono: _homotopy(h(mono), self.degree(mono)))
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
            expected = {mono: 1} if deg else {}
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


def _homotopy(h_image: dict, degree: int) -> dict:
    """Degree-normalized homotopy: s = D^{-1} h, zero on constants."""
    if degree == 0:
        return {}
    return {k: Fraction(v, degree) for k, v in h_image.items()}


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
