"""Independent oracles the tests compare the library against.

They recompute by brute force what the library obtains another way, or
transform its inputs for a metamorphic check, so they live with the tests and
nothing in ``superverma`` depends on them.
"""

from __future__ import annotations

from fractions import Fraction

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
    _ZERO,
    _as_coordinates,
    _shrink_unit,
    _target_lowering_units,
    lift_unit,
    surviving_indices,
)
from superverma.linalg import Echelon, SparseRationalMatrix, image_basis, kernel_basis, rank
from superverma.modules import PBWLayout, Realization
from superverma.superalgebra import Root, Unit, Weight, bracket, is_odd_root, root_weight
from superverma.weights import add_weights, par, pr_alpha, sub_weights, verma_character


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
            out.append((parity, {basis[cols[i]]: v for i, v in enumerate(kvec) if v}))
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
            full = [Fraction(0)] * len(basis)
            for val, c in zip(vec, cols, strict=True):
                full[c] = val
            kernels[p].append(tuple(full))
        src_cols = [k for k, bv in enumerate(src_basis) if vector_parity(r, bv) == 1 - p]
        images[p].extend(image_basis(_column_submatrix(in_m, src_cols)))
    return kernels, images


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
# The doubled-Verma certificate on cosets: the census, then the singular step
# and the freeness probe reduced to class coordinates, with one ``Echelon``
# span per weight.


def rep_dict(result: DSResult, weight: Weight, index: int) -> dict:
    """The ``index``-th coset representative at ``weight`` as a basis-vector
    expansion."""
    wc = result.classes_at(weight)
    return {bv: c for bv, c in zip(wc.basis, wc.reps[index], strict=True) if c}


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
    """The checks of ``homology._certify_verma_iso`` on class coordinates
    over the chosen cosets: a moved class is reduced by ``classes_at`` and a
    weight's generated span is grown one class at a time.  The library asks
    the same questions as ranks modulo the boundaries."""
    m = result.source
    n = m.datum.n
    alpha = result.alpha
    anchor = m.datum.hw
    rw = root_weight(n, alpha)
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
            expected_total = target_char.total(nu)
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
        if result.total(mu) != 1:
            return Certificate(
                REFUTED,
                checked,
                {"weight": list(mu), "dims": list(result.dims(mu)), "expected_total": 1},
            )
        singular[s] = mu
        rep = rep_dict(result, mu, 0)
        for beta in target_pos:
            unit = lift_unit(n, alpha, beta)
            moved = m.act_unit(unit, rep, reads)
            if not moved:
                continue
            wc = result.classes_at(add_weights(mu, root_weight(n, unit)))
            if any(wc.reduce(_as_coordinates(m, moved, wc))):
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
        wc0 = result.classes_at(mu0)
        start = wc0.reduce(_as_coordinates(m, rep_dict(result, mu0, 0), wc0))
        spans = {mu0: Echelon(len(wc0.reps))}
        spans[mu0].add(start)
        queue = [(mu0, start)]
        while queue:
            w, coords = queue.pop()
            wc = result.classes_at(w)
            full = [_ZERO] * len(wc.basis)
            for c, repv in zip(coords, wc.reps, strict=True):
                if c:
                    full = [a + c * b for a, b in zip(full, repv, strict=True)]
            expansion = {bv: c for bv, c in zip(wc.basis, full, strict=True) if c}
            for unit in lowering_units:
                w2 = add_weights(w, root_weight(n, unit))
                if not result.in_valid_region(w2):
                    continue
                moved = m.act_unit(unit, expansion, reads)
                if not moved:
                    continue
                wc2 = result.classes_at(w2)
                coords2 = wc2.reduce(_as_coordinates(m, moved, wc2))
                if not any(coords2):
                    continue
                if spans.setdefault(w2, Echelon(len(wc2.reps))).add(coords2):
                    queue.append((w2, coords2))
        for mu in sorted(candidates):
            if _slot(alpha, anchor, mu) != s:
                continue
            nu = pr_alpha(n, mu, alpha)
            expected = target_char.total(nu)
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
