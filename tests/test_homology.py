"""Tests for rank-one homology, certification, and the contracting homotopy."""

from __future__ import annotations

import json
import re
from itertools import product
from types import SimpleNamespace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma.borels import all_borels, odd_simple_roots, star
from superverma.homology import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    ContractionComplex,
    certify_verma_iso,
    certify_zero,
    contraction_check,
    ds_borel_label,
    ds_homology,
    ds_tensor_factor,
    gl11_ds_table,
    ses_supercharacter_check,
    induced_action,
    induced_bracket_check,
    lift_unit,
    projected_ds_census,
    surviving_indices,
    unfixed_read,
)
from superverma.linalg import SparseRationalMatrix, rank
from superverma.modules import (
    PBWLayout,
    Realization,
    TensorLevi,
    bg_datum,
    bg_module,
    bg_realization,
    form_values,
    gl11_simple_datum,
    level_form,
    parabolic_IJ_realization,
    union_borel_datum,
    verma_datum,
    verma_realization,
)
from superverma.superalgebra import is_odd_root, root_weight
from superverma.weights import (
    add_weights,
    from_tuple,
    par,
    pr_alpha,
    sub_weights,
    to_tuple,
    verma_character,
)

from oracles import (
    bilinear_form,
    coset_certify_verma_iso,
    full_ds_table,
    map_root_at,
    map_root_c,
    map_weight,
    mapped_label,
    parity_split_classes,
    rep_dict,
)

E13 = (1, 3)


def ds13(m: Realization):
    return ds_homology(m, E13)


def census_table(result) -> dict:
    return {w: d for w, d in result.dim_table.items() if d != (0, 0)}


# ---------------------------------------------------------------------------
# The rank-one gl(1|1) table, at truncation depth 8.


def test_gl11_simple_module_one_class():
    for a in (-1, 0, 2, 3):
        r = ds_homology(Realization(gl11_simple_datum(a), 8), (1, 2))
        expected = {(a, -a): (1, 0) if a % 2 == 0 else (0, 1)}
        assert census_table(r) == expected


def test_gl11_standard_verma_two_classes():
    # matched pair: one class at the top weight, one a step below, parities split
    r = ds_homology(verma_realization(1, (), (2, 2), 8), (1, 2))
    assert census_table(r) == {(2, -2): (1, 0), (1, -1): (0, 1)}
    r = ds_homology(verma_realization(1, (), (-1, -1), 8), (1, 2))
    assert census_table(r) == {(-1, 1): (0, 1), (-2, 2): (1, 0)}


def test_gl11_twisted_verma_vanishes():
    # highest weight (a, -a) for the opposite Borel: tuple (a+1, a+1)
    for a in (0, 2):
        r = ds_homology(verma_realization(1, (1,), (a + 1, a + 1), 8), (1, 2))
        assert census_table(r) == {}


def test_gl11_typical_verma_vanishes():
    for label, t in [((), (2, 0)), ((), (0, 3)), ((1,), (1, 3))]:
        r = ds_homology(verma_realization(1, label, t, 8), (1, 2))
        assert census_table(r) == {}


def test_gl11_realizations_match_closed_table():
    for a in (-2, 0, 1, 2):
        r = ds_homology(verma_realization(1, (), (a, a), 8), (1, 2))
        assert census_table(r) == gl11_ds_table("verma_eps", a, a)
        s = ds_homology(Realization(gl11_simple_datum(a), 8), (1, 2))
        assert census_table(s) == gl11_ds_table("simple", a, a)


def test_gl11_closed_table_edge_cases():
    assert gl11_ds_table("verma_eps", 1, 0) == {}
    assert gl11_ds_table("verma_delta", 2, 2) == {}
    assert gl11_ds_table("verma_delta", 1, 0) == {}
    with pytest.raises(ValueError):
        gl11_ds_table("simple", 1, 0)
    with pytest.raises(ValueError):
        gl11_ds_table("projective", 1, 1)


# ---------------------------------------------------------------------------
# Basic structure of the homology result.


def test_root_vector_squares_to_zero_on_module():
    m = verma_realization(2, (1,), (0, 1, 0, 1), 4)
    rw = root_weight(2, E13)
    for mu in m.weight_spaces:
        first = add_weights(mu, rw)
        second = add_weights(first, rw)
        if first not in m.weight_spaces or second not in m.weight_spaces:
            continue
        composed = m.unit_matrix(E13, first) @ m.unit_matrix(E13, mu)
        assert composed.entries == {}


def test_valid_depth_is_depth_minus_margin():
    # the margin is the height of the root for the module's Borel (the
    # mutant ``ds-margin-off-by-one`` counts one level of depth too many)
    m = verma_realization(2, (1,), (0, 1, 0, 1), 6)
    assert ds13(m).valid_depth == 5
    m = verma_realization(2, (), (0, 1, 0, 1), 6)
    assert ds13(m).valid_depth == 4


def test_requires_odd_root():
    m = verma_realization(2, (1,), (0, 1, 0, 1), 2)
    with pytest.raises(ValueError):
        ds_homology(m, (1, 2))


def test_each_weight_space_is_pure_parity():
    r = ds13(verma_realization(2, (1,), (0, 1, 0, 1), 6))
    assert len(r.support()) == 4
    for mu in r.support():
        e, o = r.dims(mu)
        assert min(e, o) == 0


def test_class_representatives_cross_check():
    r = ds13(verma_realization(2, (1,), (0, 1, 0, 1), 6))
    for mu in r.support():
        wc = r.classes_at(mu)
        assert len(wc.reps) == r.total(mu)
        rep = rep_dict(r, mu, 0)
        assert rep and all(isinstance(c, Fraction) for c in rep.values())
    assert r.classes_at((99, 0, 0, 0)) is None


def test_reduce_refuses_a_vector_outside_the_kernel():
    r = ds13(verma_realization(2, (1,), (0, 1, 0, 1), 6))
    refused = 0
    for mu in sorted(r.dim_table):
        wc = r.classes_at(mu)
        for k, bv in enumerate(wc.basis):
            if not r.source.act_unit(E13, {bv: 1}):
                continue
            e = tuple(Fraction(int(i == k)) for i in range(len(wc.basis)))
            with pytest.raises(AssertionError, match="is not a homology class"):
                wc.reduce(e)
            refused += 1
    assert refused


def _parity_oracle_cases():
    """Homology results on every rank-2 Borel (its simple odd roots, a few
    tuples on one layout) and on a bg realization, a bg module and the
    two-Borel union datum (every odd root), all at depth 6."""
    for label in all_borels(2):
        layout = None
        for t in ((0, 0, 0, 0), (1, 0, 1, 0), (2, 1, -1, -2), (1, 2, 0, -1)):
            m = verma_realization(2, label, t, 6, layout)
            layout = m.layout
            for alpha in odd_simple_roots(2, label):
                yield ds_homology(m, alpha)
    odd = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j and is_odd_root(2, (i, j))]
    for m in (
        bg_realization(2, (1, 2, 1, 2), 6),
        bg_module(2, [("verma_delta", 2, 2), ("simple", 2, 2)], 6),
        Realization(union_borel_datum(2, [(), (1,)], (2, 1, -1, -3)), 6),
    ):
        for alpha in odd:
            yield ds_homology(m, alpha)


def test_cosets_match_the_parity_split_oracle():
    """Kernels and images of the whole unit matrices are those of one
    elimination per parity block, in the same order, at every valid offset:
    the blocks of the other parity are empty, and the classes sit at the
    parity of the weight."""
    checked = 0
    for result in _parity_oracle_cases():
        for w in result.dim_table:
            wc = result.classes_at(w)
            kernels, images = parity_split_classes(result.source, result.alpha, w)
            p = par(result.n, w)
            assert result.source.space_parity(w) == p and result.dims(w)[1 - p] == 0
            assert kernels[1 - p] == images[1 - p] == [], (result.alpha, w)
            assert (kernels[p], images[p]) == (wc.kernel, wc.image), (result.alpha, w)
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("label", [*sorted(all_borels(2)), "bg"], ids=str)
def test_sliced_tables_match_the_full_table_oracle(label):
    """On every rank-2 Borel, and on the enlarged-Borel (bg) module, over a
    grid of anchors that share layouts: the table ``ds_homology`` takes ranks for
    only on the slice ``(mu, alpha) = 0`` equals, cell by cell, the table of
    ranks at every weight, for every odd root; no cell off the slice is
    nonzero, in either."""
    views, layouts = [], {}
    for t in product((0, 1), repeat=4):
        datum = bg_datum(2, t) if label == "bg" else verma_datum(2, label, t)
        views.append(Realization(datum, 6, layout=layouts.get(datum.shape)))
        layouts.setdefault(datum.shape, views[-1].layout)
    odd = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j and is_odd_root(2, (i, j))]
    off_slice_homology = False
    for alpha in odd:
        rw = root_weight(2, alpha)
        matched = set()
        for m in views:
            full = full_ds_table(m, alpha)
            table = ds_homology(m, alpha).dim_table
            assert table == full, (alpha, m.datum.hw)
            for w, dims in table.items():
                if bilinear_form(2, w, rw):
                    assert dims == (0, 0), (alpha, w)
            level = bilinear_form(2, m.datum.hw, rw)
            matched.add(level == 0)
            off_slice_homology |= level != 0 and any(d != (0, 0) for d in full.values())
        assert matched == {True, False}, alpha
    # some anchor off the matched hyperplane carries homology (on its slice),
    # so slicing on the wrong sign of (hw, alpha) would show
    assert off_slice_homology


@pytest.mark.parametrize(
    "n, label, t, depth, alpha",
    [
        (2, (1,), (1, 0, 2, -1), 6, (1, 3)),
        (2, (1,), (1, 0, 1, 0), 6, (1, 3)),
        (3, (2, 1), (1, 0, 2, -1, 1, 0), 4, (2, 5)),
    ],
    ids=["rank2-unmatched", "rank2-matched", "rank3"],
)
def test_the_homotopy_identity_on_unit_matrices(n, label, t, depth, alpha):
    """With ``x = e_alpha`` and ``y`` the opposite odd unit, ``xy + yx`` acts
    on the weight ``mu`` by ``(mu, alpha)`` at every weight of the valid
    region; so the homology vanishes wherever that value is not zero."""
    m = verma_realization(n, label, t, depth)
    rw = root_weight(n, alpha)
    y = (alpha[1], alpha[0])
    valid = ds_homology(m, alpha).valid_depth
    weights = [w for w in sorted(m.weight_spaces) if m.datum.depth_of(w) <= valid]
    levels = set()
    for mu in weights:
        below, above = sub_weights(mu, rw), add_weights(mu, rw)
        lhs = m.unit_matrix(alpha, below) @ m.unit_matrix(y, mu) + m.unit_matrix(
            y, above
        ) @ m.unit_matrix(alpha, mu)
        level = bilinear_form(n, mu, rw)
        assert lhs == SparseRationalMatrix.identity(len(m.weight_spaces[mu])).scale(level), mu
        levels.add(level)
    assert len(levels) > 3


@pytest.mark.parametrize("side", ["kernel", "image"])
def test_a_vector_that_mixes_parities_is_refused(side):
    # every weight space of the modules built here has one parity, so the
    # layout refuses one that holds both before any kernel or image is taken
    # there; the control stands in a levi factor that puts both parities in
    # one weight space.  kernel: two states at the anchor, where nothing lies
    # above, with opposite parities.  image: a state one odd lowering unit
    # below the anchor with the anchor state's parity, which the image of
    # that unit on the anchor state does not have.
    top = (0, 0, 0, 0)
    datum = verma_datum(2, (), top)
    lowering = (3, 1)
    assert lowering in datum.complement_order and is_odd_root(2, lowering)
    mixed = top if side == "kernel" else root_weight(2, lowering)
    factor = SimpleNamespace(
        roots=frozenset(), hw=top, states=[(top, 0), (mixed, int(side == "kernel"))]
    )
    levi = TensorLevi(2, [factor])
    with pytest.raises(ValueError, match=re.escape(f"offset {mixed} holds both parities")):
        PBWLayout(datum, datum.root_cost(lowering), levi)
    # with one parity at that weight the same layout is built
    factor.states[1] = (mixed, int(side != "kernel"))
    layout = PBWLayout(datum, datum.root_cost(lowering), TensorLevi(2, [factor]))
    assert layout.parities[mixed] == int(side != "kernel")


def test_result_json_is_deterministic():
    def fresh():
        return ds13(verma_realization(2, (1,), (0, 1, 0, 1), 5)).to_json()

    first, second = fresh(), fresh()
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"alpha", "valid_region", "classes"}


# ---------------------------------------------------------------------------
# Centralizer bookkeeping.


def test_surviving_indices_and_lifts():
    assert surviving_indices(2, (1, 3)) == (2, 4)
    assert surviving_indices(2, (3, 1)) == (2, 4)
    assert surviving_indices(2, (2, 3)) == (1, 4)
    assert surviving_indices(3, (2, 4)) == (1, 3, 5, 6)
    assert lift_unit(2, (1, 3), (1, 2)) == (2, 4)
    assert lift_unit(3, (2, 4), (2, 3)) == (3, 5)


def test_inherited_borel_labels():
    assert ds_borel_label(2, (1,), (1, 3)) == ()
    assert ds_borel_label(2, (), (2, 3)) == ()
    assert ds_borel_label(2, (1,), (3, 2)) == ()
    assert ds_borel_label(3, (2, 1), (1, 4)) == (1,)
    # every inherited label is a valid label one size down
    small = set(all_borels(1))
    for label in all_borels(2):
        for alpha in [(1, 3), (1, 4), (2, 3), (2, 4)]:
            assert ds_borel_label(2, label, alpha) in small


# ---------------------------------------------------------------------------
# Certification of the double-Verma answer.


def test_certify_standard_borel_anchor():
    m = verma_realization(2, (1,), (0, 1, 0, 1), 6)
    r = ds13(m)
    label = ds_borel_label(2, (1,), E13)
    target = to_tuple(1, pr_alpha(2, m.datum.hw, E13), label)
    cert = certify_verma_iso(r, label, target)
    assert cert.verdict == CERTIFIED
    assert cert.checked_weights == 25
    assert cert.detail == {"singular_weights": [[0, 1, 0, -1], [-1, 1, 1, -1]]}


def test_certify_second_odd_simple():
    m = verma_realization(2, (), (2, 0, 0, -1), 6)
    r = ds_homology(m, (2, 3))
    label = ds_borel_label(2, (), (2, 3))
    target = to_tuple(1, pr_alpha(2, m.datum.hw, (2, 3)), label)
    cert = certify_verma_iso(r, label, target)
    assert cert.verdict == CERTIFIED
    assert cert.checked_weights == 46
    assert cert.detail == {"singular_weights": [[2, 1, -1, 1], [2, 0, 0, 1]]}


def test_certify_reversed_odd_root():
    # a negative odd root of the standard Borel is simple for the twisted one
    m = verma_realization(2, (1,), (2, 1, 1, -1), 6)
    r = ds_homology(m, (3, 2))
    label = ds_borel_label(2, (1,), (3, 2))
    assert label == ()
    target = to_tuple(1, pr_alpha(2, m.datum.hw, (3, 2)), label)
    assert target == (2, -1)
    cert = certify_verma_iso(r, label, target)
    assert cert.verdict == CERTIFIED
    assert cert.checked_weights == 25
    assert cert.detail == {"singular_weights": [[2, 1, -1, 1], [2, 2, -2, 1]]}


def test_certify_star_family_one_size_up():
    b = star(1, (), 2, (1,))
    assert b == (2, 1)
    m = verma_realization(3, b, (1, 0, 1, 1, 0, 1), 4)
    r = ds_homology(m, (1, 4))
    label = ds_borel_label(3, b, (1, 4))
    assert label == (1,)
    target = to_tuple(2, pr_alpha(3, m.datum.hw, (1, 4)), label)
    assert target == (0, 1, 0, 1)
    cert = certify_verma_iso(r, label, target)
    assert cert.verdict == CERTIFIED
    assert cert.checked_weights == 34


def test_certify_zero_on_typical_weight():
    m = verma_realization(2, (), (2, 0, 1, 0), 6)
    r = ds13(m)
    cert = certify_zero(r)
    assert cert.verdict == CERTIFIED
    assert cert.ok
    assert cert.checked_weights == 30


def test_refuted_census_carries_counterexample():
    m = verma_realization(2, (), (2, 0, 1, 0), 6)
    r = ds13(m)
    target = to_tuple(1, pr_alpha(2, m.datum.hw, E13), ())
    cert = certify_verma_iso(r, (), target)
    assert cert.verdict == REFUTED
    assert not cert.ok
    assert cert.detail == {"weight": [1, 0, -1, 1], "dims": [0, 0], "expected": [1, 0]}
    # the same case on a layout warmed by another anchor of the same level,
    # where the forms the record's run read take the same values
    warm = verma_realization(2, (), (0, -2, -1, -2), 6)
    certify_verma_iso(ds13(warm), (), to_tuple(1, pr_alpha(2, warm.datum.hw, E13), ()))
    records = {key: list(made) for key, made in warm.layout.homology.items()}
    shared = ds13(verma_realization(2, (), (2, 0, 1, 0), 6, warm.layout))
    _key, (made_at, reads, record) = _kept(shared)
    assert record is ds13(warm)._record and made_at == warm.datum.hw
    assert form_values(reads, m.datum.hw) == form_values(reads, made_at)
    assert warm.layout.homology == records
    assert certify_verma_iso(shared, (), target) == cert


def _kept(result):
    """The key and the ``(anchor made at, forms read, record)`` entry under
    which the result's record is kept on its layout."""
    ((key, entry),) = [
        (key, entry)
        for key, made in result.source.layout.homology.items()
        for entry in made
        if entry[2] is result._record
    ]
    return key, entry


def _certify_matched(m, alpha, label):
    target = ds_borel_label(m.datum.n, label, alpha)
    small = to_tuple(m.datum.n - 1, pr_alpha(m.datum.n, m.datum.hw, alpha), target)
    return certify_verma_iso(ds_homology(m, alpha), target, small)


def test_an_inconclusive_certificate_is_shared_by_anchors():
    # at depth 1 the valid region of a simple root holds only the anchor slot
    label, alpha = (), (2, 3)
    first = verma_realization(2, label, (0, -1, -1, 0), 1)
    second = verma_realization(2, label, (1, -1, -1, 0), 1, first.layout)
    assert ds_homology(first, alpha)._record is ds_homology(second, alpha)._record
    reason = {"reason": "anchor slot -1 outside the valid region"}
    assert _certify_matched(first, alpha, label).detail == reason
    warm = _certify_matched(second, alpha, label)
    (made,) = first.layout.homology.values()
    ((_anchor, _reads, record),) = made
    assert [len(certs) for certs in record.certificates.values()] == [1]
    assert warm == _certify_matched(verma_realization(2, label, (1, -1, -1, 0), 1), alpha, label)
    assert warm.verdict == INCONCLUSIVE and warm.detail == reason


def test_a_certificate_is_keyed_by_the_anchor_parity():
    # the census reads each weight's parity from par(n, weight), not from the
    # parity shift; a datum whose shift is not par(n, hw) shares the layout
    # of the Verma data of its shape, and must not reuse their certificates
    from dataclasses import replace

    from superverma.modules import verma_datum

    label, alpha = (), (2, 3)
    verma = verma_realization(2, label, (0, -1, -1, 0), 6)
    datum = verma_datum(2, label, (0, -1, -1, -1))
    assert par(2, datum.hw) != par(2, verma.datum.hw)
    datum = replace(datum, parity_shift=verma.datum.parity_shift)
    twisted = Realization(datum, 6, layout=verma.layout)
    assert ds_homology(twisted, alpha)._record is ds_homology(verma, alpha)._record
    assert _certify_matched(verma, alpha, label).verdict == CERTIFIED
    cold = _certify_matched(Realization(datum, 6), alpha, label)
    assert cold.verdict == REFUTED
    assert _certify_matched(twisted, alpha, label) == cold
    # the census also reads each count where the parity shift places it: a
    # datum with the Verma anchor (so equal par(n, hw)) and the opposite
    # shift shares the record too, and must not reuse its certificate either
    flipped = replace(verma.datum, parity_shift=1 - verma.datum.parity_shift % 2)
    shifted = Realization(flipped, 6, layout=verma.layout)
    assert ds_homology(shifted, alpha)._record is ds_homology(verma, alpha)._record
    cold = _certify_matched(Realization(flipped, 6), alpha, label)
    assert cold.verdict == REFUTED
    assert _certify_matched(shifted, alpha, label) == cold


def test_shift_twins_share_one_record_at_opposite_parities():
    # two matched anchors of one layout on one level, with equal form values
    # and opposite parity shifts: their maps agree, so they share the counts
    # and the slice cosets, and each view places the counts at its parity
    first = verma_realization(2, (), (-2, -2, -2, -2), 6)
    second = verma_realization(2, (), (-2, -2, -2, -1), 6, first.layout)
    assert first.datum.parity_shift % 2 != second.datum.parity_shift % 2
    a, b = ds13(first), ds13(second)
    key, (_made_at, reads, _record) = _kept(a)
    assert key == (E13, first.level(E13)) == (E13, second.level(E13))
    assert form_values(reads, first.datum.hw) == form_values(reads, second.datum.hw)
    assert a._record is b._record
    for result in (a, b):
        assert result.dim_table == ds13(Realization(result.source.datum, 6)).dim_table
    rw = root_weight(2, E13)
    on_slice = 0
    for off, count in a._record.cells.items():
        mu, nu = add_weights(first.datum.hw, off), add_weights(second.datum.hw, off)
        assert a.dims(mu) == b.dims(nu)[::-1] and a.total(mu) == count
        if not bilinear_form(2, mu, rw) and first.layout.spaces.get(off):
            assert a.classes_at(mu) is b.classes_at(nu)
            on_slice += count > 0
    assert on_slice


def test_empty_slices_share_one_record_across_levels():
    # where the slice holds no offset of the valid region every count is
    # zero, whatever the level, so one record serves every such anchor
    first = verma_realization(2, (), (-2, -2, -1, -2), 6)
    second = verma_realization(2, (), (-2, -2, 0, -2), 6, first.layout)
    assert first.level(E13) != second.level(E13)
    a, b = ds13(first), ds13(second)
    key, (_made_at, reads, _record) = _kept(a)
    assert key == (E13,) and reads == ()
    assert a._record is b._record
    for result in (a, b):
        assert result.dim_table == ds13(Realization(result.source.datum, 6)).dim_table
        assert not result.support() and certify_zero(result).verdict == CERTIFIED


def test_the_record_keeps_each_map_of_e_alpha_with_its_rank():
    # the record keeps every map of e_13 its run ranked, by source offset:
    # each is the matrix of every view that shares the record, with its
    # rank, and a count on the slice is the dimension less the ranks of the
    # maps out of and into its offset (the mutant
    # ``incoming-rank-at-the-offset`` subtracts the outgoing rank twice)
    first = verma_realization(2, (), (-1, -2, -2, -2), 6)
    second = verma_realization(2, (), (-1, -2, -2, -1), 6, first.layout)
    record = ds13(first)._record
    assert ds13(second)._record is record
    for view in (first, second):
        for s, (matrix, r) in record.maps.items():
            assert matrix == view.unit_matrix(E13, add_weights(view.datum.hw, s))
            assert r == rank(matrix)
    rw = root_weight(2, E13)
    spaces = first.layout.spaces
    incoming_ranked = 0
    for off, count in record.cells.items():
        if off not in record.maps:
            assert count == 0
            continue
        out_rank, in_rank = record.maps[off][1], record.maps[sub_weights(off, rw)][1]
        assert count == len(spaces[off]) - out_rank - in_rank
        incoming_ranked += in_rank != out_rank
    assert incoming_ranked and any(record.cells.values())


def test_a_record_of_a_non_simple_root_is_shared_only_where_its_reads_agree():
    # e_13 is not simple for the standard Borel, and the entries of its maps
    # around one slice depend on the anchor through several forms; anchors
    # of level 0 get one record per value of the forms the record's run read
    label, alpha, depth = (), E13, 6
    assert alpha not in odd_simple_roots(2, label)
    first = verma_realization(2, label, (-1, -2, -2, -2), depth)
    agreeing, differing = (
        verma_realization(2, label, t, depth, first.layout)
        for t in ((0, -1, -1, -2), (-1, -1, -2, -2))
    )
    views = (first, agreeing, differing)
    results = [ds_homology(v, alpha) for v in views]
    assert {v.level(alpha) for v in views} == {0}
    key, (made_at, reads, record) = _kept(results[0])
    assert key == (alpha, 0) and made_at == first.datum.hw and len(reads) > 1
    values = [form_values(reads, v.datum.hw) for v in views]
    assert values[0] == values[1] != values[2]
    assert results[0]._record is results[1]._record is record
    assert results[2]._record is not record and _kept(results[2])[0] == key
    for view, result in zip(views, results):
        assert result.dim_table == ds_homology(Realization(view.datum, depth), alpha).dim_table
    assert results[0].support() and not results[2].support()


def test_the_gate_names_a_read_that_the_level_does_not_fix():
    # on the simple root (2, 3) of the standard Borel the record reads only
    # multiples of the level form; a read of another ratio, in the record or
    # in a certificate kept in it, is named.  On e_13, which is not simple
    # there, the record itself reads such forms
    label, alpha = (), (2, 3)
    m = verma_realization(2, label, (0, -1, -1, 0), 6)
    result = ds_homology(m, alpha)
    assert _certify_matched(m, alpha, label).ok
    form = level_form(2, alpha)
    record = result._record
    assert record.reads and record.certificates
    assert unfixed_read(result, form) is None
    record.reads += (tuple((i, 3 * c) for i, c in form), tuple((i, -2 * c) for i, c in form))
    assert unfixed_read(result, form) is None
    skew = ((1, 1), (2, 2))
    ((made,),) = record.certificates.values()
    record.certificates[("skew",)] = [(made[0], (skew,), made[2])]
    assert unfixed_read(result, form) == skew
    del record.certificates[("skew",)]
    record.reads += (((1, 1),),)
    assert unfixed_read(result, form) == ((1, 1),)
    first = verma_realization(2, label, (-1, -2, -2, -2), 6)
    off_simple = ds_homology(first, E13)
    assert unfixed_read(off_simple, level_form(2, E13)) in off_simple._record.reads


def test_a_class_that_a_raising_unit_moves_off_the_boundaries_is_refuted(monkeypatch):
    # negative control of the singular step: with every simple root of the
    # target Borel reversed, the "raising" units lower the anchor class to a
    # cycle outside im e_alpha, so the anchor class is not singular for them
    import superverma.homology as homology

    roots = homology.simple_roots
    monkeypatch.setattr(
        homology, "simple_roots", lambda *args: [(r[1], r[0]) for r in roots(*args)]
    )
    cert = _certify_matched(verma_realization(2, (), (1, 0, 0, 1), 6), (2, 3), ())
    assert cert.verdict == REFUTED and cert.checked_weights == 46
    assert cert.detail == {
        "weight": [1, 1, -1, -1],
        "raising": [4, 1],
        "reason": "anchor class is not singular",
    }


def test_lowering_units_short_of_a_free_module_are_refuted(monkeypatch):
    # negative control of the freeness step: without the last lowering unit
    # the PBW monomials generate less than the Verma dimension at a weight
    import superverma.homology as homology

    units = homology._target_lowering_units
    monkeypatch.setattr(homology, "_target_lowering_units", lambda *args: units(*args)[:-1])
    cert = _certify_matched(verma_realization(2, (), (1, 0, 0, 1), 6), (2, 3), ())
    assert cert.verdict == REFUTED and cert.checked_weights == 46
    assert cert.detail == {
        "weight": [0, 1, -1, 0],
        "slot": 0,
        "generated": 0,
        "expected": 1,
        "reason": "lowering units do not generate a free module",
    }


def test_a_target_character_shallower_than_the_valid_region_is_inconclusive(monkeypatch):
    # negative control of the census: the target character is expanded to
    # one step short of the deepest slot offset of the valid region, so the
    # census cannot say what that offset should hold
    import superverma.homology as homology
    from superverma.borels import height_functional

    m = verma_realization(2, (), (1, 0, 0, 1), 6)
    alpha = (2, 3)
    assert ds_borel_label(2, (), alpha) == ()
    heights = height_functional(1, ())
    cells = list(ds_homology(m, alpha)._record.cells)
    slot_costs = {
        off: -sum(h * v for h, v in zip(heights, pr_alpha(2, off, alpha)))
        for off in cells
        if off[1] in (0, -1) and off[2] == -off[1]
    }
    deepest = max(slot_costs.values())
    lowering = homology._target_lowering_units(2, alpha, 1, ())
    assert deepest <= homology._target_depth(m, alpha, (), lowering)
    monkeypatch.setattr(homology, "_target_depth", lambda *args: deepest - 1)
    cert = _certify_matched(m, alpha, ())
    short = next(k for k, off in enumerate(cells) if slot_costs.get(off, 0) == deepest)
    assert cert.verdict == INCONCLUSIVE and cert.checked_weights == short
    assert cert.detail == {"reason": "target character shallower than the valid region"}


def test_the_target_totals_are_kept_per_label_and_depth(monkeypatch):
    # the census reads the target Verma totals in offsets from its top; they
    # do not depend on the target tuple, so one expansion per layout, label
    # and depth serves every certificate of the layout
    import superverma.homology as homology

    expanded = []

    def counted(*args):
        expanded.append(args)
        return verma_character(*args)

    monkeypatch.setattr(homology, "verma_character", counted)
    layout = verma_realization(3, (2, 1), (0,) * 6, 4).layout
    for label in all_borels(2):
        for depth in (3, 5):
            for t in ((0, 0, 0, 0), (2, -1, 1, 3)):
                char = verma_character(2, label, t, depth)
                totals = homology._target_totals(layout, label, depth, t)
                assert totals == {sub_weights(w, char.top): e + o for w, (e, o) in char.table.items()}
    assert len(expanded) == len(layout.targets) == 2 * len(all_borels(2))


def test_certify_rejects_wrong_target_weight():
    m = verma_realization(2, (), (2, 0, 1, 0), 6)
    with pytest.raises(ValueError):
        certify_verma_iso(ds13(m), (), (5, 5))


def test_certify_rejects_a_target_borel_the_module_does_not_lower():
    # the inherited Borel of e_23 on the standard Borel is (); the lowering
    # unit of (1,) lifts to e_14, a raising unit of the module
    m = verma_realization(2, (), (-2, -2, -2, -2), 6)
    alpha = (2, 3)
    assert ds_borel_label(2, (), alpha) == ()
    target = to_tuple(1, pr_alpha(2, m.datum.hw, alpha), (1,))
    with pytest.raises(ValueError, match=r"lowering unit \(1, 4\)"):
        certify_verma_iso(ds_homology(m, alpha), (1,), target)


def test_certification_records_the_forms_of_anchor_dependent_maps():
    # on the anchor vector v, e_13 e_31 v = [e_13, e_31] v = (hw_1 + hw_3) v
    from superverma.modules import form_values

    m = verma_realization(2, (), (1, 0, 2, 0), 4)
    top = {m.monomial({}): 1}
    lowered = m.act_unit((3, 1), top)
    reads: set = set()
    raised = m.act_unit(E13, lowered, reads)
    assert raised == m.act_unit(E13, lowered)
    assert reads == {((0, 1), (2, 1))}
    (value,) = form_values(reads, m.datum.hw)
    assert raised == {m.monomial({}): value} and value
    # a constant map records nothing
    reads.clear()
    assert m.act_unit((3, 1), top, reads) == lowered
    assert not reads


def test_a_certificate_is_shared_only_where_its_reads_agree(monkeypatch):
    # make every cold run also read the form hw_1: anchors of one record
    # and parity share a certificate exactly when hw_1 agrees there
    import superverma.homology as homology

    cold = homology._certify_verma_iso
    runs = []

    def reading_hw1(result, target_label, target_tuple, reads):
        runs.append(result.source.datum.hw)
        reads.add(((0, 1),))
        return cold(result, target_label, target_tuple, reads)

    monkeypatch.setattr(homology, "_certify_verma_iso", reading_hw1)
    label, alpha, depth = (), (2, 3), 4
    first = verma_realization(2, label, (-2, -2, -2, -2), depth)
    views = [first] + [
        verma_realization(2, label, t, depth, first.layout)
        for t in ((-2, -2, -2, 0), (0, -2, -2, -2))
    ]
    assert len({(id(ds_homology(v, alpha)._record), par(2, v.datum.hw)) for v in views}) == 1
    assert [v.datum.hw[0] for v in views] == [-2, -2, 0]
    certs = [_certify_matched(v, alpha, label) for v in views]
    assert runs == [views[0].datum.hw, views[2].datum.hw]
    for view, cert in zip(views, certs):
        assert cert.verdict == CERTIFIED
        assert cert == _certify_matched(Realization(view.datum, depth), alpha, label)


def test_rank_certificates_match_the_coset_oracle(monkeypatch):
    # every cold doubled-Verma certificate of one pass of the rank-2 default
    # grid and of the rank-3 sample gets the verdict, count and detail of
    # the certificate that reduces classes over cosets
    import superverma.homology as homology
    from superverma.verify import verify_conjecture

    cold = homology._certify_verma_iso
    compared: dict = {2: [], 3: []}

    def against_the_oracle(result, target_label, target_tuple, reads):
        cert = cold(result, target_label, target_tuple, reads)
        other = coset_certify_verma_iso(result, target_label, target_tuple, set())
        assert cert == other
        compared[result.n].append(cert.verdict)
        return cert

    monkeypatch.setenv("SUPERVERMA_JOBS", "1")
    monkeypatch.setattr(homology, "_certify_verma_iso", against_the_oracle)
    for n in compared:
        assert set(verify_conjecture(n).counts()) == {CERTIFIED}
    assert all(set(verdicts) == {CERTIFIED} for verdicts in compared.values())


def test_after_the_record_no_map_of_e_alpha_is_built_or_ranked_again(monkeypatch):
    # a cold doubled-Verma certificate and the cosets on the slice read the
    # maps of e_alpha and their ranks from the record of ``ds_homology``:
    # they build no matrix and rank none of the record's maps again.  Every
    # cold certificate of the rank-2 default grid and of one rank-3 sample
    # tuple is watched
    import superverma.homology as homology
    from superverma.verify import verify_conjecture

    watching = []
    built, ranked, verdicts = [], [], []

    def watched(method, seen):
        def wrapper(*args, **kwargs):
            if watching:
                seen.append(args)
            return method(*args, **kwargs)

        return wrapper

    cold = homology._certify_verma_iso

    def certify_watched(result, target_label, target_tuple, reads):
        rw = root_weight(result.n, result.alpha)
        watching.append(True)
        try:
            cert = cold(result, target_label, target_tuple, reads)
            for w in result.dim_table:
                if not bilinear_form(result.n, w, rw):
                    result.classes_at(w)
        finally:
            watching.pop()
        assert built == []
        kept = {matrix for matrix, _rank in result._record.maps.values()}
        assert not [args for args in ranked if args[0] in kept]
        ranked.clear()
        verdicts.append(cert.verdict)
        return cert

    monkeypatch.setenv("SUPERVERMA_JOBS", "1")
    monkeypatch.setattr(PBWLayout, "matrix_at", watched(PBWLayout.matrix_at, built))
    monkeypatch.setattr(Realization, "unit_matrix", watched(Realization.unit_matrix, built))
    monkeypatch.setattr(homology, "rank", watched(homology.rank, ranked))
    monkeypatch.setattr(homology, "_certify_verma_iso", certify_watched)
    assert set(verify_conjecture(2).counts()) == {CERTIFIED}
    assert set(verify_conjecture(3, grid=[(1, 0, 1, 1, 0, 1)]).counts()) == {CERTIFIED}
    assert len(verdicts) > 24 and set(verdicts) == {CERTIFIED}


def test_shallow_region_is_inconclusive():
    m = verma_realization(2, (), (1, 0, 1, 0), 1)
    r = ds13(m)
    assert r.valid_depth == -1
    assert certify_zero(r).verdict == INCONCLUSIVE
    target = to_tuple(1, pr_alpha(2, m.datum.hw, E13), ())
    assert certify_verma_iso(r, (), target).verdict == INCONCLUSIVE


# ---------------------------------------------------------------------------
# Induced centralizer action.


def test_induced_action_shapes_and_guards():
    r = ds13(verma_realization(2, (1,), (0, 1, 0, 1), 6))
    rw = root_weight(2, (4, 2))
    matrices = induced_action(r, (4, 2))
    assert matrices
    for mu, mat in matrices.items():
        assert mat.ncols == r.total(mu)
        assert mat.nrows == r.total(add_weights(mu, rw))
    with pytest.raises(ValueError):
        induced_action(r, (1, 2))


def test_views_of_one_record_act_through_their_own_maps_off_the_slice():
    # two anchors of one layout share the record of e_13, yet the maps of
    # e_13 off their slice differ; the induced action reads
    # kernels and images there, so each view must take them from its own
    # maps, as a lone layout does
    depth = 6
    first = verma_realization(2, (), (-2, -2, 2, -1), depth)
    other = verma_realization(2, (), (-2, -1, 2, -1), depth, first.layout)
    shared, own = ds13(first), ds13(other)
    assert shared._record is own._record
    offsets = [sub_weights(w, first.datum.hw) for w in shared.dim_table]
    assert any(
        first.unit_matrix(E13, add_weights(first.datum.hw, off))
        != other.unit_matrix(E13, add_weights(other.datum.hw, off))
        for off in offsets
    )
    alone = ds13(Realization(other.datum, depth))
    for g in ((2, 4), (4, 2)):
        induced_action(shared, g)
        assert induced_action(own, g) == induced_action(alone, g), g


def test_induced_matrices_close_under_bracket():
    r = ds13(verma_realization(2, (1,), (0, 1, 0, 1), 6))
    pairs = [
        ((2, 4), (4, 2)),
        ((4, 2), (2, 4)),
        ((2, 4), (2, 2)),
        ((2, 2), (4, 2)),
        ((2, 4), (2, 4)),
        ((4, 2), (4, 2)),
    ]
    report = induced_bracket_check(r, pairs)
    assert report["ok"]
    assert report["checked"] == 74


def test_induced_bracket_one_size_up():
    m = verma_realization(3, (2, 1), (1, 1, 0, 1, 1, 0), 4)
    r = ds_homology(m, (1, 4))
    report = induced_bracket_check(r, [((2, 5), (5, 2)), ((3, 6), (6, 3))])
    assert report["ok"]
    assert report["checked"] == 3


# ---------------------------------------------------------------------------
# Degree-zero induced modules: factorwise homology.


def tensor_census_matches(n, label1, label2, t, depth):
    m = parabolic_IJ_realization(n, label1, label2, t, depth)
    r = ds_homology(m, (1, n + 1))
    kind = "verma_eps" if label1 == () else "verma_delta"
    first = gl11_ds_table(kind, t[0], t[n])
    expected: dict = {}
    for (c, d), (e1, o1) in first.items():
        for w_amb, _parity in m.levi.factors[1].states:
            mu = list(w_amb)
            mu[0], mu[n] = c, d
            mu = tuple(mu)
            if m.datum.depth_of(mu) > r.valid_depth:
                continue
            cur = expected.get(mu, [0, 0])
            cur[par(n, mu)] += e1 + o1
            expected[mu] = cur
    return census_table(r) == {w: tuple(v) for w, v in expected.items()}


def test_first_factor_carries_the_homology():
    assert tensor_census_matches(2, (), (1,), (1, 0, 1, 0), 4)
    assert tensor_census_matches(2, (1,), (), (1, 0, 1, 0), 4)
    assert tensor_census_matches(2, (), (), (2, 0, 1, 0), 4)
    assert tensor_census_matches(3, (), (1,), (1, 1, 0, 1, 1, 0), 4)
    assert tensor_census_matches(3, (), (2, 1), (0, 1, 0, 0, 1, 0), 3)


def test_tensor_factor_expectation_matches_computation():
    specs = [("verma_eps", 1, 1), ("simple", 2, 2)]
    expected = ds_tensor_factor(2, specs, 5)
    actual = ds13(bg_module(2, specs, 5))
    assert census_table(actual) == dict(expected.table)

    specs = [("simple", 1, 1), ("verma_eps", 0, 0), ("simple", 2, 2)]
    expected = ds_tensor_factor(3, specs, 3)
    actual = ds_homology(bg_module(3, specs, 3), (1, 4))
    assert census_table(actual) == dict(expected.table)


def test_enlarged_borel_module_has_singleton_homology():
    # the homology census of the anchored module is one class at the anchor
    m = bg_realization(2, (1, 2, 1, 2), 6)
    r = ds13(m)
    assert census_table(r) == {(1, 2, -1, -2): (0, 1)}
    assert par(2, (1, 2, -1, -2)) == 1


def test_delta_first_factor_kills_homology():
    r = ds13(bg_module(2, [("verma_delta", 2, 2), ("simple", 2, 2)], 6))
    assert census_table(r) == {}


def test_projected_census_sums_complete_fibers():
    r = ds13(verma_realization(2, (1,), (0, 1, 0, 1), 6))
    projected, incomplete = projected_ds_census(r)
    for nu, dims in projected.items():
        assert nu not in incomplete
        lifts = [mu for mu in r.support() if pr_alpha(2, mu, E13) == nu]
        total = [0, 0]
        for mu in lifts:
            e, o = r.dims(mu)
            total[0] += e
            total[1] += o
        assert tuple(total) == dims


# ---------------------------------------------------------------------------
# Six-term constraints for short exact sequences of anchored modules.


def test_six_term_exact_cases_have_no_slack():
    report = ses_supercharacter_check(
        ds13(bg_realization(2, (0, 2, 0, 2), 6)),
        ds13(bg_module(2, [("verma_eps", 1, 1), ("simple", 2, 2)], 6)),
        ds13(bg_realization(2, (1, 2, 1, 2), 6)),
    )
    assert report == {"ok": True, "weights_checked": 1, "failures": [], "slack": []}

    report = ses_supercharacter_check(
        ds13(bg_module(2, [("verma_eps", 1, 1), ("simple", 1, 1)], 6)),
        ds13(verma_realization(2, (1,), (1, 2, 1, 2), 6)),
        ds13(bg_module(2, [("verma_eps", 1, 1), ("simple", 2, 2)], 6)),
    )
    assert report == {"ok": True, "weights_checked": 2, "failures": [], "slack": []}


def test_six_term_error_module_cases():
    # sub anchored one step up in the first coordinate: one-dimensional error
    report = ses_supercharacter_check(
        ds13(bg_realization(2, (2, 2, 2, 2), 6)),
        ds13(bg_module(2, [("verma_delta", 2, 2), ("simple", 2, 2)], 6)),
        ds13(bg_realization(2, (1, 2, 1, 2), 6)),
    )
    assert report["ok"]
    assert report["slack"] == [[[2, -2], 1]]

    # twisted Verma in the middle: two-dimensional error spread over two weights
    report = ses_supercharacter_check(
        ds13(bg_module(2, [("simple", 2, 2), ("verma_eps", 2, 2)], 6)),
        ds13(verma_realization(2, (1, 1), (2, 2, 2, 2), 6)),
        ds13(bg_module(2, [("simple", 1, 1), ("verma_eps", 2, 2)], 6)),
    )
    assert report["ok"]
    assert report["slack"] == [[[1, -1], 1], [[2, -2], 1]]


def test_six_term_requires_exact_sources():
    r = ds13(bg_realization(2, (1, 2, 1, 2), 4))
    with pytest.raises(ValueError):
        ses_supercharacter_check(r, r, r)


def test_twisted_verma_middle_census():
    # homology of the twisted Verma: a doubled twisted Verma one size down
    r = ds13(verma_realization(2, (2,), (1, 3, 1, 3), 6))
    projected, _ = projected_ds_census(r)
    assert projected == {(2, -2): (1, 1), (3, -3): (1, 1)}


# ---------------------------------------------------------------------------
# The contracting homotopy on the abelian radical.


def test_contraction_generators_and_parities():
    cc = ContractionComplex(2)
    assert cc.units == ((2, 1), (4, 1), (2, 3), (4, 3))
    assert cc.parities == (0, 1, 1, 0)


def test_contraction_differential_on_generators():
    cc = ContractionComplex(2)
    one = Fraction(1)
    # delta swaps the first column into the middle column, h goes back
    assert cc.delta((1, 0, 0, 0)) == {(0, 0, 1, 0): -one}
    assert cc.delta((0, 1, 0, 0)) == {(0, 0, 0, 1): one}
    assert cc.delta((0, 0, 1, 0)) == {}
    assert cc.h((0, 0, 1, 0)) == {(1, 0, 0, 0): -one}
    assert cc.h((0, 0, 0, 1)) == {(0, 1, 0, 0): one}
    assert cc.h((1, 0, 0, 0)) == {}


def test_contraction_monomial_basis():
    cc = ContractionComplex(2)
    monos = list(cc.monomials(4))
    assert len(monos) == 41
    assert all(cc.degree(m) <= 4 for m in monos)
    # odd generators never repeat
    for mono in monos:
        for exp, parity in zip(mono, cc.parities, strict=True):
            if parity:
                assert exp <= 1


def test_contraction_identities_hold():
    report = contraction_check(2, 6)
    assert report["ok"] and not report["failures"]
    report = contraction_check(3, 6)
    assert report["ok"]
    assert report["monomials"] == 1289


def test_contraction_check_derives_each_image_once(monkeypatch):
    import superverma.homology as homology

    derive = homology._derive
    derived: dict = {}

    def counted(parities, images, mono):
        key = (id(images), mono)
        derived[key] = derived.get(key, 0) + 1
        return derive(parities, images, mono)

    monkeypatch.setattr(homology, "_derive", counted)
    report = contraction_check(3, 4)
    assert report["ok"] and report["monomials"] > 1
    assert derived and max(derived.values()) == 1


# ---------------------------------------------------------------------------
# Metamorphic: the involutions of gl(2|2) carry one census onto another.


@pytest.mark.parametrize("kind", ["c", "at"])
def test_involutions_map_the_census_weight_by_weight(kind):
    # an involution sends e_ij to +/- e_{w(j), w(i)}, so it carries M_b(t)
    # onto the Verma module of the image Borel at the anchor -w(hw), and the
    # homology of alpha onto that of the image root at -w(mu); each weight
    # keeps its classes, which trade parity where the parity convention of
    # the two weights differs (only the flip moves the delta block)
    n, depth = 2, 6
    map_root = map_root_c if kind == "c" else map_root_at
    grid = list(product(range(-2, 3), repeat=2 * n))[::25]
    compared = 0
    for label in all_borels(n):
        image = mapped_label(n, label, kind)
        layouts = {}
        for alpha in odd_simple_roots(n, label):
            beta = map_root(n, alpha)
            for t in grid:
                hw = from_tuple(n, t, label)
                image_t = to_tuple(n, map_weight(n, kind, hw), image)
                m = verma_realization(n, label, t, depth, layouts.get(label))
                m2 = verma_realization(n, image, image_t, depth, layouts.get(image))
                layouts[label], layouts[image] = m.layout, m2.layout
                expected = {}
                for mu, (e, o) in ds_homology(m, alpha).dim_table.items():
                    mu2 = map_weight(n, kind, mu)
                    expected[mu2] = (e, o) if par(n, mu) == par(n, mu2) else (o, e)
                assert ds_homology(m2, beta).dim_table == expected, (label, alpha, t)
                compared += 1
    assert compared == 300


# ---------------------------------------------------------------------------
# Property: homology dimensions are sane for arbitrary small modules.

ODD_ROOTS_2 = [(i, j) for i in (1, 2) for j in (3, 4)] + [
    (j, i) for i in (1, 2) for j in (3, 4)
]


@settings(max_examples=20, deadline=None)
@given(
    t=st.tuples(*(st.integers(-2, 2) for _ in range(4))),
    label=st.sampled_from(sorted(all_borels(2))),
    alpha=st.sampled_from(ODD_ROOTS_2),
)
def test_homology_dimensions_property(t, label, alpha):
    m = verma_realization(2, label, t, 3)
    r = ds_homology(m, alpha)
    for mu in r.support():
        e, o = r.dims(mu)
        assert min(e, o) == 0
        assert e + o <= len(m.weight_spaces[mu])
        assert len(r.classes_at(mu).reps) == e + o
