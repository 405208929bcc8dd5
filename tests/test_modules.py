"""Tests for truncated induced modules and exact PBW straightening."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma.borels import all_borels, b_outer, positive_roots, star
from superverma.modules import (
    InductionDatum,
    Realization,
    RealizationFactor,
    TruncationOverflow,
    bg_datum,
    bg_module,
    bg_module_datum,
    bg_module_levi,
    bg_realization,
    form_values,
    gl11_simple_datum,
    level_form,
    parabolic_IJ_datum,
    parabolic_IJ_levi,
    parabolic_IJ_realization,
    union_borel_datum,
    verma_datum,
    verma_realization,
)
from superverma.superalgebra import (
    all_roots,
    bracket,
    good_degree,
    root_of,
    root_units,
    root_weight,
    unit_parity,
)
from superverma.weights import (
    add_weights,
    bg_character,
    common_odd_roots,
    from_tuple,
    par,
    sub_weights,
    verma_character,
)

from oracles import (
    bilinear_form,
    brute_force_basis,
    certificate_forms,
    certified_maps,
    matmul,
    power_peeling_act,
    raw_parity,
    singular_vectors,
    tuple_cost,
    tuple_offset,
    tuple_shift,
    vector_parity,
    verma_weight_multiplicity,
)

ONE = Fraction(1)


def act_bvec(r: Realization, unit, bvec):
    return r.act_unit_on_basis(unit, bvec)


# ---------------------------------------------------------------------------
# Construction and enumeration.


def test_gl11_verma_realization_shape():
    r = verma_realization(1, (), (3, 5), 4)
    # one odd lowering root, exponent at most 1: two weight spaces total
    assert sorted(r.weight_spaces) == [(2, -4), (3, -5)]
    assert all(len(basis) == 1 for basis in r.weight_spaces.values())
    assert (0, 0) not in r.weight_spaces
    top = r.monomial({})
    assert r.vector_weight(top) == (3, -5)
    assert vector_parity(r, top) == par(1, (3, -5))


def test_verma_census_matches_character_rank2():
    for label in all_borels(2):
        for t in [(3, 1, -2, -4), (2, 0, 0, -1), (1, 1, 1, 1)]:
            r = verma_realization(2, label, t, 4)
            assert r.census() == verma_character(2, label, t, 4)


def test_verma_census_matches_character_rank3():
    r = verma_realization(3, (2, 1), (3, 1, 0, 0, -2, -4), 5)
    assert r.census() == verma_character(3, (2, 1), (3, 1, 0, 0, -2, -4), 5)


def test_census_matches_untruncated_multiplicities():
    t = (2, 0, -1, -3)
    for label in [(), (2, 1)]:
        r = verma_realization(2, label, t, 5)
        top = from_tuple(2, t, label)
        for w, (even, odd) in r.census().table.items():
            assert even + odd == verma_weight_multiplicity(2, label, top, w)


def test_monomial_lookup_and_errors():
    r = verma_realization(2, (), (3, 1, -2, -4), 4)
    bv = r.monomial({(2, 1): 2, (4, 1): 1})
    assert r.vector_weight(bv) == add_weights(
        add_weights(r.datum.hw, (-2, 2, 0, 0)), (-1, 0, 0, 1)
    )
    with pytest.raises(ValueError, match="not a complement unit"):
        r.monomial({(1, 2): 1})
    with pytest.raises(ValueError, match="exponents 0 and 1"):
        r.monomial({(4, 1): 2})
    with pytest.raises(ValueError, match="negative"):
        r.monomial({(2, 1): -1})


NUMBERED_LAYOUTS = {
    **{
        f"verma-{b}": (lambda b=b: verma_realization(2, b, (0, 0, 0, 0), 6))
        for b in all_borels(2)
    },
    "bg-(1,2,1,2)": lambda: bg_realization(2, (1, 2, 1, 2), 6),
    "bg-module": lambda: bg_module(2, [("verma_eps", 1, 1), ("verma_delta", 0, 2)], 6),
    "union": lambda: Realization(union_borel_datum(2, [(), (1,)], (2, 1, -1, -3)), 6),
    "verma-(21)-rank3": lambda: verma_realization(3, (2, 1), (1, 0, 1, 1, 0, 1), 9),
}


@pytest.mark.parametrize("make", NUMBERED_LAYOUTS.values(), ids=NUMBERED_LAYOUTS.keys())
def test_numbered_tables_match_the_tuple_oracle(make):
    # the walk numbers each vector with its offset, cost and parity, and the
    # shift, valid-offset and slice tables are read from those numbers; the
    # oracle recomputes every one of them on weight tuples

    layout = make().layout
    n = layout.n
    assert list(layout.spaces) == sorted(layout.spaces)
    for off, basis in layout.spaces.items():
        assert layout.cost(off) == layout.costs[off] == tuple_cost(layout, off) <= layout.depth
        for bv in basis:
            assert layout.offset(bv) == tuple_offset(layout, bv) == off
            assert raw_parity(layout, bv) == layout.parities[off]
    assert set(layout.costs) == set(layout.parities) == set(layout.spaces)
    units = root_units(n) + [(i, i) for i in range(1, 2 * n + 1)]
    for unit in units:
        shift = layout.shift(unit)
        assert all(shift[off] == tuple_shift(layout, unit, off) for off in layout.spaces)
    for max_depth in range(-1, layout.depth + 1):
        valid = [off for off in layout.spaces if tuple_cost(layout, off) <= max_depth]
        assert list(layout.valid_offsets(max_depth)) == valid
        for unit in root_units(n):
            rw = root_weight(n, unit)
            levels: dict = {}
            for off in valid:
                levels.setdefault(bilinear_form(n, off, rw), []).append(off)
            for level in range(-2 * layout.depth - 2, 2 * layout.depth + 3):
                assert list(layout.slice_of(unit, max_depth, level)) == levels.get(level, [])
            assert set(levels) <= set(range(-2 * layout.depth - 2, 2 * layout.depth + 3))


WALKED_LAYOUTS = {
    **NUMBERED_LAYOUTS,
    # 8 of its 34 levi states cost more than the depth, so they hold no vector
    "parabolic-rank3": lambda: parabolic_IJ_realization(3, (), (1,), (3, 1, 0, -1, -2, -4), 3),
}


@pytest.mark.parametrize("make", WALKED_LAYOUTS.values(), ids=WALKED_LAYOUTS.keys())
def test_the_walk_numbers_every_vector_of_the_region(make):
    # the pruned walk numbers exactly the vectors that every choice of
    # exponents, filtered by cost, finds, and files each space in order
    layout = make().layout
    found = brute_force_basis(layout)
    assert layout.numbered == found
    spaces: dict = {}
    for bv, off in sorted(found.items()):
        spaces.setdefault(off, []).append(bv)
    assert list(layout.spaces.items()) == sorted(spaces.items())


def _plain(vec: dict) -> dict:
    return {bv: c if type(c) is int else (c.const, c.terms) for bv, c in vec.items()}


@pytest.mark.parametrize("make", NUMBERED_LAYOUTS.values(), ids=NUMBERED_LAYOUTS.keys())
def test_one_factor_straightening_matches_power_peeling(make):
    # the layout peels one PBW factor per step; the oracle peels the whole
    # leading power at once.  Every unit, Cartan and levi units included, on
    # every basis vector
    layout = make().layout
    n = layout.n
    memo: dict = {}
    for unit in root_units(n) + [(i, i) for i in range(1, 2 * n + 1)]:
        for bvec in layout.numbered:
            assert _plain(layout.act(unit, bvec)) == _plain(
                power_peeling_act(layout, unit, bvec, memo)
            )


def test_the_level_form_is_minus_the_invariant_form_against_the_root():
    # the class key of the sweep and the slice of each view read the level
    # through this form; the oracle computes it with the invariant form
    for n in (1, 2, 3):
        for unit in root_units(n):
            form = level_form(n, unit)
            assert len(form) == 2 and form[0][0] < form[1][0]
            rw = root_weight(n, unit)
            for hw in product((-2, 0, 1), repeat=2 * n):
                assert form_values((form,), hw) == (-bilinear_form(n, hw, rw),)


def _broken_datum(defect: str) -> InductionDatum:
    """A rank-2 datum with one defect, built from the Verma datum of ()."""
    if defect == "anchor":
        # the union span contains both e23 and e32, so the anchor must kill
        # e22 + e33; (0, 1, 0, 0) does not
        return union_borel_datum(2, [(), (1,)], (0, 1, 0, 0))
    full = verma_datum(2, (), (0, 0, 0, 0))
    fields = dict(
        n=2,
        inducing_roots=full.inducing_roots,
        hw=full.hw,
        parity_shift=0,
        heights=full.heights,
    )
    if defect == "levi":
        fields["levi_roots"] = frozenset({(2, 1)})
    elif defect == "not-a-root":
        # rank 2 has coordinates 1..4, so (1, 5) names no root
        fields["inducing_roots"] = full.inducing_roots | {(1, 5)}
    elif defect == "heights":
        fields["heights"] = full.heights[:3]
    elif defect == "hw":
        fields["hw"] = full.hw[:3]
    elif defect == "closure":
        # [e13, e34] = e14: moving the non-simple positive (1, 4) of the ()
        # system into the complement leaves the inducing set unclosed; a
        # simple root such as (1, 2) would trip the depth-cost check instead
        fields["inducing_roots"] = full.inducing_roots - {(1, 4)}
    elif defect == "cost":
        # negated heights give every complement root a nonpositive cost
        fields["heights"] = tuple(-h for h in full.heights)
    return InductionDatum(**fields)


def test_datum_validation_rejects_unclosed_inducing():
    with pytest.raises(ValueError, match="not closed"):
        _broken_datum("closure")


def test_datum_validation_rejects_nonvanishing_weight():
    with pytest.raises(ValueError, match="vanish"):
        _broken_datum("anchor")


def test_datum_validation_rejects_cheap_complement_root():
    with pytest.raises(ValueError, match="cost"):
        _broken_datum("cost")


@pytest.mark.parametrize(
    "defect, message",
    [
        ("levi", "levi roots must be inducing roots"),
        ("not-a-root", "inducing roots must be roots"),
        ("heights", "wrong rank"),
        ("hw", "wrong rank"),
        ("closure", "not closed"),
        ("anchor", "does not vanish"),
        ("cost", "nonpositive depth cost"),
    ],
)
def test_datum_rejections_are_not_remembered(defect, message):
    # shapes are validated once and remembered; a rejected one must be
    # rejected again on the next datum, not passed from a cache
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            _broken_datum(defect)
    # a rejected anchor leaves its shape valid for a good one
    assert union_borel_datum(2, [(), (1,)], (0, 0, 0, 0)).hw == (0, 0, 0, 0)


def test_the_pbw_order_is_the_increasing_complement_of_the_inducing_roots():
    # each constructor once passed its PBW order; the derived order must be
    # the one it passed, written out here per constructor
    for n in (1, 2, 3, 4):
        for label in all_borels(n):
            negatives = sorted((q, p) for p, q in positive_roots(n, label))
            datum = verma_datum(n, label, (0,) * (2 * n))
            assert datum.complement_order == tuple(negatives)
    for t in [(2, -1, 2, -1), (2, -1, 3, -1), (2, -1, 0, 5)]:
        n = 2
        pos = set(positive_roots(n, b_outer(n)))
        pos |= {(n + k, k) for k in range(1, n + 1) if t[k - 1] == t[n + k - 1]}
        want = tuple(sorted(r for r in all_roots(n) if r not in pos))
        assert bg_datum(n, t).complement_order == want
    pos = positive_roots(2, ()) | positive_roots(2, (1,))
    want = tuple(sorted(r for r in all_roots(2) if r not in pos))
    assert union_borel_datum(2, [(), (1,)], (2, 1, -1, -3)).complement_order == want
    for n in (1, 2, 3):
        datum = bg_module_datum(n, [("simple", 0, 0)] * n)
        want = tuple(sorted(r for r in all_roots(n) if good_degree(n, r) < 0))
        assert datum.complement_order == want
    for n, t in [(2, (3, 1, -2, -4)), (3, (1, 1, 0, 1, 1, 0))]:
        levi = parabolic_IJ_levi(n, (), (1,), t, 3)
        i_coords = {1, n + 1}
        u_roots = [(p, q) for p in i_coords for q in range(1, 2 * n + 1) if q not in i_coords]
        want = tuple(sorted((q, p) for p, q in u_roots))
        assert parabolic_IJ_datum(n, (), (1,), levi).complement_order == want
    assert gl11_simple_datum(4).complement_order == ()


def test_gl11_simple_is_one_dimensional():
    r = Realization(gl11_simple_datum(4), 3)
    assert {w: len(b) for w, b in r.weight_spaces.items()} == {(4, -4): 1}
    # every root vector of gl(1|1) kills the generator
    v = {r.monomial({}): ONE}
    assert r.act_unit((1, 2), v) == {}
    assert r.act_unit((2, 1), v) == {}


# ---------------------------------------------------------------------------
# Straightened actions: frozen identities.


def test_enlarged_borel_lowering_action_formulas():
    # basis e21^a21 e23^a23 e41^a41 e43^a43 over a matched-diagonal tuple
    r = bg_realization(2, (2, -1, 2, -1), 6)
    assert r.datum.complement_order == ((2, 1), (2, 3), (4, 1), (4, 3))

    def mono(a21=0, a23=0, a41=0, a43=0):
        return r.monomial({(2, 1): a21, (2, 3): a23, (4, 1): a41, (4, 3): a43})

    for a21, a43 in product(range(4), range(4)):
        got = act_bvec(r, (1, 3), mono(a21, 0, 0, a43))
        want = {mono(a21 - 1, 1, 0, a43): Fraction(-a21)} if a21 else {}
        assert got == want
        assert act_bvec(r, (1, 3), mono(a21, 1, 0, a43)) == {}
        got = act_bvec(r, (1, 3), mono(a21, 0, 1, a43))
        want = {mono(a21, 0, 0, a43 + 1): ONE}
        if a21:
            want[mono(a21 - 1, 1, 1, a43)] = Fraction(-a21)
        assert got == want
        got = act_bvec(r, (1, 3), mono(a21, 1, 1, a43))
        assert got == {mono(a21, 1, 0, a43 + 1): -ONE}


@pytest.fixture(scope="module")
def union_realization():
    # Ind over the span of the Borels () and (1) at an anchor of the shape
    # (a, b, -b, -c); the two raising actions below have frozen formulas
    datum = union_borel_datum(2, [(), (1,)], (2, 1, -1, -3))
    return Realization(datum, 6)


def test_union_span_has_seven_positive_roots(union_realization):
    datum = union_realization.datum
    assert sorted(datum.inducing_roots) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 2), (3, 4),
    ]
    assert datum.complement_order == ((2, 1), (3, 1), (4, 1), (4, 2), (4, 3))


def test_union_first_raising_action_formulas(union_realization):
    r = union_realization

    def mono(a21=0, a31=0, a41=0, a42=0, a43=0):
        return r.monomial(
            {(2, 1): a21, (3, 1): a31, (4, 1): a41, (4, 2): a42, (4, 3): a43}
        )

    for a21, a41, a43 in product(range(4), range(2), range(4)):
        assert act_bvec(r, (2, 3), mono(a21, 0, a41, 0, a43)) == {}
        got = act_bvec(r, (2, 3), mono(a21, 1, a41, 0, a43))
        assert got == {mono(a21 + 1, 0, a41, 0, a43): ONE}
        got = act_bvec(r, (2, 3), mono(a21, 0, a41, 1, a43))
        assert got == {mono(a21, 0, a41, 0, a43 + 1): Fraction((-1) ** a41)}
        got = act_bvec(r, (2, 3), mono(a21, 1, a41, 1, a43))
        assert got == {
            mono(a21 + 1, 0, a41, 1, a43): ONE,
            mono(a21, 1, a41, 0, a43 + 1): Fraction(-((-1) ** a41)),
        }


def test_union_second_raising_action_formulas(union_realization):
    r = union_realization

    def mono(a21=0, a31=0, a41=0, a42=0, a43=0):
        return r.monomial(
            {(2, 1): a21, (3, 1): a31, (4, 1): a41, (4, 2): a42, (4, 3): a43}
        )

    for a21, a41, a43 in product(range(4), range(2), range(4)):
        assert act_bvec(r, (3, 2), mono(a21, 1, a41, 1, a43)) == {}
        got = act_bvec(r, (3, 2), mono(a21, 0, a41, 0, a43))
        want = {}
        if a21:
            want[mono(a21 - 1, 1, a41, 0, a43)] = Fraction(a21)
        if a43:
            want[mono(a21, 0, a41, 1, a43 - 1)] = Fraction(-a43 * (-1) ** a41)
        assert got == want
        got = act_bvec(r, (3, 2), mono(a21, 0, a41, 1, a43))
        want = {mono(a21 - 1, 1, a41, 1, a43): Fraction(a21)} if a21 else {}
        assert got == want
        got = act_bvec(r, (3, 2), mono(a21, 1, a41, 0, a43))
        want = (
            {mono(a21, 1, a41, 1, a43 - 1): Fraction(a43 * (-1) ** a41)}
            if a43
            else {}
        )
        assert got == want


def test_lowering_generator_acts_by_simple_multiplication(union_realization):
    r = union_realization
    v = {r.monomial({}): ONE}
    stepped = r.act_unit((3, 2), r.act_unit((2, 1), v))
    assert stepped == {r.monomial({(3, 1): 1}): ONE}


def test_exactness_of_union_inductions_against_verma_censuses():
    # dimension bookkeeping of the two frozen short exact sequences: each
    # plain-Borel Verma with anchor (a, b, -b, -c) is an extension of
    # Ind(anchor) by Ind(anchor -/+ (eps2 - delta1)).  The anchor reads as
    # the tuple (a, b-1, b-1, c) in the first Borel and (a, b, b, c) in the
    # second.
    a, b, c = 2, 1, 3
    lam = (a, b, -b, -c)
    depth = 5
    main0 = verma_realization(2, (), (a, b - 1, b - 1, c), depth)
    main1 = verma_realization(2, (1,), (a, b, b, c), depth)
    assert main0.datum.hw == lam and main1.datum.hw == lam
    # the union realizations measure depth in the first Borel's functional,
    # which lags the second Borel's by at most two per odd step: margins
    # below make their tables complete over both Verma regions
    quot = Realization(union_borel_datum(2, [(), (1,)], lam), depth + 2).census().table
    sub0 = Realization(
        union_borel_datum(2, [(), (1,)], (a, b - 1, -(b - 1), -c)), depth + 3
    ).census().table
    sub1 = Realization(
        union_borel_datum(2, [(), (1,)], (a, b + 1, -(b + 1), -c)), depth + 3
    ).census().table
    for main, sub in ((main0, sub0), (main1, sub1)):
        for w, dims in main.census().table.items():
            q = quot.get(w, (0, 0))
            s = sub.get(w, (0, 0))
            assert dims == (q[0] + s[0], q[1] + s[1]), w


# ---------------------------------------------------------------------------
# Algebraic invariants of the action.


def sample_realizations():
    return [
        verma_realization(2, (1,), (2, 0, -1, -3), 4),
        verma_realization(2, (), (1, 1, -1, -1), 4),
        bg_realization(2, (2, -1, 2, -1), 4),
        Realization(union_borel_datum(2, [(), (1,)], (2, 1, -1, -3)), 4),
    ]


@pytest.mark.parametrize("r", sample_realizations())
def test_action_is_weight_homogeneous(r):
    n = r.datum.n
    for w in list(r.weight_spaces)[:6]:
        for bv in r.weight_spaces[w]:
            for unit in root_units(n):
                target = add_weights(w, root_weight(n, root_of(n, unit)))
                for bv2 in act_bvec(r, unit, bv):
                    assert r.vector_weight(bv2) == target


@pytest.mark.parametrize("r", sample_realizations())
def test_action_satisfies_brackets(r):
    n = r.datum.n
    units = root_units(n) + [(i, i) for i in range(1, 2 * n + 1)]
    basis = [bv for w in sorted(r.weight_spaces) for bv in r.weight_spaces[w]]
    for g1 in units:
        for g2 in units:
            for bv in basis[:10]:
                lhs: dict = {}
                for mid, c in act_bvec(r, g2, bv).items():
                    for out, c2 in act_bvec(r, g1, mid).items():
                        lhs[out] = lhs.get(out, Fraction(0)) + c * c2
                sign = (-1) ** (unit_parity(n, g1) * unit_parity(n, g2))
                for mid, c in act_bvec(r, g1, bv).items():
                    for out, c2 in act_bvec(r, g2, mid).items():
                        lhs[out] = lhs.get(out, Fraction(0)) - sign * c * c2
                rhs: dict = {}
                for unit, coef in bracket(n, g1, g2):
                    for out, c in act_bvec(r, unit, bv).items():
                        rhs[out] = rhs.get(out, Fraction(0)) + coef * c
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, (g1, g2, bv)


def test_cartan_units_act_by_weight_coordinates():
    r = verma_realization(2, (2, 1), (3, 0, -1, -2), 3)
    for w, basis in r.weight_spaces.items():
        for i in range(1, 5):
            m = r.unit_matrix((i, i), w)
            assert m.nrows == m.ncols == len(basis)
            for a in range(len(basis)):
                for b in range(len(basis)):
                    assert m.entries.get((a, b), 0) == (w[i - 1] if a == b else 0)


def test_odd_unit_squares_to_zero_on_module():
    r = verma_realization(2, (), (2, 1, -1, -3), 4)
    checked = 0
    for w in r.weight_spaces:
        target = add_weights(w, root_weight(2, (3, 2)))
        double = add_weights(target, root_weight(2, (3, 2)))
        if max(r.datum.depth_of(target), r.datum.depth_of(double)) > r.depth:
            continue
        square = matmul(r.unit_matrix((3, 2), target), r.unit_matrix((3, 2), w))
        assert square.entries == {}
        checked += 1
    assert checked > 0


def test_parity_tracks_weight_parity():
    # with the anchor-parity convention, a vector's parity is determined by
    # the delta-part of its weight
    for r in sample_realizations():
        for w, basis in r.weight_spaces.items():
            for bv in basis:
                assert vector_parity(r, bv) == r.space_parity(w) == par(r.datum.n, w)


def test_truncation_overflow_is_raised_not_dropped():
    r = verma_realization(1, (), (3, 5), 0)
    v = {r.monomial({}): ONE}
    with pytest.raises(TruncationOverflow) as info:
        r.act_unit((2, 1), v)
    assert info.value.needed == 1
    assert info.value.depth == 0
    # a map leaving the region names the first space outside it, the
    # source before the target, and the depth that space needs
    hw = r.datum.hw
    below = add_weights(hw, root_weight(1, (2, 1)))
    for unit, source, weight, needed in (
        ((2, 1), hw, below, 1),
        ((1, 2), below, below, 1),
        ((2, 1), below, below, 1),
    ):
        with pytest.raises(TruncationOverflow) as info:
            r.unit_matrix(unit, source)
        assert (info.value.weight, info.value.needed, info.value.depth) == (weight, needed, 0)
    # raising out of the cone is fine: the target space is genuinely zero
    m = r.unit_matrix((1, 2), r.datum.hw)
    assert m.nrows == 0 and m.ncols == 1


@pytest.mark.parametrize("n", [2, 3])
def test_a_map_into_an_empty_space_is_zero_unstraightened(n):
    # on the layouts of the default sweeps (every Borel, the default depth),
    # a map whose target lies in the region but holds no basis vector is
    # the zero map of full shape: every column, straightened on a layout
    # that map_entries never touched, is empty
    from superverma.superalgebra import all_units, is_cartan
    from superverma.verify import DEFAULT_DEPTH

    depth, zero = DEFAULT_DEPTH[n], (0,) * (2 * n)
    units = [u for u in all_units(n) if not is_cartan(u)]
    empty = 0
    for label in all_borels(n):
        layout = verma_realization(n, label, zero, depth).layout
        fresh = verma_realization(n, label, zero, depth).layout
        for unit, off in product(units, list(layout.spaces)):
            target = add_weights(off, root_weight(n, unit))
            if tuple_cost(layout, target) > depth or target in layout.spaces:
                continue
            cols = layout.spaces[off]
            assert layout.map_entries(unit, off) == (0, len(cols), {}), (label, unit, off)
            assert all(fresh.act(unit, bvec) == {} for bvec in cols), (label, unit, off)
            empty += 1
    assert empty


# ---------------------------------------------------------------------------
# Singular vectors.


def test_singular_vectors_at_the_top():
    r = verma_realization(2, (1,), (3, 1, 0, -2), 3)
    found = singular_vectors(r, (1,), r.datum.hw)
    assert len(found) == 1
    parity, vec = found[0]
    assert vec == {r.monomial({}): ONE}
    assert parity == vector_parity(r, r.monomial({}))


def test_gl11_singular_vectors_follow_atypicality():
    typical = verma_realization(1, (), (3, 5), 6)
    assert singular_vectors(typical, (), (2, -4)) == []
    atypical = verma_realization(1, (), (3, 3), 6)
    top = singular_vectors(atypical, (), (3, -3))
    below = singular_vectors(atypical, (), (2, -2))
    assert len(top) == 1 and len(below) == 1
    assert top[0][0] != below[0][0]


def test_singular_vectors_are_killed_by_raising_operators():
    # the tuple (3, 1 | 1, 0) matches in its middle entries, so a singular
    # vector exists one step below the top
    r = verma_realization(2, (), (3, 1, 1, 0), 5)
    hits = 0
    for w in sorted(r.weight_spaces):
        if w == r.datum.hw:
            continue
        try:
            found = singular_vectors(r, (), w)
        except TruncationOverflow:
            continue
        for _parity, vec in found:
            hits += 1
            for alpha in [(1, 2), (2, 3), (3, 4)]:
                assert r.act_unit(alpha, vec) == {}
    assert hits > 0


# ---------------------------------------------------------------------------
# Parabolic inductions through genuine Levi modules.


def test_enlarged_borel_module_agrees_with_flat_realization():
    # matched and unmatched diagonals, via gl(1|1) factor modules
    for t in [(2, -1, 2, -1), (2, -1, 2, 5), (0, 0, 1, 0)]:
        specs = [("simple", t[0], t[2]), ("simple", t[1], t[3])]
        assert bg_module(2, specs, 5).census() == bg_realization(2, t, 5).census()


def test_enlarged_borel_census_matches_character_rank3():
    t = (2, 1, -1, 2, 0, -1)
    assert bg_realization(3, t, 4).census() == bg_character(3, t, 4)


def test_hypercube_verma_module_agrees_with_hypercube_borel_verma():
    # inducing a tensor of diagonal rank-1 Vermas realizes the Verma of the
    # matching hypercube Borel
    t = (3, 1, -1, -2)
    for gamma in product((0, 1), repeat=2):
        specs = [
            ("verma_delta" if g else "verma_eps", t[k], t[2 + k])
            for k, g in enumerate(gamma)
        ]
        from superverma.borels import hypercube_label

        label = hypercube_label(2, gamma)
        got = bg_module(2, specs, 4).census()
        assert got == verma_character(2, label, t, 4)


def test_first_pair_parabolic_census_is_star_product_verma():
    t = (3, 1, -2, -4)
    for b2 in [(), (1,)]:
        pr = parabolic_IJ_realization(2, (), b2, t, 4)
        joined = star(1, (), 1, b2)
        assert pr.census() == verma_character(2, joined, t, 4)


def test_first_pair_parabolic_census_rank3():
    t = (3, 1, 0, -1, -2, -4)
    pr = parabolic_IJ_realization(3, (), (1,), t, 3)
    joined = star(1, (), 2, (1,))
    assert pr.census() == verma_character(3, joined, t, 3)


def test_parabolic_action_respects_brackets():
    r = parabolic_IJ_realization(2, (), (1,), (3, 1, -2, -4), 3)
    n = 2
    units = root_units(n)
    basis = [bv for w in sorted(r.weight_spaces) for bv in r.weight_spaces[w]]
    for g1 in units:
        for g2 in units:
            for bv in basis[:6]:
                lhs: dict = {}
                for mid, c in act_bvec(r, g2, bv).items():
                    for out, c2 in act_bvec(r, g1, mid).items():
                        lhs[out] = lhs.get(out, Fraction(0)) + c * c2
                sign = (-1) ** (unit_parity(n, g1) * unit_parity(n, g2))
                for mid, c in act_bvec(r, g1, bv).items():
                    for out, c2 in act_bvec(r, g2, mid).items():
                        lhs[out] = lhs.get(out, Fraction(0)) - sign * c * c2
                rhs: dict = {}
                for unit, coef in bracket(n, g1, g2):
                    for out, c in act_bvec(r, unit, bv).items():
                        rhs[out] = rhs.get(out, Fraction(0)) + coef * c
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, (g1, g2, bv)


def test_tensor_levi_interleaves_signs():
    # an odd unit hitting the second factor picks up the parity of the first
    levi = bg_module_levi(2, [("verma_eps", 3, 3), ("verma_eps", 1, 1)])
    tops = [[w for w, _p in f.states].index(f.hw) for f in levi.factors]
    lows = [1 - i for i in tops]
    # the top of each atypical rank-1 Verma is odd, the state below it even
    assert [f.states[i][1] for f, i in zip(levi.factors, tops)] == [1, 1]
    assert [f.states[i][1] for f, i in zip(levi.factors, lows)] == [0, 0]
    # e_{4,2} lowers the second factor; over an odd first-factor state the
    # structure sign flips
    index = levi._index
    assert levi.unit_terms((4, 2), index[(lows[0], tops[1])]) == [
        (index[(lows[0], lows[1])], ONE)
    ]
    assert levi.unit_terms((4, 2), index[(tops[0], tops[1])]) == [
        (index[(tops[0], lows[1])], -ONE)
    ]


def test_bg_levi_factors_act_inside_their_region():
    # every factor kind: each levi root vector on each state stays inside
    # the factor's truncation region, so no action overflows
    specs = [("verma_eps", 2, 2), ("verma_delta", 1, 1), ("simple", 0, 0), ("simple", 3, 1)]
    levi = bg_module_levi(4, specs)
    assert [len(f.states) for f in levi.factors] == [2, 2, 1, 2]
    for f in levi.factors:
        for unit in f.roots:
            for state in range(len(f.states)):
                f.unit_terms(unit, state)


def _factor_levis():
    """The bg levis at ranks 2 and 3 and the levis of the rank-3 functor
    identity case."""
    yield bg_module_levi(2, [("verma_eps", 2, 2), ("simple", 3, 1)])
    yield bg_module_levi(3, [("verma_eps", 2, 2), ("verma_delta", 1, 1), ("simple", 0, 0)])
    yield parabolic_IJ_levi(3, (), (1,), (1, 1, 0, 1, 1, 0), 4)
    yield parabolic_IJ_levi(3, (), (2, 1), (0, 1, 0, 0, 1, 0), 3)


def _column_terms(f: RealizationFactor, unit, state: int):
    """The other side of ``unit_terms``: the nonzero column of the factor's
    unit matrix at the state's weight, with each row numbered as a state;
    ``None`` where the matrix leaves the factor's truncation."""
    r = f.realization
    weights = sorted(r.weight_spaces)
    first = dict(zip(weights, accumulate((len(r.weight_spaces[w]) for w in weights), initial=0)))
    w = next(w for w in reversed(weights) if first[w] <= state)
    local = (f.coord_map.index(unit[0]) + 1, f.coord_map.index(unit[1]) + 1)
    try:
        matrix = r.unit_matrix(local, w)
    except TruncationOverflow:
        return None
    target = first[add_weights(w, root_weight(r.datum.n, local))] if matrix.nrows else 0
    return [
        (target + row, value)
        for (row, col), value in sorted(matrix.entries.items())
        if col == state - first[w]
    ]


def test_factor_terms_are_the_columns_of_the_factor_matrices(monkeypatch):
    # the terms are read from the factor's straightening memo; a column of
    # the factor's unit matrix is the other side, wherever that matrix
    # stays inside the truncation
    factors = [f for levi in _factor_levis() for f in levi.factors]
    calls = [(f, unit, s) for f in factors for unit in sorted(f.roots) for s in range(len(f.states))]

    def refused(self, unit, source):
        raise AssertionError("unit_terms built a unit matrix")

    monkeypatch.setattr(Realization, "unit_matrix", refused)
    got = []
    for f, unit, s in calls:
        try:
            got.append(f.unit_terms(unit, s))
        except TruncationOverflow:
            got.append(None)
    monkeypatch.undo()
    compared = 0
    for (f, unit, s), terms in zip(calls, got):
        want = _column_terms(f, unit, s)
        if want is not None:
            assert terms == want, (f.coord_map, unit, s)
            compared += bool(want)
    assert compared > 50


def test_bg_datum_is_the_nonnegative_good_degree_part():
    # the parabolic of the principal good grading: the standard even
    # positives, the odd roots positive for both staircases, and the
    # diagonal gl(1|1) levi
    for n in (1, 2, 3, 4):
        datum = bg_module_datum(n, [("simple", 0, 0)] * n)
        diagonal = {(k, n + k) for k in range(1, n + 1)} | {(n + k, k) for k in range(1, n + 1)}
        evens = {
            (block + i, block + j)
            for block in (0, n)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        assert datum.levi_roots == diagonal
        assert datum.inducing_roots == evens | common_odd_roots(n) | diagonal


# ---------------------------------------------------------------------------
# Randomized structure checks.


@settings(max_examples=25, deadline=None)
@given(
    t=st.tuples(*[st.integers(min_value=-2, max_value=2)] * 4),
    label_idx=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_random_actions_preserve_weight_and_parity(t, label_idx, data):
    label = all_borels(2)[label_idx]
    r = verma_realization(2, label, t, 3)
    weights = sorted(r.weight_spaces)
    w = data.draw(st.sampled_from(weights))
    bv = data.draw(st.sampled_from(r.weight_spaces[w]))
    unit = data.draw(st.sampled_from(root_units(2)))
    target = add_weights(w, root_weight(2, root_of(2, unit)))
    expected_parity = (vector_parity(r, bv) + unit_parity(2, unit)) % 2
    for bv2 in act_bvec(r, unit, bv):
        assert r.vector_weight(bv2) == target
        assert vector_parity(r, bv2) == expected_parity


# ---------------------------------------------------------------------------
# Views of one shared layout.


def _check_representation(r, basis_count):
    """The bracket relations, Cartan units acting by weight coordinates and
    odd units squaring to zero, on one realization."""
    n = r.datum.n
    units = root_units(n) + [(i, i) for i in range(1, 2 * n + 1)]
    basis = [bv for w in sorted(r.weight_spaces) for bv in r.weight_spaces[w]]
    for g1 in units:
        for g2 in units:
            for bv in basis[:basis_count]:
                lhs: dict = {}
                for mid, c in act_bvec(r, g2, bv).items():
                    for out, c2 in act_bvec(r, g1, mid).items():
                        lhs[out] = lhs.get(out, 0) + c * c2
                sign = (-1) ** (unit_parity(n, g1) * unit_parity(n, g2))
                for mid, c in act_bvec(r, g1, bv).items():
                    for out, c2 in act_bvec(r, g2, mid).items():
                        lhs[out] = lhs.get(out, 0) - sign * c * c2
                rhs: dict = {}
                for unit, coef in bracket(n, g1, g2):
                    for out, c in act_bvec(r, unit, bv).items():
                        rhs[out] = rhs.get(out, 0) + coef * c
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, (r.datum.hw, g1, g2, bv)
    for w, basis_w in r.weight_spaces.items():
        for i in range(1, 2 * n + 1):
            m = r.unit_matrix((i, i), w)
            assert m.entries == {(a, a): w[i - 1] for a in range(len(basis_w)) if w[i - 1]}
    odd = [u for u in root_units(n) if unit_parity(n, u)]
    squares = 0
    for w in r.weight_spaces:
        for unit in odd:
            step = root_weight(n, unit)
            target = add_weights(w, step)
            if max(r.datum.depth_of(w) for w in (target, add_weights(target, step))) > r.depth:
                continue
            assert matmul(r.unit_matrix(unit, target), r.unit_matrix(unit, w)).entries == {}
            squares += 1
    assert squares > 0


@pytest.mark.parametrize(
    "label, tuples, depth, basis_count",
    [
        ((1,), [(0, 0, 0, 0), (2, 1, -1, -2), (1, 0, 1, 0), (-2, 1, 2, 2), (1, 2, 0, -1)], 6, 10),
        (
            (2, 1),
            [(1, 0, 1, 1, 0, 1), (2, 1, 0, -1, -2, 1), (0, 0, 0, 0, 0, 0), (2, 0, 1, 1, 0, 2)],
            4,
            4,
        ),
    ],
)
def test_views_of_a_shared_layout_match_their_own_layouts(label, tuples, depth, basis_count):
    from superverma.borels import odd_simple_roots
    from superverma.homology import ds_borel_label, ds_homology

    n = len(tuples[0]) // 2
    alphas = odd_simple_roots(n, label)
    views = []
    for t in tuples:
        views.append(verma_realization(n, label, t, depth, views[0].layout if views else None))
    assert all(v.layout is views[0].layout for v in views)
    matched = [
        any(bilinear_form(n, v.datum.hw, root_weight(n, a)) == 0 for a in alphas) for v in views
    ]
    assert any(matched) and not all(matched)
    # interleave the views so each one reads memo entries another one filled
    on_slice = []
    for rounds in range(2):
        for view, t in zip(views, tuples):
            alone = verma_realization(n, label, t, depth)
            for alpha in alphas:
                for w in sorted(alone.weight_spaces):
                    assert view.unit_matrix(alpha, w) == alone.unit_matrix(alpha, w), (t, w)
                warm, cold = ds_homology(view, alpha), ds_homology(alone, alpha)
                assert warm.dim_table == cold.dim_table
                _assert_same_classes(warm, cold)
                assert _certificate(label, warm) == _certificate(label, cold), (t, alpha)
                if bilinear_form(n, view.datum.hw, root_weight(n, alpha)) == 0:
                    on_slice.append(warm)
            assert view.census() == alone.census()
            if rounds == 0:
                _check_representation(view, basis_count)
    # on Verma data no certificate reads an anchor-dependent coefficient
    made = []
    for alpha in alphas:
        target = ds_borel_label(n, label, alpha)
        valid = depth - abs(views[0].datum.xi(root_weight(n, alpha)))
        made += _certificates_made([r for r in on_slice if r.alpha == alpha], target, valid)
    assert made and all(reads == set() for _cert, reads in made)


def _certificates_made(results, target, valid) -> list:
    """``(certificate, forms read)`` of the doubled-Verma certificate of each
    result for the target label, made on a copy of the result whose reads
    start empty; each read is one of the forms the oracle lists for the maps
    that certification may apply."""
    from dataclasses import replace

    from superverma.homology import certify_verma_iso
    from superverma.weights import pr_alpha, to_tuple

    made = []
    for result in results:
        n, alpha, hw = result.n, result.alpha, result.source.datum.hw
        listed = set(certificate_forms(result.source.layout, alpha, target, valid))
        copy = replace(result, reads=set())
        cert = certify_verma_iso(copy, target, to_tuple(n - 1, pr_alpha(n, hw, alpha), target))
        assert copy.reads <= listed, (alpha, copy.reads)
        made.append((cert, copy.reads))
    return made


def _assert_same_classes(warm, cold):
    """Classes of a view of a shared layout equal those of a lone layout."""
    for w in warm.dim_table:
        got, want = warm.classes_at(w), cold.classes_at(w)
        assert got.offset == want.offset == sub_weights(w, warm.source.datum.hw)
        assert got.basis == want.basis
        assert (got.kernel, got.image) == (want.kernel, want.image), w
        assert got.reps == want.reps, w


def _certificate(label, result):
    """The certificate the conjecture scenario asks for at this anchor."""
    from superverma.homology import certify_verma_iso, certify_zero, ds_borel_label
    from superverma.weights import pr_alpha, to_tuple

    n, alpha, hw = result.n, result.alpha, result.source.datum.hw
    if bilinear_form(n, hw, root_weight(n, alpha)) != 0:
        return certify_zero(result)
    target = ds_borel_label(n, label, alpha)
    return certify_verma_iso(result, target, to_tuple(n - 1, pr_alpha(n, hw, alpha), target))


@pytest.mark.parametrize(
    "n, label, depth, simple_only",
    [(2, b, 6, True) for b in all_borels(2)] + [(2, (), 6, False), (3, (2, 1), 4, True)],
)
def test_anchor_signature_determines_the_blocks(n, label, depth, simple_only):
    # the sweep gives one verdict to anchors where every form a homology run
    # read takes one value; the forms of a simple root are L and -L for one
    # L, other odd roots have several independent forms, so the run must
    # read the form of every anchor-dependent entry of every map around the
    # slice, and anchors of one level where those forms agree read equal maps
    from functools import cache

    from superverma.borels import odd_simple_roots
    from superverma.homology import ds_borel_label, ds_homology
    from superverma.superalgebra import all_roots, is_odd_root

    layout = verma_realization(n, label, (0,) * (2 * n), depth).layout
    grid = list(product(range(-2, 3) if n == 2 else range(-1, 2), repeat=2 * n))
    odd = [r for r in all_roots(n) if is_odd_root(n, r)]
    for alpha in sorted(odd_simple_roots(n, label) if simple_only else odd):
        rw = root_weight(n, alpha)
        valid = depth - abs(verma_datum(n, label, (0,) * (2 * n)).xi(rw))
        in_region = [off for off in layout.spaces if layout.cost(off) <= valid]

        @cache
        def on_level(level):
            return [off for off in in_region if bilinear_form(n, off, rw) == level]

        @cache
        def around(level):
            # the sources of every map out of or into the slice
            return sorted({s for off in on_level(level) for s in (off, sub_weights(off, rw))})

        first: dict = {}
        views = []
        for t in grid:
            view = verma_realization(n, label, t, depth, layout)
            views.append(view)
            level = view.level(alpha)
            assert list(layout.slice_of(alpha, valid, level)) == on_level(level)
            result = ds_homology(view, alpha)
            reads = sorted(result.reads)
            # an empty slice reads nothing, and every count is zero
            if not on_level(level):
                assert reads == [] and not result.support(), (alpha, t)
            # every anchor-dependent entry of the maps around the slice is a
            # constant plus one of the forms the run read
            for source in around(level):
                _nrows, _ncols, entries = layout.map_entries(alpha, source)
                for entry in entries.values():
                    if type(entry) is not int:
                        assert entry.terms in result.reads, (alpha, source, entry.terms)
            hw = view.datum.hw
            # the maps around the slice at this anchor (they fix no parity)
            seen = [view.unit_matrix(alpha, add_weights(hw, s)) for s in around(level)]
            key = (level, form_values(reads, hw))
            assert first.setdefault(key, seen) == seen, (alpha, t)
        assert len(first) < len(grid)
        assert len({level for level, _values in first if on_level(level)}) > 1
        if n == 2 and alpha in odd_simple_roots(n, label):
            # on Verma data every map that certification reads is constant
            target = ds_borel_label(n, label, alpha)
            assert certificate_forms(layout, alpha, target, valid) == ()
            assert _certified_maps_follow_the_forms(views, alpha, target, valid) == 1


def _certified_maps_follow_the_forms(views, alpha, target, valid) -> int:
    """Views of one layout where the oracle's certificate forms take equal
    values have equal matrices for every map that certification may apply.
    Returns the number of distinct values."""
    layout = views[0].layout
    maps = certified_maps(layout, alpha, target, valid)
    assert maps
    forms = certificate_forms(layout, alpha, target, valid)
    first: dict = {}
    for view in views:
        hw = view.datum.hw
        matrices = [view.unit_matrix(u, add_weights(hw, off)) for u, off in maps]
        assert first.setdefault(form_values(forms, hw), matrices) == matrices, (alpha, hw)
    return len(first)


def test_certificates_agree_where_certified_maps_depend_on_the_anchor():
    # on the enlarged-Borel module of unmatched tuples, the lifted raising
    # unit of e_14 acts through a Cartan bracket, so the certificate forms
    # are not empty; views where they take equal values read equal maps,
    # and each view's (refuted) certificate, whose reads the oracle lists,
    # equals the one of a lone layout
    from superverma.homology import ds_homology

    alpha, target, depth = (1, 4), (1,), 6
    grid = [t for t in product(range(-1, 2), repeat=4) if t[0] != t[2] and t[1] != t[3]]
    views = []
    for t in grid:
        views.append(Realization(bg_datum(2, t), depth, layout=views[0].layout if views else None))
    valid = ds_homology(views[0], alpha).valid_depth
    assert certificate_forms(views[0].layout, alpha, target, valid)
    assert 1 < _certified_maps_follow_the_forms(views, alpha, target, valid) < len(views)
    warm = _certificates_made([ds_homology(view, alpha) for view in views], target, valid)
    lone = [ds_homology(Realization(view.datum, depth), alpha) for view in views]
    assert warm == _certificates_made(lone, target, valid)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["verma", "bg", "union", "parabolic"]), st.data())
def test_depth_of_is_xi_of_the_difference(kind, data):
    coord = st.integers(min_value=-6, max_value=6)
    n = 2 if kind == "union" else data.draw(st.integers(min_value=1, max_value=3))
    t = data.draw(st.tuples(*[coord] * (2 * n)))
    if kind == "verma":
        datum = verma_datum(n, data.draw(st.sampled_from(list(all_borels(n)))), t)
    elif kind == "bg":
        datum = bg_datum(n, t)
    elif kind == "union":
        datum = union_borel_datum(2, [(), (1,)], (t[0], t[1], -t[1], t[3]))
    else:
        datum = bg_module_datum(n, [("verma_eps", a, b) for a, b in zip(t[:n], t[n:])])
    weight = data.draw(st.tuples(*[coord] * (2 * n)))
    assert datum.depth_of(weight) == datum.xi(sub_weights(datum.hw, weight))
    with pytest.raises(ValueError):
        datum.depth_of(weight[1:])


def test_a_layout_refuses_a_datum_of_another_shape():
    r = verma_realization(2, (1,), (0, 0, 0, 0), 3)
    with pytest.raises(ValueError, match="layout"):
        verma_realization(2, (), (0, 0, 0, 0), 3, r.layout)
    with pytest.raises(ValueError, match="layout"):
        verma_realization(2, (1,), (0, 0, 0, 0), 4, r.layout)
