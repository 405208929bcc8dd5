"""Tests for weights, tuple encoding, atypicality, and characters."""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma.borels import (
    all_borels,
    b_outer,
    ber_weight,
    height_functional,
    rho_vector,
)
from superverma.modules import Realization, gl11_simple_datum
from superverma.superalgebra import is_odd_root, root_weight
from superverma.weights import (
    atypicality,
    bg_character,
    canonical_odd_pair,
    common_odd_roots,
    from_tuple,
    in_lambda_BG,
    in_lambda_maBG,
    par,
    pr_alpha,
    sub_weights,
    to_tuple,
    verma_character,
)

from oracles import bilinear_form, verma_weight_multiplicity


def tuples_strategy(n: int, lo: int = -2, hi: int = 2):
    return st.tuples(*[st.integers(min_value=lo, max_value=hi)] * (2 * n))


def atypicality_bruteforce(t) -> int:
    """Maximum set of pairwise-orthogonal odd roots orthogonal to the tuple."""
    n = len(t) // 2
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if t[i - 1] == t[n + j - 1]
    ]
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for subset in combinations(edges, size):
            rows = {i for i, _ in subset}
            cols = {j for _, j in subset}
            if len(rows) == size and len(cols) == size:
                best = size
                break
    return best


def test_bilinear_form_pins():
    n = 2
    eps1 = (1, 0, 0, 0)
    del1 = (0, 0, 1, 0)
    assert bilinear_form(n, eps1, eps1) == 1
    assert bilinear_form(n, del1, del1) == -1
    alpha = root_weight(n, (1, 3))
    assert bilinear_form(n, ber_weight(n), alpha) == 0
    assert bilinear_form(n, alpha, alpha) == 0  # odd roots are isotropic
    with pytest.raises(ValueError):
        bilinear_form(2, (1, 0), (1, 0))


def test_ber_orthogonal_to_all_roots():
    from superverma.superalgebra import all_roots

    for n in (1, 2, 3):
        for r in all_roots(n):
            assert bilinear_form(n, ber_weight(n), root_weight(n, r)) == 0


def test_to_tuple_pin_rank2():
    # the zero weight picks up exactly the standard rho
    assert rho_vector(2, ()) == (0, -1, 1, 0)
    assert to_tuple(2, (0, 0, 0, 0)) == (0, -1, -1, 0)


def test_from_tuple_outer_staircase_is_plain_reading():
    # for the outer staircase (rho = 0) the tuple reads off the weight with
    # negated delta block
    t = (3, 1, 0, -2)
    assert from_tuple(2, t, b_outer(2)) == (3, 1, 0, 2)


def test_tuple_round_trip_examples():
    # actual weight a eps1 + b eps2 - b del1 - c del2
    a, b, c = 5, 2, -3
    lam = (a, b, -b, -c)
    assert to_tuple(2, lam, ()) == (a, b - 1, b - 1, c)
    assert to_tuple(2, lam, (1,)) == (a, b, b, c)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_tuple_round_trip_random(n, data):
    t = data.draw(tuples_strategy(n, -4, 4))
    for label in all_borels(n):
        assert to_tuple(n, from_tuple(n, t, label), label) == t
    lam = data.draw(tuples_strategy(n, -4, 4))
    assert from_tuple(n, to_tuple(n, lam, ()), ()) == lam


def test_atypicality_pins():
    assert atypicality((5, 7, 5, 7)) == 2
    assert atypicality((1, 2, 3, 4)) == 0
    assert atypicality((3, 3)) == 1
    assert atypicality((1, 1, 2, 1, 1, 1)) == 2
    assert atypicality(()) == 0


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_atypicality_matches_bruteforce(n, data):
    t = data.draw(tuples_strategy(n))
    assert atypicality(t) == atypicality_bruteforce(t)


@settings(max_examples=100)
@given(st.data())
def test_atypicality_weyl_invariance(data):
    t = data.draw(tuples_strategy(3))
    first = data.draw(st.permutations(t[:3]))
    second = data.draw(st.permutations(t[3:]))
    assert atypicality(tuple(first) + tuple(second)) == atypicality(t)


def test_par():
    assert par(2, (0, 0, 0, 0)) == 0
    assert par(2, ber_weight(2)) == 0
    assert par(3, ber_weight(3)) == 1
    for n in (1, 2, 3):
        from superverma.superalgebra import all_roots

        for r in all_roots(n):
            w = root_weight(n, r)
            assert par(n, w) == (1 if is_odd_root(n, r) else 0)


@settings(max_examples=50)
@given(st.data())
def test_par_additive(data):
    x = data.draw(tuples_strategy(2))
    y = data.draw(tuples_strategy(2))
    assert par(2, tuple(a + b for a, b in zip(x, y))) == (par(2, x) + par(2, y)) % 2


def test_projections():
    lam = ("x1", "x2", "y1", "y2")
    assert pr_alpha(2, lam, (1, 3)) == ("x2", "y2")
    assert pr_alpha(2, lam, (3, 1)) == ("x2", "y2")  # either orientation
    assert pr_alpha(2, lam, (2, 3)) == ("x1", "y2")
    a, b = 4, -1
    assert pr_alpha(2, (a, b, a, b), (1, 3)) == (b, b)
    assert pr_alpha(2, (0, 0, 0, 0), (2, 3)) == (0, 0)
    with pytest.raises(ValueError):
        pr_alpha(2, lam, (1, 2))
    assert canonical_odd_pair(2, (4, 2)) == (2, 4)


def test_pr_concatenation_recovers():
    # deleting the first pair leaves the rest: the rank n-1 part of a weight
    lam = (1, 2, 3, 4, 5, 6)
    i_part = (lam[0], lam[3])
    j_part = pr_alpha(3, lam, (1, 4))
    assert sorted(i_part + j_part) == sorted(lam)
    assert j_part == (2, 3, 5, 6)


def test_lambda_families():
    assert in_lambda_maBG((4, -1, 4, -1))
    assert not in_lambda_maBG((1, 1, 1, 2))
    assert in_lambda_BG((1, 1, 1, 2))
    assert not in_lambda_BG((1, 2, 2, 1))
    assert in_lambda_BG((7, 7, 7, 7))


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_mabg_implies_bg(n, data):
    t = data.draw(tuples_strategy(n))
    if in_lambda_maBG(t):
        assert in_lambda_BG(t)


def test_common_odd_roots():
    assert common_odd_roots(1) == frozenset()
    assert common_odd_roots(2) == frozenset({(1, 4), (3, 2)})
    assert len(common_odd_roots(3)) == 6


def test_gl11_verma_character():
    # one odd root: support is the top weight and one step down
    char = verma_character(1, (), (3, 5), depth=4)
    top = from_tuple(1, (3, 5), ())
    assert top == (3, -5)
    assert set(char.table) == {top, (2, -4)}
    assert sum(char.dims(top)) == 1
    assert sum(char.dims((2, -4))) == 1
    # parity split: top has par = -5 mod 2 = 1
    assert char.dims(top) == (0, 1)
    assert char.dims((2, -4)) == (1, 0)


def test_gl11_simple_character():
    # the atypical simple is one-dimensional, the typical one is its Verma
    atypical = Realization(gl11_simple_datum(4), 2).census()
    assert atypical.table == {(4, -4): (1, 0)}
    typical = bg_character(1, (2, 0), depth=3)
    assert typical.table == {(2, 0): (1, 0), (1, 1): (0, 1)}


def test_verma_character_depth1_layer_gl22():
    t = to_tuple(2, (0, 0, 0, 0))
    char = verma_character(2, (), t, depth=1)
    top = (0, 0, 0, 0)
    heights = height_functional(2, ())
    layer1 = {
        w: sum(char.dims(w))
        for w in char.table
        if sum(h * (a - b) for h, a, b in zip(heights, top, w)) == 1
    }
    simple_steps = {
        sub_weights(top, root_weight(2, r)): 1 for r in [(1, 2), (2, 3), (3, 4)]
    }
    assert layer1 == simple_steps
    assert sum(char.dims(top)) == 1


@pytest.mark.parametrize("t", [(0, 0, 0, 0), (2, 0, 1, -1), (1, 1, 1, 0)])
def test_verma_character_borel_independent(t):
    chars = [verma_character(2, label, t, depth=4) for label in all_borels(2)]
    for i, base in enumerate(chars):
        for other in chars[i + 1 :]:
            assert base.disagreement(other) is None
            # each pairwise comparison covers a real overlap
            assert len(base.common_complete_support(other)) >= 5
    # even the intersection over all six regions is nonempty
    assert chars[0].common_complete_support(*chars[1:])


def test_verma_characters_differ_when_tuples_do():
    a = verma_character(2, (), (0, 0, 0, 0), depth=3)
    b = verma_character(2, (), (1, 0, 0, 0), depth=3)
    assert a.disagreement(b) is not None


def test_character_census_total():
    # dimension of the depth-k slice of a gl(1|1) Verma is 1 per layer
    char = verma_character(1, (1,), (2, 2), depth=6)
    assert sum(e + o for e, o in char.table.values()) == 2


def test_bg_character_gl11():
    # rank 1: atypical tuple gives the one-dimensional simple
    char = bg_character(1, (3, 3), depth=5)
    assert set(char.table) == {(3, -3)}
    typ = bg_character(1, (3, 1), depth=5)
    assert set(typ.table) == {(3, -1), (2, 0)}


def test_bg_character_mabg_gl22():
    t = (1, 0, 1, 0)
    char = bg_character(2, t, depth=3)
    top = from_tuple(2, t, b_outer(2))
    assert top == (1, 0, -1, 0)
    assert sum(char.dims(top)) == 1
    # no diagonal odd factors: both pairs atypical; weights drop only along
    # the two common odd roots and the even roots
    assert sum(char.dims(sub_weights(top, root_weight(2, (1, 3))))) == 0
    assert sum(char.dims(sub_weights(top, root_weight(2, (1, 4))))) == 1


def test_verma_weight_multiplicity_gl11():
    top = (3, -3)
    assert verma_weight_multiplicity(1, (), top, top) == 1
    assert verma_weight_multiplicity(1, (), top, (2, -2)) == 1
    assert verma_weight_multiplicity(1, (), top, (1, -1)) == 0
    assert verma_weight_multiplicity(1, (), top, (4, -4)) == 0


@pytest.mark.parametrize("label", [(), (1,), (2, 1)])
def test_verma_weight_multiplicity_matches_character(label):
    t = (1, 0, 0, -1)
    depth = 4
    char = verma_character(2, label, t, depth)
    top = from_tuple(2, t, label)
    for w in char.table:
        assert verma_weight_multiplicity(2, label, top, w) == sum(char.dims(w))
    # and a weight outside the support
    off = tuple(v + 1 for v in top)
    assert verma_weight_multiplicity(2, label, top, off) == 0


def test_character_json_round_trip():
    char = verma_character(1, (), (2, 1), depth=3)
    doc = json.loads(char.to_json())
    assert doc["n"] == 1
    assert doc["region"]["depth"] == 3
    weights = {tuple(entry["weight"]) for entry in doc["support"]}
    assert weights == set(char.table)
    for entry in doc["support"]:
        e, o = char.dims(tuple(entry["weight"]))
        assert (entry["even"], entry["odd"]) == (e, o)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=2), st.data())
def test_character_support_in_region(n, data):
    t = data.draw(tuples_strategy(n))
    label = data.draw(st.sampled_from(all_borels(n)))
    depth = data.draw(st.integers(min_value=0, max_value=4))
    char = verma_character(n, label, t, depth)
    for w, (e, o) in char.table.items():
        assert e >= 0 and o >= 0
        assert char.contains(w)
        assert char.xi(sub_weights(char.top, w)) >= 0


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_verma_totals_from_the_top_do_not_depend_on_the_tuple(n, data):
    # the doubled-Verma certificate is kept without its target tuple: in
    # offsets from the top, the target character has the same totals for
    # any two tuples of one label and depth
    label = data.draw(st.sampled_from(all_borels(n)))
    depth = data.draw(st.integers(min_value=0, max_value=4))

    def totals(t):
        char = verma_character(n, label, t, depth)
        return {sub_weights(w, char.top): e + o for w, (e, o) in char.table.items()}

    assert totals(data.draw(tuples_strategy(n))) == totals(data.draw(tuples_strategy(n)))


def test_bg_vs_verma_character_gl11():
    # rank 1 sanity: the product formula with a typical diagonal factor is
    # exactly the rank-1 Verma character
    t = (4, 2)
    bg = bg_character(1, t, depth=5)
    vm = verma_character(1, (), t, depth=5)
    assert bg.disagreement(vm) is None
    assert set(bg.table) == set(vm.table)
