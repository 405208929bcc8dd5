"""Tests for the Borel-subalgebra combinatorics."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma.borels import (
    all_borels,
    b_inner,
    b_outer,
    ber_weight,
    borel_graph,
    borel_graph_dot,
    borel_graph_json,
    conjugate_partition,
    coordinate_positions,
    format_label,
    hypercube_gamma,
    hypercube_label,
    label_of_sequence,
    normalize_label,
    odd_positive_roots,
    odd_reflection_neighbors,
    odd_simple_roots,
    parse_label,
    positive_roots,
    rho_half_sum,
    rho_vector,
    sequence_of,
    simple_roots,
    star,
)
from superverma.superalgebra import is_odd_root, root_weight

from oracles import antitranspose_label, complement_label, mapped_label


def box_labels(n: int) -> st.SearchStrategy:
    return st.sampled_from(all_borels(n))


def test_borel_counts():
    assert [len(all_borels(n)) for n in range(1, 6)] == [2, 6, 20, 70, 252]


def test_all_borels_n2_exact():
    assert all_borels(2) == ((), (1,), (1, 1), (2,), (2, 1), (2, 2))


def test_normalize_label():
    assert normalize_label((2, 1, 0, 0)) == (2, 1)
    assert normalize_label(()) == ()
    with pytest.raises(ValueError):
        normalize_label((1, 2))
    with pytest.raises(ValueError):
        normalize_label((3,), n=2)
    with pytest.raises(ValueError):
        normalize_label((1, 1, 1), n=2)
    with pytest.raises(ValueError):
        normalize_label((-1,))


def test_sequence_pins():
    assert sequence_of(1, ()) == "ed"
    assert sequence_of(1, (1,)) == "de"
    assert sequence_of(2, ()) == "eedd"
    assert sequence_of(2, (2, 2)) == "ddee"
    assert sequence_of(2, (1,)) == "eded"
    assert sequence_of(2, (2, 1)) == "dede"
    assert sequence_of(3, b_outer(3)) == "ededed"
    assert sequence_of(3, b_inner(3)) == "dedede"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sequence_round_trip(n):
    for label in all_borels(n):
        assert label_of_sequence(n, sequence_of(n, label)) == label


def test_label_of_sequence_rejects_garbage():
    with pytest.raises(ValueError):
        label_of_sequence(2, "eed")
    with pytest.raises(ValueError):
        label_of_sequence(2, "eeed")
    with pytest.raises(ValueError):
        label_of_sequence(2, "exdd")


def test_odd_positive_roots_pin_n2():
    # eps1 - delta1, eps1 - delta2, eps2 - delta2, delta1 - eps2
    assert odd_positive_roots(2, (1,)) == frozenset(
        {(1, 3), (1, 4), (2, 4), (3, 2)}
    )
    # all eps before all deltas
    assert odd_positive_roots(2, ()) == frozenset(
        {(1, 3), (1, 4), (2, 3), (2, 4)}
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_positive_roots_structure(n):
    standard_even = {
        (block + i, block + j)
        for block in (0, n)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    for label in all_borels(n):
        pos = positive_roots(n, label)
        assert len(pos) == n * (2 * n - 1)
        even = {r for r in pos if not is_odd_root(n, r)}
        assert even == standard_even
        # exactly one of each opposite pair is positive
        for r in pos:
            assert (r[1], r[0]) not in pos


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simple_roots(n):
    for label in all_borels(n):
        simple = simple_roots(n, label)
        assert len(simple) == 2 * n - 1
        pos = coordinate_positions(n, label)
        for p, q in simple:
            assert pos[q - 1] - pos[p - 1] == 1
        seq = sequence_of(n, label)
        changes = sum(1 for i in range(2 * n - 1) if seq[i] != seq[i + 1])
        assert len(odd_simple_roots(n, label)) == changes


def test_odd_simple_pin():
    # (1,1) <-> 'deed': odd simples are delta1 - eps1 and eps2 - delta2
    assert odd_simple_roots(2, (1, 1)) == ((3, 1), (2, 4))
    # eps1 - delta1 is simple for the all-eps-first Borel of gl(1|1)
    assert odd_simple_roots(1, ()) == ((1, 2),)


def test_neighbors_pins():
    assert odd_reflection_neighbors(1, ()) == ((1,),)
    assert odd_reflection_neighbors(3, ()) == ((1,),)
    assert odd_reflection_neighbors(3, (2, 1)) == (
        (1, 1),
        (2,),
        (2, 1, 1),
        (2, 2),
        (3, 1),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_neighbors_symmetric_and_box_step(n):
    for label in all_borels(n):
        for other in odd_reflection_neighbors(n, label):
            assert label in odd_reflection_neighbors(n, other)
            assert abs(sum(label) - sum(other)) == 1


def test_rho_pins():
    assert rho_vector(2, ()) == (0, -1, 1, 0)
    assert rho_vector(2, (1, 1)) == (1, 0, -1, 0)
    assert rho_vector(2, (2,)) == (0, 1, 0, -1)
    for n in range(1, 5):
        zero = (0,) * (2 * n)
        assert rho_vector(n, b_outer(n)) == zero
        assert rho_vector(n, b_inner(n)) == ber_weight(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rho_closed_form_matches_half_sum(n):
    for label in all_borels(n):
        assert rho_vector(n, label) == rho_half_sum(n, label)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rho_proportional_to_ber_only_at_staircases(n):
    ber = ber_weight(n)
    special = set()
    for label in all_borels(n):
        rho = rho_vector(n, label)
        # proportional to ber means rho = c * ber for a single scalar c
        scalars = {v / b for v, b in zip(rho, ber)}
        if len(scalars) == 1:
            special.add(label)
    assert special == {b_outer(n), b_inner(n)}


def test_hypercube_pins_n2():
    assert hypercube_label(2, (0, 0)) == (1,)
    assert hypercube_label(2, (1, 0)) == (1, 1)
    assert hypercube_label(2, (0, 1)) == (2,)
    assert hypercube_label(2, (1, 1)) == (2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hypercube_round_trip(n):
    seen = set()
    for gamma in product((0, 1), repeat=n):
        label = hypercube_label(n, gamma)
        assert hypercube_gamma(n, label) == gamma
        seen.add(label)
    assert len(seen) == 2**n
    assert hypercube_gamma(n, ()) is None or n == 1


def test_hypercube_factor_types():
    # gamma_k = 1 exactly when the k-th 'ed'/'de' pair of the sequence is 'de',
    # i.e. when delta_k - eps_k is positive.
    n = 3
    for gamma in product((0, 1), repeat=n):
        label = hypercube_label(n, gamma)
        pos = positive_roots(n, label)
        for k in range(1, n + 1):
            assert ((n + k, k) in pos) == (gamma[k - 1] == 1)


def test_star_pins():
    assert star(1, (), 1, ()) == (1,)
    assert star(1, (), 1, (1,)) == (2,)
    assert star(1, (1,), 1, ()) == (1, 1)
    assert star(1, (1,), 1, (1,)) == (2, 1)
    assert star(1, (), 2, (2, 1)) == (3, 2)
    assert star(1, (1,), 2, ()) == (1, 1, 1)


@pytest.mark.parametrize("n2", [1, 2, 3])
def test_star_first_simple_root(n2):
    # eps1 - delta1 is always simple for ()-star-anything
    for label in all_borels(n2):
        joined = star(1, (), n2, label)
        assert (1, n2 + 2) in odd_simple_roots(n2 + 1, joined)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_label_maps_match_root_maps(n):
    for label in all_borels(n):
        assert mapped_label(n, label, "c") == complement_label(n, label)
        assert mapped_label(n, label, "at") == antitranspose_label(n, label)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_label_maps_are_involutions(n):
    for label in all_borels(n):
        assert complement_label(n, complement_label(n, label)) == label
        assert antitranspose_label(n, antitranspose_label(n, label)) == label


def test_label_map_pins():
    assert complement_label(2, ()) == (2, 2)
    assert complement_label(2, (1,)) == (2, 1)
    assert complement_label(3, (2, 1)) == (3, 2, 1)
    assert antitranspose_label(2, (2,)) == (1, 1)
    assert antitranspose_label(3, (2, 1)) == (2, 1)
    assert conjugate_partition((3, 1), 3) == (2, 1, 1)


def test_format_label():
    assert format_label(()) == "()"
    assert format_label((1,)) == "(1)"
    assert format_label((2, 1, 1)) == "(21^2)"
    assert format_label((3, 3, 3)) == "(3^3)"
    assert format_label((2, 2, 1)) == "(2^21)"


def test_parse_label():
    assert parse_label("()") == ()
    assert parse_label("(21^2)") == (2, 1, 1)
    assert parse_label("21^2") == (2, 1, 1)
    assert parse_label("2,1,1") == (2, 1, 1)
    assert parse_label("(2^21)") == (2, 2, 1)
    with pytest.raises(ValueError):
        parse_label("(2x)")
    with pytest.raises(ValueError):
        parse_label("1,a")
    with pytest.raises(ValueError):
        parse_label("(12)")  # not weakly decreasing


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_format_parse_round_trip(n):
    for label in all_borels(n):
        assert parse_label(format_label(label)) == label


def test_graph_n3_shape():
    vertices, edges = borel_graph(3)
    assert len(vertices) == 20
    as_sets = {frozenset(e) for e in edges}
    assert frozenset({(), (1,)}) in as_sets
    hub = {
        frozenset({(2, 1), other})
        for other in [(1, 1), (2,), (2, 2), (3, 1), (2, 1, 1)]
    }
    assert hub <= as_sets
    # the 2^3 hypercube labels induce a 3-cube: edges exactly at Hamming
    # distance one
    cube = {gamma: hypercube_label(3, gamma) for gamma in product((0, 1), repeat=3)}
    for g1, l1 in cube.items():
        for g2, l2 in cube.items():
            dist = sum(a != b for a, b in zip(g1, g2))
            if dist == 1:
                assert frozenset({l1, l2}) in as_sets
            elif g1 != g2:
                assert frozenset({l1, l2}) not in as_sets


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graph_connected_and_bipartite(n):
    vertices, edges = borel_graph(n)
    adjacency = {v: set() for v in vertices}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
        assert sum(a) % 2 != sum(b) % 2  # bipartite by box count
    seen = {vertices[0]}
    frontier = [vertices[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert seen == set(vertices)


def test_graph_guard():
    with pytest.raises(ValueError):
        borel_graph(7)


def test_graph_emitters():
    dot = borel_graph_dot(2)
    assert dot.startswith("graph borels_2 {")
    assert '"()" -- "(1)";' in dot
    assert dot.count("--") == 6  # covers of the 2x2-box Young lattice
    import json as _json

    doc = _json.loads(borel_graph_json(2))
    assert doc["n"] == 2
    assert len(doc["vertices"]) == 6
    assert ["()", "(1)"] in doc["edges"]


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_rho_storage_sums(n, data):
    # closed-form consequences of the box formulas: the full storage sum of
    # rho vanishes, and its eps half is box count minus staircase size
    label = data.draw(st.sampled_from(all_borels(n)))
    rho = rho_vector(n, label)
    assert sum(rho) == 0
    assert sum(rho[:n]) == sum(label) - n * (n - 1) // 2


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_odd_reflection_changes_one_root_pair(n, data):
    label = data.draw(st.sampled_from(all_borels(n)))
    for other in odd_reflection_neighbors(n, label):
        diff = positive_roots(n, label) ^ positive_roots(n, other)
        assert len(diff) == 2
        a, b = sorted(diff)
        assert a == (b[1], b[0])
        assert is_odd_root(n, a)
        wa = root_weight(n, a)
        assert sum(wa) == 0
