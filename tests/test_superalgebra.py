"""gl(n|n) structure: bracket axioms, gradings, automorphisms."""

import random

import pytest

from superverma.superalgebra import (
    all_units,
    bracket,
    good_degree,
    index_parity,
    is_odd_root,
    root_of,
    root_units,
    root_weight,
    unit_parity,
)

from oracles import (
    Element,
    apply_automorphism,
    automorphism_at,
    automorphism_c,
    bracket_elements,
    map_root_at,
    map_root_c,
)


def brk(n, a, b):
    return dict(bracket(n, a, b))


def test_bracket_frozen_examples():
    assert brk(2, (1, 2), (2, 1)) == {(1, 1): 1, (2, 2): -1}
    assert brk(2, (1, 3), (1, 3)) == {}
    assert brk(2, (1, 3), (3, 1)) == {(1, 1): 1, (3, 3): 1}


def test_odd_self_bracket_of_odd_unit_with_shared_index():
    # [e13, e13] = 0 but [e13, e31] is a sum, not a difference: odd pairing
    assert brk(1, (1, 2), (2, 1)) == {(1, 1): 1, (2, 2): 1}


def test_parities():
    assert index_parity(2, 1) == 0
    assert index_parity(2, 3) == 1
    assert unit_parity(2, (1, 3)) == 1
    assert unit_parity(2, (3, 4)) == 0
    with pytest.raises(ValueError):
        index_parity(2, 5)


def test_root_of_corner_unit():
    n = 3
    r = root_of(n, (2 * n, 1))
    assert r == (6, 1)
    assert is_odd_root(n, r)
    assert root_weight(n, r) == (-1, 0, 0, 0, 0, 1)


def test_good_degree_examples():
    assert good_degree(2, (1, 3)) == 0
    assert good_degree(2, (1, 2)) == 1
    assert good_degree(2, (4, 1)) == -1
    assert good_degree(3, (1, 4)) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_super_antisymmetry_exhaustive(n):
    units = all_units(n)
    for a in units:
        for b in units:
            sign = -1 if unit_parity(n, a) and unit_parity(n, b) else 1
            lhs = brk(n, a, b)
            rhs = {u: -sign * c for u, c in bracket(n, b, a)}
            assert lhs == rhs, (a, b)


@pytest.mark.parametrize("n", [1, 2])
def test_super_jacobi_exhaustive(n):
    # derivation form: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
    units = {u: Element.unit(n, u) for u in all_units(n)}
    for xu, x in units.items():
        for yu, y in units.items():
            sign = -1 if unit_parity(n, xu) and unit_parity(n, yu) else 1
            for z in units.values():
                lhs = bracket_elements(x, bracket_elements(y, z))
                rhs = bracket_elements(bracket_elements(x, y), z) + bracket_elements(
                    y, bracket_elements(x, z)
                ).scale(sign)
                assert lhs == rhs, (x, y, z)


def test_super_jacobi_random_n3():
    n = 3
    units = all_units(n)
    rng = random.Random(20240817)
    for _ in range(10_000):
        xu, yu, zu = rng.choice(units), rng.choice(units), rng.choice(units)
        x, y, z = (Element.unit(n, u) for u in (xu, yu, zu))
        sign = -1 if unit_parity(n, xu) and unit_parity(n, yu) else 1
        lhs = bracket_elements(x, bracket_elements(y, z))
        rhs = bracket_elements(bracket_elements(x, y), z) + bracket_elements(
            y, bracket_elements(x, z)
        ).scale(sign)
        assert lhs == rhs, (xu, yu, zu)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_grading_additivity(n):
    zero = tuple(0 for _ in range(2 * n))
    for a in root_units(n):
        wa = root_weight(n, a)
        for b in all_units(n):
            expect_deg = good_degree(n, a) + good_degree(n, b)
            wb = zero if b[0] == b[1] else root_weight(n, b)
            for u, _c in bracket(n, a, b):
                assert good_degree(n, u) == expect_deg
                if u[0] != u[1]:
                    assert root_weight(n, u) == tuple(
                        x + y for x, y in zip(wa, wb)
                    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_zero_part_is_gl11_sum(n):
    expected = set()
    for i in range(1, n + 1):
        expected |= {(i, i), (n + i, n + i), (i, n + i), (n + i, i)}
    actual = {u for u in all_units(n) if good_degree(n, u) == 0}
    assert actual == expected
    # closure under bracket
    for a in actual:
        for b in actual:
            for u, _ in bracket(n, a, b):
                assert u in actual


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["at", "c"])
def test_automorphism_preserves_bracket_and_parity(n, kind):
    units = all_units(n)
    for a in units:
        for b in units:
            x, y = Element.unit(n, a), Element.unit(n, b)
            lhs = apply_automorphism(kind, bracket_elements(x, y))
            rhs = bracket_elements(
                apply_automorphism(kind, x), apply_automorphism(kind, y)
            )
            assert lhs == rhs, (kind, a, b)
    for a in units:
        fn = automorphism_at if kind == "at" else automorphism_c
        _s, img = fn(n, a)
        assert unit_parity(n, img) == unit_parity(n, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_at_is_involution(n):
    for u in all_units(n):
        s1, v = automorphism_at(n, u)
        s2, w = automorphism_at(n, v)
        assert w == u and s1 * s2 == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_c_squares_to_grading_sign(n):
    # the block-reversal map squares to the sign automorphism: +1 on the
    # even part, -1 on the odd part (no rational sign choice can do better)
    for u in all_units(n):
        s1, v = automorphism_c(n, u)
        s2, w = automorphism_c(n, v)
        assert w == u
        expected = -1 if unit_parity(n, u) else 1
        assert s1 * s2 == expected


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["at", "c"])
def test_automorphisms_preserve_standard_even_borel(n, kind):
    fn = automorphism_at if kind == "at" else automorphism_c
    for i in range(1, 2 * n + 1):
        for j in range(1, 2 * n + 1):
            if i >= j or unit_parity(n, (i, j)) != 0:
                continue
            _s, (p, q) = fn(n, (i, j))
            assert unit_parity(n, (p, q)) == 0
            assert p < q, (kind, (i, j), (p, q))


@pytest.mark.parametrize("n", [2, 3])
def test_root_maps_match_unit_maps(n):
    for u in root_units(n):
        _s, v = automorphism_at(n, u)
        assert map_root_at(n, root_of(n, u)) == root_of(n, v)
        _s, w = automorphism_c(n, u)
        assert map_root_c(n, root_of(n, u)) == root_of(n, w)
