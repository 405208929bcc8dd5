"""The Lie superalgebra gl(n|n): matrix units, supercommutator, gradings.

Conventions, fixed once and used everywhere:

* Indices are 1-based and run over ``1..2n``; index ``i`` is even iff
  ``i <= n``.  The matrix unit ``e_ij`` is written as the pair ``(i, j)``.
* Roots are ordered index pairs ``(p, q)`` standing for the weight
  ``eps_p - eps_q``, where ``eps_{n+k}`` is the k-th odd coordinate
  (``delta_k``).  A root is odd iff exactly one of its indices is <= n.
* Weights are stored as tuples of length 2n: the coefficients of
  ``eps_1..eps_n`` followed by the coefficients of ``delta_1..delta_n``
  (no sign twist in storage).

The supercommutator of two matrix units is

    [e_ab, e_cd] = delta_bc e_ad - (-1)^{|e_ab||e_cd|} delta_da e_cb,

which has at most two terms (combined when they coincide).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

Unit = tuple[int, int]
Root = tuple[int, int]
Weight = tuple[int, ...]


def index_parity(n: int, i: int) -> int:
    """Parity of basis line ``i``: 0 for 1..n, 1 for n+1..2n."""
    if not 1 <= i <= 2 * n:
        raise ValueError(f"index {i} out of range 1..{2 * n}")
    return 0 if i <= n else 1


def unit_parity(n: int, unit: Unit) -> int:
    """Z/2-degree of the matrix unit e_ij."""
    i, j = unit
    return (index_parity(n, i) + index_parity(n, j)) % 2


def is_cartan(unit: Unit) -> bool:
    return unit[0] == unit[1]


def all_units(n: int) -> list[Unit]:
    return [(i, j) for i in range(1, 2 * n + 1) for j in range(1, 2 * n + 1)]


def root_units(n: int) -> list[Unit]:
    return [(i, j) for i in range(1, 2 * n + 1) for j in range(1, 2 * n + 1) if i != j]


def all_roots(n: int) -> list[Root]:
    """All roots of gl(n|n) as ordered index pairs (p, q), p != q."""
    return root_units(n)


def is_odd_root(n: int, root: Root) -> bool:
    return unit_parity(n, root) == 1


def root_of(n: int, unit: Unit) -> Root:
    """The root of a non-Cartan matrix unit; e_ij has root eps_i - eps_j."""
    if is_cartan(unit):
        raise ValueError(f"Cartan unit {unit} has no root")
    return unit


def root_weight(n: int, root: Root) -> Weight:
    """The root as a stored weight vector of length 2n."""
    p, q = root
    w = [0] * (2 * n)
    w[p - 1] += 1
    w[q - 1] -= 1
    return tuple(w)


@lru_cache(maxsize=None)
def bracket(n: int, a: Unit, b: Unit) -> tuple[tuple[Unit, int], ...]:
    """Supercommutator [e_a, e_b] as a tuple of (unit, integer coefficient).

    Examples for n = 2:

    >>> bracket(2, (1, 2), (2, 1))
    (((1, 1), 1), ((2, 2), -1))
    >>> bracket(2, (1, 3), (3, 1))
    (((1, 1), 1), ((3, 3), 1))
    >>> bracket(2, (1, 3), (1, 3))
    ()
    """
    (i, j), (k, l) = a, b
    sign = -1 if unit_parity(n, a) and unit_parity(n, b) else 1
    terms: dict[Unit, int] = {}
    if j == k:
        terms[(i, l)] = terms.get((i, l), 0) + 1
    if l == i:
        terms[(k, j)] = terms.get((k, j), 0) - sign
    return tuple((u, c) for u, c in sorted(terms.items()) if c)


def good_degree(n: int, unit: Unit) -> int:
    """Degree of e_ij in the principal good grading.

    The degree-0 part is spanned by the Cartan and the units e_{k,n+k},
    e_{n+k,k}, so it is a copy of gl(1|1) for each k; e_{1,n+1} sits in
    degree 0.
    """
    i, j = unit
    pi, pj = index_parity(n, i), index_parity(n, j)
    if pi == pj:
        return j - i
    if pi == 0:
        return j - i - n
    return j - i + n


def bracket_elements(
    n: int, x: Sequence[tuple[Unit, int]], y: Sequence[tuple[Unit, int]]
) -> dict[Unit, int]:
    """Bilinear extension of ``bracket`` to integer combinations of units.

    ``x`` and ``y`` are sequences of ``(unit, coefficient)`` pairs, as
    ``bracket`` returns them; the result maps units to their nonzero
    coefficients.

    >>> bracket_elements(2, (((1, 2), 1), ((1, 3), 2)), (((2, 1), 1),))
    {(1, 1): 1, (2, 2): -1, (2, 3): -2}
    """
    acc: dict[Unit, int] = {}
    for u, a in x:
        for v, b in y:
            for w, c in bracket(n, u, v):
                acc[w] = acc.get(w, 0) + a * b * c
    return {w: c for w, c in acc.items() if c}
