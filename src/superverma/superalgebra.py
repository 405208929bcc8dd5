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

from fractions import Fraction
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


class Element:
    """A finite rational linear combination of matrix units.

    A convenience wrapper for tests of algebra identities; module actions
    work on units directly.
    """

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

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

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
                key = w
                acc[key] = acc.get(key, Fraction(0)) + a * b * c
    return Element(x.n, acc)
