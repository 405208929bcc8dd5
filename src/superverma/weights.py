"""Integral weights of gl(n|n): tuple encoding, atypicality, characters.

Weights are stored as flat tuples of 2n integers: coefficients of
eps_1..eps_n followed by coefficients of delta_1..delta_n (no sign
twisting in storage; the invariant form supplies the signs).

The shifted tuple of a weight is t_i = (lambda + rho, eps_i) computed with
the standard rho (the one for the all-eps-first Borel); because the form is
negative on the delta block, the last n entries are the negated storage
coordinates of lambda + rho.  A tuple together with a Borel label names a
highest weight: ``from_tuple(t, b) = lambda + rho - rho_b``, so one tuple
names compatible Verma modules across all Borels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .borels import (
    Label,
    b_inner,
    b_outer,
    height_functional,
    normalize_label,
    odd_positive_roots,
    positive_roots,
    rho_vector,
)
from .superalgebra import Root, Weight, is_odd_root, root_weight

TupleWeight = tuple[int, ...]


def add_weights(x: Weight, y: Weight) -> Weight:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def sub_weights(x: Weight, y: Weight) -> Weight:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def to_tuple(n: int, weight: Weight, label: Label = ()) -> TupleWeight:
    """Shifted tuple of a weight relative to a Borel (standard by default).

    ``to_tuple(w, b)`` is the tuple ``t`` with ``from_tuple(t, b) == w``;
    with the default label this is t_i = (w + rho, eps_i) for the standard
    rho.
    """
    shifted = add_weights(weight, rho_vector(n, tuple(label)))
    return shifted[:n] + tuple(-v for v in shifted[n:])


def from_tuple(n: int, t: TupleWeight, label: Label) -> Weight:
    """Highest weight named by a tuple and a Borel: lambda + rho - rho_b."""
    if len(t) != 2 * n:
        raise ValueError(f"need a length-{2 * n} tuple, got {t}")
    unshifted = t[:n] + tuple(-v for v in t[n:])
    return sub_weights(unshifted, rho_vector(n, tuple(label)))


def atypicality(t: TupleWeight) -> int:
    """Size of a maximum matching of equal values across the two blocks."""
    n = len(t) // 2
    if len(t) != 2 * n:
        raise ValueError("tuple length must be even")
    count = 0
    values = set(t)
    for v in values:
        count += min(t[:n].count(v), t[n:].count(v))
    return count


def par(n: int, weight: Weight) -> int:
    """Parity convention: sum of delta coefficients mod 2."""
    return sum(weight[n:]) % 2


def canonical_odd_pair(n: int, alpha: Root) -> tuple[int, int]:
    """The (i, j) with i <= n < j underlying an odd root of either sign."""
    p, q = alpha
    if not is_odd_root(n, alpha):
        raise ValueError(f"{alpha} is not an odd root")
    return (p, q) if p <= n else (q, p)


def pr_alpha(n: int, vec: tuple, alpha: Root) -> tuple:
    """Delete the two coordinates an odd root lives on (rank drops by one)."""
    i, j = canonical_odd_pair(n, alpha)
    return tuple(v for t, v in enumerate(vec, start=1) if t not in (i, j))


def in_lambda_maBG(t: TupleWeight) -> bool:
    """Every coordinate pair matches: t_i = t_{n+i} for all i."""
    n = len(t) // 2
    return all(t[i] == t[n + i] for i in range(n))


def in_lambda_BG(t: TupleWeight) -> bool:
    """All atypicality is realized on the diagonal pairs."""
    n = len(t) // 2
    return atypicality(t) == sum(1 for i in range(n) if t[i] == t[n + i])


def common_odd_roots(n: int) -> frozenset[Root]:
    """Odd roots positive for both staircase Borels: eps_i - delta_j (i < j)
    and delta_j - eps_i (j < i)."""
    return odd_positive_roots(n, b_outer(n)) & odd_positive_roots(n, b_inner(n))


@dataclass(frozen=True)
class Character:
    """Truncated formal character with a parity split.

    ``table`` maps weights to (even_dim, odd_dim).  The declared complete
    region is every weight w with xi(top - w) <= depth, where xi is the
    linear functional with the given per-coordinate heights.
    """

    n: int
    top: Weight
    heights: tuple[int, ...]
    depth: int
    table: dict[Weight, tuple[int, int]] = field(default_factory=dict)

    def xi(self, vec) -> int:
        return sum(h * v for h, v in zip(self.heights, vec, strict=True))

    def contains(self, weight: Weight) -> bool:
        return self.xi(sub_weights(self.top, weight)) <= self.depth

    def dims(self, weight: Weight) -> tuple[int, int]:
        return self.table.get(weight, (0, 0))

    def disagreement(self, other: "Character") -> Weight | None:
        """First weight inside both complete regions with differing dims."""
        for w in sorted(set(self.table) | set(other.table)):
            if self.contains(w) and other.contains(w):
                if self.dims(w) != other.dims(w):
                    return w
        return None

    def common_complete_support(self, *others: "Character") -> list[Weight]:
        out = set()
        for char in (self, *others):
            out |= set(char.table)
        return sorted(
            w
            for w in out
            if self.contains(w) and all(c.contains(w) for c in others)
        )

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "region": {
                "top": list(self.top),
                "heights": list(self.heights),
                "depth": self.depth,
            },
            "support": [
                {"weight": list(w), "even": e, "odd": o}
                for w, (e, o) in sorted(self.table.items())
                if (e, o) != (0, 0)
            ],
        }
        return json.dumps(doc, sort_keys=True)


def _expand_product(
    n: int,
    top: Weight,
    heights: tuple[int, ...],
    depth: int,
    even_roots,
    odd_roots,
) -> dict[Weight, int]:
    """e^top * prod (1 - e^-a)^-1 * prod (1 + e^-b), truncated by xi-depth."""

    def xi(vec):
        return sum(h * v for h, v in zip(heights, vec))

    def ok(weight):
        return xi(sub_weights(top, weight)) <= depth

    table = {top: 1}
    for root in even_roots:
        rw = root_weight(n, root)
        if xi(rw) < 1:
            raise ValueError(f"root {root} has nonpositive height")
        new: dict[Weight, int] = {}
        for w, m in table.items():
            cur = w
            while ok(cur):
                new[cur] = new.get(cur, 0) + m
                cur = sub_weights(cur, rw)
        table = new
    for root in odd_roots:
        rw = root_weight(n, root)
        if xi(rw) < 1:
            raise ValueError(f"root {root} has nonpositive height")
        new = {}
        for w, m in table.items():
            new[w] = new.get(w, 0) + m
            down = sub_weights(w, rw)
            if ok(down):
                new[down] = new.get(down, 0) + m
        table = new
    return {w: m for w, m in table.items() if m}


def _parity_split(n: int, table: dict[Weight, int]) -> dict[Weight, tuple[int, int]]:
    out: dict[Weight, tuple[int, int]] = {}
    for w, m in table.items():
        if par(n, w) == 0:
            out[w] = (m, 0)
        else:
            out[w] = (0, m)
    return out


def verma_character(n: int, label: Label, t: TupleWeight, depth: int) -> Character:
    """Truncated character of the Verma module named by (tuple, Borel)."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    label = normalize_label(label, n)
    top = from_tuple(n, t, label)
    heights = height_functional(n, label)
    pos = positive_roots(n, label)
    even = sorted(r for r in pos if not is_odd_root(n, r))
    odd = sorted(r for r in pos if is_odd_root(n, r))
    table = _expand_product(n, top, heights, depth, even, odd)
    return Character(n, top, heights, depth, _parity_split(n, table))


def bg_character(n: int, t: TupleWeight, depth: int) -> Character:
    """Truncated character of the enlarged-Borel module named by a tuple.

    Product of the standard even Verma denominator, the odd roots positive
    for both staircases, and one gl(1|1) factor character per diagonal pair
    (a single weight when the pair matches, two when it does not).  The
    result equals the character of the enlarged-Borel module whenever the
    tuple is in the family (see :func:`in_lambda_BG`).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    top = from_tuple(n, t, b_outer(n))
    heights = height_functional(n, b_outer(n))
    even = sorted(
        (block + i, block + j)
        for block in (0, n)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    odd = sorted(common_odd_roots(n))
    # diagonal gl(1|1) factors: typical pairs contribute (1 + e^{-(eps_k - delta_k)})
    odd += [(k, n + k) for k in range(1, n + 1) if t[k - 1] != t[n + k - 1]]
    table = _expand_product(n, top, heights, depth, even, odd)
    return Character(n, top, heights, depth, _parity_split(n, table))
