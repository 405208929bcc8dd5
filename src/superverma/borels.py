"""Borel subalgebras of gl(n|n) containing the standard even Borel.

Such Borels biject with partitions inside the n x n box, equivalently with
shuffle sequences of n letters 'e' (the eps coordinates, in order) and n
letters 'd' (the delta coordinates, in order).  The bijection used
throughout: for a label ``beta`` (weakly decreasing, trailing zeros
stripped), the sequence places the k-th 'e' after exactly ``beta[n-k]``
letters 'd' (that is, ``beta_i`` counts the 'd's before the (n+1-i)-th 'e').

Consequences worth naming:

* ``()``            <-> ``e...ed...d``  (all odd roots eps_i - delta_j positive)
* ``(n, ..., n)``   <-> ``d...de...e``
* ``(n-1, ..., 0)`` <-> ``eded...ed``   (the "outer" staircase, rho = 0)
* ``(n, ..., 1)``   <-> ``dede...de``   (the "inner" staircase, rho = ber)
* concatenating sequences realizes the star product of labels.

A root ``(p, q)`` is positive for a Borel iff coordinate ``p`` occurs before
coordinate ``q`` in its sequence.  Simple roots are the consecutive
differences; the odd simple roots are the 'ed'/'de' adjacencies, and
swapping one such adjacency (an odd reflection) adds or removes one corner
box of the partition.

The sequence, the coordinate positions, the positive roots and rho are
cached per ``(n, label)``, so they take labels as tuples; a label that
fails validation is not cached and fails again on the next call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .superalgebra import Root, Weight, is_odd_root, root_weight

Label = tuple[int, ...]


def normalize_label(label: tuple[int, ...] | list[int], n: int | None = None) -> Label:
    """Validate a partition label and strip trailing zeros."""
    parts = tuple(label)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in label {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"label {parts} is not weakly decreasing")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if n is not None:
        if len(parts) > n or (parts and parts[0] > n):
            raise ValueError(f"label {parts} does not fit in the {n}x{n} box")
    return parts


@lru_cache(maxsize=None)
def all_borels(n: int) -> tuple[Label, ...]:
    """All Borel labels for gl(n|n): partitions in the n x n box, lex sorted.

    >>> all_borels(1)
    ((), (1,))
    >>> len(all_borels(3))
    20
    """
    out: set[Label] = set()
    # choose the positions of the 'e's among 2n slots
    for epos in combinations(range(2 * n), n):
        seq = ["d"] * (2 * n)
        for p in epos:
            seq[p] = "e"
        out.add(label_of_sequence(n, "".join(seq)))
    return tuple(sorted(out))


def padded(label: Label, n: int) -> tuple[int, ...]:
    """The label as a full weakly-decreasing n-tuple (zeros restored)."""
    label = normalize_label(label, n)
    return label + (0,) * (n - len(label))


@lru_cache(maxsize=None)
def sequence_of(n: int, label: Label) -> str:
    """The 'e'/'d' shuffle sequence of a Borel label.

    >>> sequence_of(2, (1,))
    'eded'
    >>> sequence_of(2, (1, 1))
    'deed'
    >>> sequence_of(2, (2,))
    'edde'
    """
    beta = padded(label, n)
    # d-count before the k-th 'e'
    before = [beta[n - k] for k in range(1, n + 1)]
    seq = ["d"] * (2 * n)
    for k in range(1, n + 1):
        seq[k + before[k - 1] - 1] = "e"
    return "".join(seq)


def label_of_sequence(n: int, seq: str) -> Label:
    """Inverse of :func:`sequence_of`.

    >>> label_of_sequence(2, 'deed')
    (1, 1)
    """
    if len(seq) != 2 * n or seq.count("e") != n or seq.count("d") != n:
        raise ValueError(f"not a length-{2 * n} shuffle sequence: {seq!r}")
    before: list[int] = []
    seen_d = 0
    for ch in seq:
        if ch == "d":
            seen_d += 1
        else:
            before.append(seen_d)
    beta = tuple(before[n - i] for i in range(1, n + 1))
    return normalize_label(beta, n)


@lru_cache(maxsize=None)
def coordinate_positions(n: int, label: Label) -> tuple[int, ...]:
    """Position (1-based) of each storage coordinate in the Borel sequence.

    Entry ``t-1`` is the position of eps_t (t <= n) or delta_{t-n} (t > n).
    """
    seq = sequence_of(n, label)
    pos = [0] * (2 * n)
    e_seen = d_seen = 0
    for p, ch in enumerate(seq, start=1):
        if ch == "e":
            e_seen += 1
            pos[e_seen - 1] = p
        else:
            d_seen += 1
            pos[n + d_seen - 1] = p
    return tuple(pos)


def height_functional(n: int, label: Label) -> tuple[int, ...]:
    """Per-coordinate heights 2n-1, ..., 0 in the Borel's sequence order.

    Entry ``t-1`` is the height of storage coordinate ``t``.  The induced
    linear functional xi(v) = sum_t heights[t-1] * v_t takes a value >= 1 on
    every positive root of the Borel, so truncating modules by xi-depth
    keeps every weight region finite.
    """
    pos = coordinate_positions(n, label)
    return tuple(2 * n - p for p in pos)


@lru_cache(maxsize=None)
def positive_roots(n: int, label: Label) -> frozenset[Root]:
    """All positive roots: pairs (p, q) with p occurring before q."""
    pos = coordinate_positions(n, label)
    return frozenset(
        (p, q)
        for p in range(1, 2 * n + 1)
        for q in range(1, 2 * n + 1)
        if p != q and pos[p - 1] < pos[q - 1]
    )


def odd_positive_roots(n: int, label: Label) -> frozenset[Root]:
    return frozenset(r for r in positive_roots(n, label) if is_odd_root(n, r))


def simple_roots(n: int, label: Label) -> tuple[Root, ...]:
    """Simple roots in sequence order: consecutive coordinate differences."""
    pos = coordinate_positions(n, label)
    by_position = {p: t for t, p in enumerate(pos, start=1)}
    return tuple(
        (by_position[p], by_position[p + 1]) for p in range(1, 2 * n)
    )


def odd_simple_roots(n: int, label: Label) -> tuple[Root, ...]:
    return tuple(r for r in simple_roots(n, label) if is_odd_root(n, r))


def odd_reflection_neighbors(n: int, label: Label) -> tuple[Label, ...]:
    """Labels reachable by one odd reflection (add/remove one corner box)."""
    seq = sequence_of(n, label)
    out = set()
    for p in range(2 * n - 1):
        if seq[p] != seq[p + 1]:
            swapped = seq[:p] + seq[p + 1] + seq[p] + seq[p + 2 :]
            out.add(label_of_sequence(n, swapped))
    return tuple(sorted(out))


def b_outer(n: int) -> Label:
    """The staircase label (n-1, ..., 1, 0): alternating sequence 'eded...'."""
    return normalize_label(tuple(range(n - 1, -1, -1)), n)


def b_inner(n: int) -> Label:
    """The staircase label (n, ..., 1): alternating sequence 'dede...'."""
    return tuple(range(n, 0, -1))


def ber_weight(n: int) -> Weight:
    return (1,) * n + (-1,) * n


@lru_cache(maxsize=None)
def rho_vector(n: int, label: Label) -> Weight:
    """The rho-vector of a Borel, in closed form.

    rho = sum_i (beta_{n+1-i} - i + 1) eps_i + sum_j (n - j - beta'_j) delta_j
    where beta' is the conjugate partition.

    >>> rho_vector(2, ())
    (0, -1, 1, 0)
    >>> rho_vector(3, b_outer(3))
    (0, 0, 0, 0, 0, 0)
    >>> rho_vector(3, b_inner(3)) == ber_weight(3)
    True
    """
    beta = padded(label, n)
    conj = conjugate_partition(label, n)
    eps = [beta[n - i] - i + 1 for i in range(1, n + 1)]
    dlt = [n - j - conj[j - 1] for j in range(1, n + 1)]
    return tuple(eps + dlt)


def rho_half_sum(n: int, label: Label) -> Weight:
    """Oracle for rho: rho_0 - rho_1 + ber/2, from explicit root sums.

    rho_0 is half the sum of the standard even positive roots and rho_1 is
    half the sum of the Borel's odd positive roots.  The combination is
    integral for every label.
    """
    total = [Fraction(0)] * (2 * n)

    def add(weight, coef):
        for t, v in enumerate(weight):
            total[t] += coef * v

    half = Fraction(1, 2)
    for block in (0, n):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                add(root_weight(n, (block + i, block + j)), half)
    for r in odd_positive_roots(n, label):
        add(root_weight(n, r), -half)
    add(ber_weight(n), half)
    assert all(v.denominator == 1 for v in total)
    return tuple(int(v) for v in total)


def conjugate_partition(label: Label, n: int) -> tuple[int, ...]:
    """Conjugate (transpose) partition, padded to length n."""
    beta = padded(label, n)
    return tuple(sum(1 for b in beta if b >= j) for j in range(1, n + 1))


def hypercube_label(n: int, gamma: tuple[int, ...]) -> Label:
    """Label of the hypercube Borel indexed by a bit vector.

    The 2^n Borels between the two staircases: component i of the padded
    label is (n - i) + gamma_{n+1-i}.  The all-zero vector gives the outer
    staircase, the all-one vector the inner one.

    >>> hypercube_label(2, (1, 0))
    (1, 1)
    >>> hypercube_label(3, (1, 0, 0))
    (2, 1, 1)
    """
    if len(gamma) != n or any(g not in (0, 1) for g in gamma):
        raise ValueError(f"need a length-{n} bit vector, got {gamma}")
    return normalize_label(
        tuple((n - i) + gamma[n - i] for i in range(1, n + 1)), n
    )


def hypercube_gamma(n: int, label: Label) -> tuple[int, ...] | None:
    """Inverse of :func:`hypercube_label`, or None if not a hypercube Borel."""
    beta = padded(label, n)
    gamma = tuple(beta[i - 1] - (n - i) for i in range(1, n + 1))
    if any(g not in (0, 1) for g in gamma):
        return None
    return tuple(gamma[n - i] for i in range(1, n + 1))


def star(n1: int, label1: Label, n2: int, label2: Label) -> Label:
    """Star product of Borel labels: concatenation of shuffle sequences.

    The result is the Borel of gl(n1+n2|n1+n2) whose first 2*n1 coordinates
    are ordered by ``label1`` and whose remaining coordinates are ordered by
    ``label2``.

    >>> star(1, (), 1, ())
    (1,)
    >>> star(1, (), 1, (1,))
    (2,)
    >>> star(1, (1,), 1, (1,))
    (2, 1)
    """
    seq = sequence_of(n1, normalize_label(label1, n1)) + sequence_of(
        n2, normalize_label(label2, n2)
    )
    return label_of_sequence(n1 + n2, seq)


def format_label(label: Label) -> str:
    """Exponent-form rendering: (2,1,1) -> '(21^2)', () -> '()'.

    Parts and repeat counts are restricted to single digits, which keeps the
    notation unambiguous ('2^21' is (2, 2, 1), never 2 repeated 21 times).
    """
    if not label:
        return "()"
    parts: list[str] = []
    i = 0
    while i < len(label):
        j = i
        while j < len(label) and label[j] == label[i]:
            j += 1
        count = j - i
        if label[i] > 9 or count > 9:
            raise ValueError("exponent form supports single digits only")
        parts.append(str(label[i]) + (f"^{count}" if count > 1 else ""))
        i = j
    return "(" + "".join(parts) + ")"


def parse_label(text: str) -> Label:
    """Parse '(21^2)', '21^2', or comma form '2,1,1' into a label."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        return ()
    parts: list[int] = []
    if "," in s:
        for piece, pos in ((p.strip(), k) for k, p in enumerate(s.split(","))):
            if not piece.isdigit():
                raise ValueError(f"bad label part at position {pos}: {piece!r}")
            parts.append(int(piece))
    else:
        i = 0
        while i < len(s):
            if not s[i].isdigit():
                raise ValueError(f"bad label character at position {i}: {s[i]!r}")
            value = int(s[i])
            i += 1
            if i < len(s) and s[i] == "^":
                if i + 1 >= len(s) or not s[i + 1].isdigit():
                    raise ValueError(f"missing exponent at position {i}")
                parts.extend([value] * int(s[i + 1]))
                i += 2
            else:
                parts.append(value)
    return normalize_label(tuple(parts))


def borel_graph(n: int) -> tuple[tuple[Label, ...], tuple[tuple[Label, Label], ...]]:
    """Vertices and edges of the odd-reflection graph (guarded to n <= 6)."""
    if n > 6:
        raise ValueError("Borel graph supported only for n <= 6")
    vertices = all_borels(n)
    edges = set()
    for v in vertices:
        for w in odd_reflection_neighbors(n, v):
            edges.add(tuple(sorted((v, w))))
    return vertices, tuple(sorted(edges))


def borel_graph_dot(n: int) -> str:
    vertices, edges = borel_graph(n)
    lines = [f"graph borels_{n} {{"]
    for v in vertices:
        lines.append(f'  "{format_label(v)}";')
    for a, b in edges:
        lines.append(f'  "{format_label(a)}" -- "{format_label(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def borel_graph_json(n: int) -> str:
    vertices, edges = borel_graph(n)
    doc = {
        "n": n,
        "vertices": [format_label(v) for v in vertices],
        "edges": [[format_label(a), format_label(b)] for a, b in edges],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
