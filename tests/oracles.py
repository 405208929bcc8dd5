"""Independent oracles the tests compare the library against.

They recompute by brute force what the library obtains another way, so they
live with the tests and nothing in ``superverma`` depends on them.
"""

from __future__ import annotations

from superverma.borels import Label, height_functional, normalize_label, positive_roots, simple_roots
from superverma.linalg import SparseRationalMatrix, kernel_basis
from superverma.modules import Realization
from superverma.superalgebra import Weight, is_odd_root, root_weight
from superverma.weights import sub_weights


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


def singular_vectors(r: Realization, b: Label, mu: Weight) -> list:
    """Joint kernel of the raising actions of all b-simple roots at mu,
    split by parity: a list of (parity, vector dict)."""
    n = r.datum.n
    matrices = [r.unit_matrix(alpha, mu) for alpha in simple_roots(n, normalize_label(b, n))]
    basis = r.weight_spaces.get(mu, [])
    out = []
    for parity in (0, 1):
        cols = [i for i, bv in enumerate(basis) if r.vector_parity(bv) == parity]
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
