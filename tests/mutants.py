"""Source mutants that tier-1 must kill.

Each mutant is an exact patch: ``old`` occurs exactly once in ``file``
(relative to the checkout root) and is replaced by ``new``.  A mutant models
a plausible bug in a soundness-critical line; a mutant that survives tier-1
marks a behaviour no test pins.  ``python tests/mutate.py`` runs tier-1
against each of them; ``tests/test_mutants.py`` only checks that every patch
still applies.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

MODULES = "src/superverma/modules.py"
HOMOLOGY = "src/superverma/homology.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str

    def apply(self, root: Path) -> None:
        """Patch the copy of the checkout at ``root`` in place."""
        path = root / self.file
        text = path.read_text()
        if text.count(self.old) != 1:
            raise ValueError(f"mutant {self.name}: the patched text is not in {self.file} once")
        path.write_text(text.replace(self.old, self.new))


MUTANTS = (
    Mutant(
        "layout-accepts-both-parities",
        MODULES,
        '                    raise ValueError(f"the weight space at offset {off} holds both parities")\n',
        "                    pass\n",
    ),
    Mutant(
        "view-parity-without-shift",
        MODULES,
        "        return self.layout.parities[self._offset(weight)] ^ self._shift\n",
        "        return self.layout.parities[self._offset(weight)]\n",
    ),
    Mutant(
        "count-at-raw-parity",
        HOMOLOGY,
        "        parity = m.layout.parities[offset] ^ m.datum.parity_shift % 2\n",
        "        parity = m.layout.parities[offset]\n",
    ),
    Mutant(
        "homology-at-opposite-parity",
        HOMOLOGY,
        "        return (0, count) if parity else (count, 0)\n",
        "        return (count, 0) if parity else (0, count)\n",
    ),
    Mutant(
        "incoming-rank-at-the-offset",
        HOMOLOGY,
        "maps[off][1] - maps[down[off]][1]",
        "maps[off][1] - maps[off][1]",
    ),
    Mutant(
        "slot-sign-flipped",
        HOMOLOGY,
        "        s = off[r1]\n",
        "        s = -off[r1]\n",
    ),
    Mutant(
        "affine-without-hw-terms",
        MODULES,
        "            value += c * hw[i]\n",
        "            pass\n",
    ),
    Mutant(
        "certificate-key-without-anchor-parity",
        HOMOLOGY,
        "    key = (target_label, m.datum.parity_shift % 2, par(n, anchor))\n",
        "    key = (target_label, m.datum.parity_shift % 2, 0)\n",
    ),
    Mutant(
        "certificate-key-without-shift",
        HOMOLOGY,
        "    key = (target_label, m.datum.parity_shift % 2, par(n, anchor))\n",
        "    key = (target_label, 0, par(n, anchor))\n",
    ),
    Mutant(
        "signature-without-level",
        HOMOLOGY,
        "(alpha, level) if offsets else (alpha,)",
        "(alpha,) if offsets else (alpha,)",
    ),
    Mutant(
        "empty-slice-key-for-a-nonempty-slice",
        HOMOLOGY,
        "(alpha, level) if offsets else (alpha,)",
        "(alpha, level) if not offsets else (alpha,)",
    ),
    Mutant(
        "slice-on-the-wrong-sign",
        MODULES,
        "        return -bilinear_form(self.datum.n, self._hw, root_weight(self.datum.n, unit))\n",
        "        return bilinear_form(self.datum.n, self._hw, root_weight(self.datum.n, unit))\n",
    ),
    Mutant(
        "off-slice-cosets-shared",
        HOMOLOGY,
        "            if offset in maps:\n"
        "                self._record.classes[offset] = classes\n",
        "            self._record.classes[offset] = classes\n",
    ),
    Mutant(
        "recall-at-the-stored-anchor",
        HOMOLOGY,
        "        if form_values(forms, made_at) == form_values(forms, anchor):\n",
        "        if form_values(forms, made_at) == form_values(forms, made_at):\n",
    ),
    Mutant(
        "homology-record-without-reads",
        HOMOLOGY,
        "    made.append((hw, tuple(sorted(reads)), record))\n",
        "    made.append((hw, (), record))\n",
    ),
    Mutant(
        "certificate-hit-untranslated",
        HOMOLOGY,
        "        return _translated(cert, sub_weights(anchor, made_at))\n",
        "        return cert\n",
    ),
    Mutant(
        "ds-margin-off-by-one",
        HOMOLOGY,
        "    valid_depth = m.depth - margin\n",
        "    valid_depth = m.depth - margin + 1\n",
    ),
    Mutant(
        "boundary-rank-not-subtracted",
        HOMOLOGY,
        "        return rank(stacked) - boundary_rank\n",
        "        return rank(stacked)\n",
    ),
    Mutant(
        "boundary-read-at-the-offset",
        HOMOLOGY,
        "record.maps[down[off]]",
        "record.maps[off]",
    ),
    Mutant(
        "skip-the-raising-check",
        HOMOLOGY,
        "            if moved and added(layout.shift(unit)[off], [moved]):\n",
        "            if False:\n",
    ),
    Mutant(
        "skip-the-freeness-check",
        HOMOLOGY,
        "            if got != expected:\n",
        "            if False:\n",
    ),
    Mutant(
        "pbw-images-without-the-anchor-class",
        HOMOLOGY,
        "        images = {off0: [rep]}\n",
        "        images: dict = {}\n",
    ),
    Mutant(
        "pbw-without-repeated-units",
        HOMOLOGY,
        "lowering[: first + 1]",
        "lowering[:first]",
    ),
    Mutant(
        "target-totals-without-the-label",
        HOMOLOGY,
        "    key = (target_label, depth)\n",
        "    key = (depth,)\n",
    ),
    Mutant(
        "target-totals-without-the-depth",
        HOMOLOGY,
        "    key = (target_label, depth)\n",
        "    key = (target_label,)\n",
    ),
    Mutant(
        "valid-offsets-cached-without-the-depth",
        MODULES,
        "        found = self._valid.get(max_depth)\n",
        "        found = self._valid.get(max_depth) or next(iter(self._valid.values()), None)\n",
    ),
    Mutant(
        "lowered-by-the-shift-of-alpha",
        HOMOLOGY,
        "    return layout.shift((alpha[1], alpha[0]))\n",
        "    return layout.shift(alpha)\n",
    ),
    Mutant(
        "cost-table-off-by-one",
        MODULES,
        "                    costs[off] = spent\n",
        "                    costs[off] = spent + 1\n",
    ),
    Mutant(
        "slice-level-without-the-delta-sign",
        MODULES,
        "            sp, sq = (1 if p < n else -1), (1 if q < n else -1)\n",
        "            sp, sq = 1, 1\n",
    ),
    Mutant(
        "term-beyond-the-truncation-kept",
        MODULES,
        "                if bv not in numbered:\n",
        "                if False:\n",
    ),
)
