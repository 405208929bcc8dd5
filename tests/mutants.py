"""Source mutants that tier-1 must kill.

Each mutant is an exact patch: ``old`` occurs exactly once in ``file``
(relative to the checkout root) and is replaced by ``new``.  A mutant models
a plausible bug in a soundness-critical line; a mutant that survives tier-1
marks a behaviour no test pins.  ``killer`` is the pytest node id of the test
that pins the patched line: it must fail on the mutant when run alone.
``python tests/mutate.py`` runs each killer, then tier-1 where a killer
passes, against each mutant; ``tests/test_mutants.py`` only checks that every
patch still applies and that every killer names a test of the suite.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

BORELS = "src/superverma/borels.py"
MODULES = "src/superverma/modules.py"
HOMOLOGY = "src/superverma/homology.py"
LINALG = "src/superverma/linalg.py"
SUPERALGEBRA = "src/superverma/superalgebra.py"
VERIFY = "src/superverma/verify.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killer: str  # node id of the test that pins the patched line

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
        "tests/test_homology.py::test_a_vector_that_mixes_parities_is_refused[kernel]",
    ),
    Mutant(
        "view-parity-without-shift",
        MODULES,
        "        return self.layout.parities[self._offset(weight)] ^ self._shift\n",
        "        return self.layout.parities[self._offset(weight)]\n",
        "tests/test_homology.py::test_cosets_match_the_parity_split_oracle",
    ),
    Mutant(
        "count-at-raw-parity",
        HOMOLOGY,
        "        parity = m.layout.parities[offset] ^ m.datum.parity_shift % 2\n",
        "        parity = m.layout.parities[offset]\n",
        "tests/test_homology.py::test_gl11_simple_module_one_class",
    ),
    Mutant(
        "homology-at-opposite-parity",
        HOMOLOGY,
        "        return (0, count) if parity else (count, 0)\n",
        "        return (count, 0) if parity else (0, count)\n",
        "tests/test_homology.py::test_gl11_simple_module_one_class",
    ),
    Mutant(
        "incoming-rank-at-the-offset",
        HOMOLOGY,
        "maps[off][1] - maps[down[off]][1]",
        "maps[off][1] - maps[off][1]",
        "tests/test_homology.py::test_gl11_twisted_verma_vanishes",
    ),
    Mutant(
        "slot-sign-flipped",
        HOMOLOGY,
        "        s = off[r1]\n",
        "        s = -off[r1]\n",
        "tests/test_homology.py::test_certify_standard_borel_anchor",
    ),
    Mutant(
        "affine-without-hw-terms",
        MODULES,
        "            value += c * hw[i]\n",
        "            pass\n",
        "tests/test_homology.py::test_cosets_match_the_parity_split_oracle",
    ),
    Mutant(
        "slice-on-the-wrong-sign",
        MODULES,
        "(i, -c if i < n else c)",
        "(i, c if i < n else -c)",
        "tests/test_homology.py::test_cosets_match_the_parity_split_oracle",
    ),
    Mutant(
        "homology-record-without-reads",
        HOMOLOGY,
        "        matrix = layout.matrix_at(alpha, s, hw, reads)\n",
        "        matrix = layout.matrix_at(alpha, s, hw)\n",
        "tests/test_modules.py::test_anchor_signature_determines_the_blocks[2-label6-6-False]",
    ),
    Mutant(
        "ds-margin-off-by-one",
        HOMOLOGY,
        "    valid_depth = m.depth - layout.margin(alpha)\n",
        "    valid_depth = m.depth - layout.margin(alpha) + 1\n",
        "tests/test_homology.py::test_valid_depth_is_depth_minus_margin",
    ),
    Mutant(
        "boundary-rank-not-subtracted",
        HOMOLOGY,
        "        return rank(stacked) - boundary_rank\n",
        "        return rank(stacked)\n",
        "tests/test_homology.py::test_certify_second_odd_simple",
    ),
    Mutant(
        "boundary-read-at-the-offset",
        HOMOLOGY,
        "result.maps[down[off]]",
        "result.maps[off]",
        "tests/test_homology.py::test_certify_standard_borel_anchor",
    ),
    Mutant(
        "skip-the-raising-check",
        HOMOLOGY,
        "            if moved and added(layout.shift(unit)[off], [moved]):\n",
        "            if False:\n",
        "tests/test_homology.py::test_a_class_that_a_raising_unit_moves_off_the_boundaries_is_refuted",
    ),
    Mutant(
        "skip-the-freeness-check",
        HOMOLOGY,
        "            if got != expected:\n",
        "            if False:\n",
        "tests/test_homology.py::test_lowering_units_short_of_a_free_module_are_refuted",
    ),
    Mutant(
        "pbw-images-without-the-anchor-class",
        HOMOLOGY,
        "        images = {off0: [rep]}\n",
        "        images: dict = {}\n",
        "tests/test_homology.py::test_certify_standard_borel_anchor",
    ),
    Mutant(
        "pbw-without-repeated-units",
        HOMOLOGY,
        "lowering[: first + 1]",
        "lowering[:first]",
        "tests/test_homology.py::test_rank_certificates_match_the_coset_oracle",
    ),
    Mutant(
        "target-totals-without-the-label",
        HOMOLOGY,
        "    key = (target_label, depth)\n",
        "    key = (depth,)\n",
        "tests/test_homology.py::test_the_target_totals_are_kept_per_label_and_depth",
    ),
    Mutant(
        "target-totals-without-the-depth",
        HOMOLOGY,
        "    key = (target_label, depth)\n",
        "    key = (target_label,)\n",
        "tests/test_homology.py::test_the_target_totals_are_kept_per_label_and_depth",
    ),
    Mutant(
        "valid-offsets-cached-without-the-depth",
        MODULES,
        "        found = self._valid.get(max_depth)\n",
        "        found = self._valid.get(max_depth) or next(iter(self._valid.values()), None)\n",
        "tests/test_homology.py::test_cosets_match_the_parity_split_oracle",
    ),
    Mutant(
        "lowered-by-the-shift-of-alpha",
        HOMOLOGY,
        "    return layout.shift((alpha[1], alpha[0]))\n",
        "    return layout.shift(alpha)\n",
        "tests/test_homology.py::test_gl11_twisted_verma_vanishes",
    ),
    Mutant(
        "cost-table-off-by-one",
        MODULES,
        "                    costs[off] = spent\n",
        "                    costs[off] = spent + 1\n",
        "tests/test_homology.py::test_root_vector_squares_to_zero_on_module",
    ),
    Mutant(
        "slice-level-without-the-delta-sign",
        MODULES,
        "            sp, sq = (1 if p < n else -1), (1 if q < n else -1)\n",
        "            sp, sq = 1, 1\n",
        "tests/test_homology.py::test_gl11_standard_verma_two_classes",
    ),
    Mutant(
        "term-beyond-the-truncation-kept",
        MODULES,
        "                if bv not in numbered:\n",
        "                if False:\n",
        "tests/test_modules.py::test_truncation_overflow_is_raised_not_dropped",
    ),
    Mutant(
        "level-gate-always-passes",
        HOMOLOGY,
        "    for read in result.reads:\n",
        "    for read in ():\n",
        "tests/test_homology.py::test_the_gate_names_a_read_that_the_level_does_not_fix",
    ),
    Mutant(
        "certificate-stored-without-reads",
        HOMOLOGY,
        "    reads = result.reads\n",
        "    reads: set = set()\n",
        "tests/test_homology.py::test_a_certificate_is_shared_only_where_its_reads_agree",
    ),
    Mutant(
        "parity-gate-always-passes",
        HOMOLOGY,
        "    return m.layout.parities_follow_deltas"
        " and datum.parity_shift % 2 == par(datum.n, datum.hw)\n",
        "    return True\n",
        "tests/test_homology.py::test_the_parity_gate_reads_the_layout_parities_and_the_shift",
    ),
    Mutant(
        "level-key-without-rho",
        VERIFY,
        "    base = ci * rho[i] + cj * rho[j]\n",
        "    base = 0\n",
        "tests/test_verify.py::test_the_level_read_from_the_tuple_is_minus_the_invariant_form[2]",
    ),
    Mutant(
        "bracket-sign-flipped",
        SUPERALGEBRA,
        "        terms[(k, j)] = terms.get((k, j), 0) - sign\n",
        "        terms[(k, j)] = terms.get((k, j), 0) + sign\n",
        "tests/test_superalgebra.py::test_bracket_frozen_examples",
    ),
    Mutant(
        "rho-closed-form-off-by-one",
        BORELS,
        "    eps = [beta[n - i] - i + 1 for i in range(1, n + 1)]\n",
        "    eps = [beta[n - i] - i for i in range(1, n + 1)]\n",
        "tests/test_borels.py::test_rho_closed_form_matches_half_sum[2]",
    ),
    Mutant(
        "report-frame-keyed-by-verdict",
        VERIFY,
        "            frame = frames.get((verdict, id(detail)))\n"
        "            if frame is None:\n"
        "                frame = frames[verdict, id(detail)] = (\n",
        "            frame = frames.get(verdict)\n"
        "            if frame is None:\n"
        "                frame = frames[verdict] = (\n",
        "tests/test_verify.py::test_report_bytes_are_those_of_the_direct_serializer"
        "[shared-detail-plain]",
    ),
    Mutant(
        "peel-sign-dropped",
        MODULES,
        "        sign = -1 if self._odd[p] and unit_parity(n, unit) else 1\n",
        "        sign = 1\n",
        "tests/test_modules.py::test_one_factor_straightening_matches_power_peeling[verma-()]",
    ),
    Mutant(
        "prune-floor-read-one-position-late",
        MODULES,
        "            if depth - spent < floor[i]:\n",
        "            if depth - spent < floor[i + 1]:\n",
        "tests/test_modules.py::test_the_walk_numbers_every_vector_of_the_region[verma-()]",
    ),
    Mutant(
        "empty-target-map-without-columns",
        MODULES,
        "            return 0, len(cols), {}\n",
        "            return 0, 0, {}\n",
        "tests/test_modules.py::test_a_map_into_an_empty_space_is_zero_unstraightened[2]",
    ),
    Mutant(
        "kernel-back-substitution-unscaled",
        LINALG,
        "                up = pivot // common\n",
        "                up = 1\n",
        "tests/test_linalg.py::test_kernel_basis_is_the_oracle_line_in_integers",
    ),
    Mutant(
        "quotient-accepts-a-dependent-candidate",
        LINALG,
        "    return [candidates[col - len(subspace)] for col in pivots[spanned:]]\n",
        "    return list(candidates[: len(pivots) - spanned])\n",
        "tests/test_linalg.py::test_quotient_basis_picks_the_oracle_tagged_vectors",
    ),
    Mutant(
        "bracket-check-ignores-the-boundaries",
        HOMOLOGY,
        "            if not _in_boundaries(m, result.classes_at(top), defects):\n",
        "            if any(defects):\n",
        "tests/test_homology.py::test_the_bracket_check_reads_classes_modulo_the_boundaries",
    ),
    Mutant(
        "pbw-order-unsorted",
        MODULES,
        "    complement = tuple(sorted(every - inducing))\n",
        "    complement = tuple(every - inducing)\n",
        "tests/test_modules.py::test_the_pbw_order_is_the_increasing_complement_of_the_inducing_roots",
    ),
    Mutant(
        "factor-term-at-the-previous-state",
        MODULES,
        "{self._vectors[state]: 1}",
        "{self._vectors[state - 1]: 1}",
        "tests/test_modules.py::test_factor_terms_are_the_columns_of_the_factor_matrices",
    ),
    Mutant(
        "homotopy-scale-off-by-one",
        HOMOLOGY,
        "    factor = scale // degree\n",
        "    factor = scale // degree + 1\n",
        "tests/test_homology.py::test_the_scaled_homotopy_is_the_fraction_oracle_times_the_scale[2]",
    ),
    Mutant(
        "jacobi-skips-the-xz-term",
        VERIFY,
        "        if xz:\n",
        "        if xy:\n",
        "tests/test_verify.py::test_axioms_pass_on_the_true_bracket[2-256-4096]",
    ),
)
