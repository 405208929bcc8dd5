"""The public surface of the library is what the library itself reaches."""

from __future__ import annotations

import ast
from pathlib import Path

import superverma

SRC = Path(superverma.__file__).parent

# Unreached on purpose: the automorphism family is kept for a metamorphic
# check of verdicts under the flip and block-reversal maps.
ALLOWED_UNREACHED = {
    "apply_automorphism",
    "mapped_label",
    "complement_label",
    "antitranspose_label",
}


def _names_outside(trees, skip) -> set[str]:
    """Every name and attribute used in ``trees`` outside the node ``skip``."""
    found: set[str] = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_definition_is_referenced_in_the_library():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    unreached = set()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if node.name not in _names_outside(trees, node):
                unreached.add(node.name)
    assert unreached == ALLOWED_UNREACHED
