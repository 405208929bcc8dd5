"""The public surface of the library is what the library itself reaches.

Top-level functions and classes must each be named somewhere in
``superverma`` outside their own definition, and the public methods of every
class must be looked up as an attribute there.  Helpers that only tests need
live in ``tests/``.

A method is matched by its name alone, so a same-named method on another
class, or a same-named attribute that some class stores, could mask one that
nothing reaches.  The names that more than one class defines, and the method
names that a stored attribute also uses, are therefore pinned: a new one
fails the test until the call sites of each of its methods have been read
and it is added here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import superverma

SRC = Path(superverma.__file__).parent

ALLOWED_UNREACHED: set[str] = set()

SHARED_METHOD_NAMES = {"dims", "ok", "to_json", "unit_terms", "xi"}

ATTRIBUTE_METHOD_NAMES = {"n", "offset"}


def _references_outside(trees, skip) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names used in ``trees`` outside the
    node ``skip``."""
    names: set[str] = set()
    attributes: set[str] = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def _public_definitions(tree):
    """``(qualified name, node, is_method)`` of each public top-level function
    or class and of each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member, True


def _reached(trees, node, is_method: bool) -> bool:
    names, attributes = _references_outside(trees, node)
    # a local variable may share a method's name; a call of it may not
    return node.name in attributes or (not is_method and node.name in names)


def test_every_public_definition_is_referenced_in_the_library():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    unreached = {
        qualified
        for tree in trees
        for qualified, node, is_method in _public_definitions(tree)
        if not _reached(trees, node, is_method)
    }
    assert unreached == ALLOWED_UNREACHED


def test_method_names_shared_between_classes_are_pinned():
    owners: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for qualified, _node, is_method in _public_definitions(ast.parse(path.read_text())):
            if is_method:
                cls, method = qualified.split(".")
                owners.setdefault(method, set()).add(cls)
    shared = {method for method, classes in owners.items() if len(classes) > 1}
    assert shared == SHARED_METHOD_NAMES


def _stored_attributes(tree) -> set[str]:
    """Names stored on instances in ``tree``: each ``self.x = ...`` and each
    annotated name in a class body (a dataclass field)."""
    stored: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            stored.update(
                member.target.id
                for member in node.body
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored.update(
                target.attr
                for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
    return stored


def _attribute_method_names(trees) -> set[str]:
    """Public method names that a stored attribute also uses."""
    methods = {
        qualified.split(".")[1]
        for tree in trees
        for qualified, _node, is_method in _public_definitions(tree)
        if is_method
    }
    return methods & set().union(*map(_stored_attributes, trees))


def test_method_names_shared_with_stored_attributes_are_pinned():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert _attribute_method_names(trees) == ATTRIBUTE_METHOD_NAMES


def test_a_stored_attribute_masking_a_method_is_seen():
    source = """
from dataclasses import dataclass

class Space:
    def basis(self, weight):
        return []

class Classes:
    def __init__(self):
        self.basis = []

@dataclass
class Record:
    rows: tuple

    def rows(self):
        return self.rows
"""
    assert _attribute_method_names([ast.parse(source)]) == {"basis", "rows"}
